"""The three benchmark workloads: seeded inputs, one timed op, output checks.

Each workload builds its inputs from the workload seed in :meth:`setup`,
lists its op keys in a fixed order, runs one op per :meth:`op` call, and
reduces the op's result to a small JSON-able output in :meth:`collect`
(outside the timed span). :meth:`check` applies the invariants and, when
one was recorded for the seed, the reference output; :meth:`check_all`
adds checks that need several ops.

The program is reached through module attributes looked up at call time
(``influence.build_context``, not a ``from`` import), so the tracer's
wrappers see every call the workload makes.
"""

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from coresel import cli, harness, influence, models, selection

# Tolerances for float outputs compared with a recorded reference. Kept ids
# are compared exactly; ACC and BWT are ratios of prediction counts, so one
# changed prediction moves them by at least 1e-3 and 1e-12 only forgives
# summation-order bits.
ACC_ATOL = 1e-12
TAU_ATOL = 1e-3
CRITERION_RTOL = 1e-6
DELTA_RTOL = 1e-6
DELTA_ATOL = 1e-9
LOO_MIN_CORR = 0.95


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _close(value, expected, rtol=0.0, atol=0.0) -> bool:
    if value is None or expected is None:
        return value is expected
    return abs(value - expected) <= atol + rtol * abs(expected)


def blob_samples(rng, n, dim, num_classes, id0=0, spread=1.5):
    """Gaussian blobs with round-robin labels (the validation suites' family)."""
    centers = rng.normal(size=(num_classes, dim)) * spread
    return [models.Sample(id=id0 + i, task_id=0, label=i % num_classes,
                          features=rng.normal(size=dim) + centers[i % num_classes])
            for i in range(n)]


class Workload:
    """Defaults: references keyed by op key, no checks across ops."""

    def expected(self, reference, key):
        return reference.get(key)

    def check_all(self, records):
        return {}


class ContinualScaled(Workload):
    """``coresel run`` in-process on the example config, scaled to p = 200.

    Workload seed ``s`` gives the run seeds ``4s .. 4s+3`` (each fed to
    ``--seed`` and ``stream.seed``), so one measurement averages over four
    streams instead of timing one stream's luck.
    """

    name = "continual_scaled"
    runs_per_seed = 4

    def __init__(self, seed, root, work_dir, samples_per_class=100, budget=200, dim=20):
        self.seed = seed
        self.budget = budget
        self.config = Path(root) / "configs" / "example_run.cfg"
        self.out = Path(work_dir) / self.name
        self.overrides = (f"stream.samples_per_class={samples_per_class}",
                          f"criterion.m={budget}", f"stream.dim={dim}", f"model.dim={dim}")

    def setup(self):
        self.argv = {}
        for key in self.keys():
            argv = ["run", "--config", str(self.config), "--out", str(self.out),
                    "--seed", key]
            for assignment in (*self.overrides, f"stream.seed={key}"):
                argv += ["--set", assignment]
            self.argv[key] = argv

    def keys(self):
        first = self.runs_per_seed * self.seed
        return [str(first + i) for i in range(self.runs_per_seed)]

    def trace_keys(self):
        return self.keys()[:1]

    def op(self, key):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(self.argv[key])
        if code != 0:
            raise RuntimeError(f"coresel run exited {code}: {err.getvalue().strip()}")

    def collect(self, key, result):
        path = self.out / "report.json"
        raw = path.read_bytes()
        path.unlink()  # a later op must write its own, not pass on this one
        report = json.loads(raw)
        kept = [entry["kept_ids"] for entry in report["buffer_trace"]]
        return {
            "report_sha256": hashlib.sha256(raw).hexdigest(),
            "kept_trace_sha256": _sha256(kept),
            "max_kept": max(map(len, kept)),
            "acc": report["acc"],
            "bwt": report["bwt"],
            "mean_tau": report["mean_tau"],
        }

    def check(self, key, out, ref):
        if out["max_kept"] > self.budget:
            return f"buffer holds {out['max_kept']} > {self.budget} samples"
        if not 0.0 <= out["acc"] <= 1.0:
            return f"acc {out['acc']} outside [0, 1]"
        if ref is None:
            return None
        if out["kept_trace_sha256"] != ref["kept_trace_sha256"]:
            return "kept-id trace differs from the reference"
        for field in ("acc", "bwt"):
            if not _close(out[field], ref[field], atol=ACC_ATOL):
                return f"{field} {out[field]!r} != reference {ref[field]!r}"
        if not _close(out["mean_tau"], ref["mean_tau"], atol=TAU_ATOL):
            return f"mean_tau {out['mean_tau']!r} not within {TAU_ATOL} of {ref['mean_tau']!r}"
        return None

    def to_reference(self, outputs):
        return {key: {k: out[k] for k in ("kept_trace_sha256", "acc", "bwt", "mean_tau")}
                for key, out in outputs.items()}


class SelectPool(Workload):
    """build_context + select_greedy on Gaussian-blob pools with fitted models."""

    name = "select_pool"

    def __init__(self, seed, root=None, work_dir=None, pools=2, n=1000, dim=20,
                 num_classes=10, l2=0.1, budgets=(200, 500)):
        self.seed = seed
        self.num_pools = pools
        self.n, self.dim, self.num_classes, self.l2 = n, dim, num_classes, l2
        self.budgets = budgets

    def setup(self):
        self.spec = models.ModelSpec(kind="logistic", dim=self.dim,
                                     num_classes=self.num_classes, l2_strength=self.l2)
        fit_cfg = models.FitConfig(method="newton")
        self.pools = []
        for j in range(self.num_pools):
            # fit on a second draw from the same blobs: at the pool's own
            # optimum its summed gradient vanishes, every influence score is
            # round-off, and which sample greedy drops first is float noise
            rng = np.random.default_rng([self.seed, j])
            samples = blob_samples(rng, 2 * self.n, self.dim, self.num_classes)
            fit_set, pool = samples[:self.n], samples[self.n:]
            self.pools.append((pool, models.fit(self.spec, fit_set, fit_cfg)))

    def keys(self):
        return [f"{j}/{kind.value}/{budget}" for j in range(self.num_pools)
                for kind in selection.GREEDY_KINDS for budget in self.budgets]

    def trace_keys(self):
        return [k for k in self.keys() if k.startswith("0/")]

    def op(self, key):
        j, kind, budget = key.split("/")
        pool, params = self.pools[int(j)]
        ctx = influence.build_context(self.spec, params, pool, pool)
        criterion = influence.CriterionConfig(budget=int(budget), mu=0.5, nu=1.0)
        return selection.select_greedy(ctx, criterion, selection.SelectorKind(kind))

    def collect(self, key, result):
        buffer, trace = result
        pool_ids = {s.id for s in self.pools[int(key.split("/")[0])][0]}
        ids = sorted(buffer.ids())
        return {
            "kept_sha256": _sha256(ids),
            "kept": len(ids),
            "outside_pool": len(set(ids) - pool_ids),
            "final_criterion": trace.final_criterion,
        }

    def check(self, key, out, ref):
        budget = int(key.split("/")[2])
        if out["kept"] != budget or out["outside_pool"]:
            return f"kept {out['kept']} ids ({out['outside_pool']} foreign) for budget {budget}"
        if ref is None:
            return None
        if out["kept_sha256"] != ref["kept_sha256"]:
            return "kept-id set differs from the reference"
        if not _close(out["final_criterion"], ref["final_criterion"], rtol=CRITERION_RTOL):
            return (f"final_criterion {out['final_criterion']!r} not within rtol "
                    f"{CRITERION_RTOL} of {ref['final_criterion']!r}")
        return None

    def to_reference(self, outputs):
        return {key: {k: out[k] for k in ("kept_sha256", "final_criterion")}
                for key, out in outputs.items()}


class LooOracle(Workload):
    """Exact leave-one-out refits on logistic_loo_fidelity instances."""

    name = "loo_oracle"

    def __init__(self, seed, root=None, work_dir=None, instances=8, n=200, dim=10,
                 num_classes=2, l2=0.1):
        self.seed = seed
        self.num_instances = instances
        self.n, self.dim, self.num_classes, self.l2 = n, dim, num_classes, l2

    def setup(self):
        self.spec = models.ModelSpec(kind="logistic", dim=self.dim,
                                     num_classes=self.num_classes, l2_strength=self.l2)
        self.fit_cfg = models.FitConfig(method="newton", grad_tolerance=1e-10)
        self.instances = []
        for j in range(self.num_instances):
            rng = np.random.default_rng([self.seed, j])
            train = blob_samples(rng, self.n, self.dim, self.num_classes)
            test = blob_samples(rng, self.n, self.dim, self.num_classes, id0=self.n)
            self.instances.append((train, test))

    def keys(self):
        return [f"{j}/{i}" for j in range(self.num_instances) for i in range(self.n)]

    def trace_keys(self):
        return self.keys()[:self.n]

    def op(self, key):
        j, i = map(int, key.split("/"))
        train, test = self.instances[j]
        return harness.loo_retrain_delta(self.spec, train, test, train[i], self.fit_cfg)

    def collect(self, key, result):
        return {"delta": float(result)}

    def check(self, key, out, ref):
        if not math.isfinite(out["delta"]):
            return f"delta {out['delta']!r} is not finite"
        if ref is not None and not _close(out["delta"], ref, DELTA_RTOL, DELTA_ATOL):
            return f"delta {out['delta']!r} not within rtol {DELTA_RTOL} of {ref!r}"
        return None

    def expected(self, reference, key):
        j, i = map(int, key.split("/"))
        deltas = reference["deltas"]
        return deltas[j][i] if j < len(deltas) else None

    def check_all(self, records):
        """corr(delta, -score) >= 0.95 on every instance whose n ops all ran."""
        deltas = {}
        for key, _, out, _ in records:
            if out is not None:
                j, i = map(int, key.split("/"))
                deltas.setdefault(j, {})[i] = out["delta"]
        failures = {}
        for j, by_index in deltas.items():
            if len(by_index) < self.n:
                continue
            train, test = self.instances[j]
            neg_scores = influence_scores_oracle(train, test, self.num_classes, self.l2)
            corr = float(np.corrcoef([by_index[i] for i in range(self.n)], neg_scores)[0, 1])
            if not corr >= LOO_MIN_CORR:
                reason = f"instance {j}: corr(delta, -score) = {corr:.4f} < {LOO_MIN_CORR}"
                failures.update({f"{j}/{i}": reason for i in range(self.n)})
        return failures

    def to_reference(self, outputs):
        return {"deltas": [[float(f"{outputs[f'{j}/{i}']['delta']:.9g}") for i in range(self.n)]
                           for j in range(self.num_instances)]}


def influence_scores_oracle(train, test, num_classes, l2):
    """Negated first-order influence of each train sample on the test loss.

    An independent dense-numpy oracle for multinomial logistic regression
    with per-sample L2: Newton-fit the train set, then return
    ``grad_i . H^{-1} sum_test grad`` for every train sample ``i``.
    """
    def stack(samples):
        return (np.array([s.features for s in samples]),
                np.array([s.label for s in samples]))

    X, y = stack(train)
    Xt, yt = stack(test)
    n, d = X.shape
    p = num_classes * d

    def probs(theta, A):
        logits = A @ theta.reshape(num_classes, d).T
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def grads(theta, A, labels):
        resid = probs(theta, A)
        resid[np.arange(len(A)), labels] -= 1.0
        G = resid[:, :, None] * A[:, None, :] + l2 * theta.reshape(num_classes, d)
        return G.reshape(len(A), p)

    def hessian(theta):
        P = probs(theta, X)
        K = np.einsum("nc,ce->nce", P, np.eye(num_classes)) - P[:, :, None] * P[:, None, :]
        H = np.einsum("nce,nj,nk->cjek", K, X, X).reshape(p, p)
        return H + n * l2 * np.eye(p)

    theta = np.zeros(p)
    for _ in range(50):
        g = grads(theta, X, y).sum(axis=0)
        if np.linalg.norm(g) <= 1e-10:
            break
        theta = theta - np.linalg.solve(hessian(theta), g)
    test_grad = grads(theta, Xt, yt).sum(axis=0)
    return grads(theta, X, y) @ np.linalg.solve(hessian(theta), test_grad)


WORKLOADS = {w.name: w for w in (ContinualScaled, SelectPool, LooOracle)}
