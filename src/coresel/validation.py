"""Oracle validation suites behind ``coresel validate`` and the acceptance tests.

Every suite checks one falsifiable property of the influence machinery
against an independent ground truth: exact retraining, dense matrix
inverses, finite differences, brute-force enumeration, or hand-derived
closed forms. Each returns pass/fail plus a one-line numeric detail, so a
regression points at the broken formula rather than a failing end-to-end
run.
"""

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .harness import (
    OracleConfig,
    StreamSpec,
    acc_bwt,
    kendall_tau,
    loo_retrain_delta,
    loo_retrain_deltas,
    make_stream,
    run_continual,
)
from .influence import CriterionConfig, build_context
from .models import FitConfig, ModelSpec, Params, Sample, fit
from .oracles import (
    criterion_values,
    finite_eps_second_order,
    first_order_influence,
    grad_matrix,
    gradient_matching_distance,
    identical_hessian_form,
    mu_terms,
    regularizer,
    second_order_influence,
    select_exhaustive,
)
from .selection import SelectorKind, select_greedy

QUAD = ModelSpec(kind="quad1d", dim=1)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


def _blob_instance(rng, n, dim, num_classes, l2, id0=0, spread=1.5):
    centers = rng.normal(size=(num_classes, dim)) * spread
    out = []
    for i in range(n):
        label = i % num_classes
        out.append(Sample(id=id0 + i, task_id=0, label=label,
                          features=rng.normal(size=dim) + centers[label]))
    return ModelSpec(kind="logistic", dim=dim, num_classes=num_classes,
                     l2_strength=l2), out


def _fitted_elsewhere_ctx(rng, n, dim, damping):
    """A context over ``n`` two-class blob samples, scored by a model fitted on
    ``n`` further draws: at the pool's own optimum every score would vanish."""
    spec, drawn = _blob_instance(rng, 2 * n, dim, 2, 0.1)
    params = fit(spec, drawn[n:], FitConfig(method="newton", grad_tolerance=1e-10))
    return build_context(spec, params, drawn[:n], drawn[:n], damping=damping)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_quad_loo():
    """Exact leave-one-out retraining equals the negated influence score on
    the quadratic worked-example family (curvature terms cancel there)."""
    worst = 0.0
    for a, h in [(0.0, 1.0), (-2.0, 0.5), (3.0, 2.0), (0.7, -1.3), (10.0, 0.25)]:
        coreset = [_qsample(0, a), _qsample(1, a + 2 * h)]
        test_set = [_qsample(10, a), _qsample(11, a + 2 * h), _qsample(12, a + 4 * h)]
        params = fit(QUAD, coreset, FitConfig(method="closed_form"))
        ctx = build_context(QUAD, params, test_set, coreset, damping=0.0)
        score = first_order_influence(ctx, coreset[0])
        delta = loo_retrain_delta(QUAD, coreset, test_set, coreset[0],
                                  FitConfig(method="closed_form"))
        worst = max(worst, abs(delta + score))
    # removing one of two identical samples leaves the optimum in place
    coreset = [_qsample(0, 1.0), _qsample(1, 1.0)]
    test_set = [_qsample(10, 0.0), _qsample(11, 2.0)]
    delta = loo_retrain_delta(QUAD, coreset, test_set, coreset[0],
                              FitConfig(method="closed_form"))
    worst = max(worst, abs(delta))
    return worst <= 1e-9, f"max |retrain delta + score| = {worst:.2e} (tol 1e-9)"


def suite_logistic_loo():
    """Retraining deltas correlate >= 0.95 with negated scores on 20 seeded
    strictly convex instances (n=200, d=10, l2=0.1)."""
    worst = 1.0
    cfg = FitConfig(method="newton", grad_tolerance=1e-10)
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        spec, train = _blob_instance(rng, 200, 10, 2, 0.1)
        _, test = _blob_instance(rng, 200, 10, 2, 0.1, id0=1000)
        params = fit(spec, train, cfg)
        ctx = build_context(spec, params, test, train, damping=0.0)
        scores = -(grad_matrix(spec, params, train) @ ctx.ihvp)
        deltas = loo_retrain_deltas(spec, train, test, cfg)
        worst = min(worst, float(np.corrcoef(deltas, -scores)[0, 1]))
    return worst >= 0.95, f"min corr(retrain delta, -score) = {worst:.4f} (need >= 0.95)"


def suite_second_order():
    """Finite-perturbation quotients with dense inverses reproduce both
    second-order formulas: the excluded case exactly (linear in eps), the
    joint case at O(eps) with <= 1e-3 relative error at eps = 1e-4."""
    excl_worst = 0.0
    joint_worst = 0.0
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(20_000 + seed)
        spec, samples = _blob_instance(rng, 30, 5, 3, 0.1)
        params = fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
        ctx = build_context(spec, params, samples[:25], samples[:25], damping=0.01)
        pairs = [(samples[i], samples[-1 - i]) for i in range(4)]
        z, zp = max(pairs, key=lambda p: abs(second_order_influence(ctx, p[0], p[1], 1.0)))

        excl = second_order_influence(ctx, z, zp, 0.0)
        for eps in (0.5, 1e-2, 1e-4):
            quotient = finite_eps_second_order(ctx, z, zp, 0.0, eps)
            excl_worst = max(excl_worst, abs(quotient - excl) / max(1.0, abs(excl)))

        joint = second_order_influence(ctx, z, zp, 1.0)
        q1 = finite_eps_second_order(ctx, z, zp, 1.0, 1e-4)
        q2 = finite_eps_second_order(ctx, z, zp, 1.0, 5e-5)
        joint_worst = max(joint_worst, abs(q1 - joint) / abs(joint))
        err1, err2 = abs(q1 - joint), abs(q2 - joint)
        if err2 > 0:
            ratios.append(err1 / err2)
    median_ratio = float(np.median(ratios))
    passed = excl_worst <= 1e-9 and joint_worst <= 1e-3 and 1.5 <= median_ratio <= 2.5
    return passed, (f"excluded rel err {excl_worst:.2e} (tol 1e-9); joint-case rel err "
                    f"{joint_worst:.2e} (tol 1e-3); halving-eps error ratio {median_ratio:.2f}")


def suite_neumann():
    """First-order expansion of a perturbed inverse loses an O(eps^2) tail:
    halving eps divides the error by ~4 on random SPD pairs."""
    lo, hi = np.inf, 0.0
    rng = np.random.default_rng(30_000)
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        A = (Q * rng.uniform(0.5, 2.0, size=10)) @ Q.T
        S = rng.normal(size=(10, 10))
        B = (S + S.T) / 2
        A_inv = np.linalg.inv(A)

        def expansion_error(eps):
            exact = np.linalg.inv(A + eps * B)
            return np.linalg.norm(exact - (A_inv - eps * A_inv @ B @ A_inv))

        ratio = expansion_error(1e-3) / expansion_error(5e-4)
        lo, hi = min(lo, ratio), max(hi, ratio)
    return 3.5 <= lo and hi <= 4.5, f"error ratios in [{lo:.3f}, {hi:.3f}] (need [3.5, 4.5])"


def suite_regularizer_identities():
    """The four closed-form identities of the regularizer family; the Taylor
    gradient is the one greedy adds to the scores at each of its drops."""
    mu0_worst = 0.0
    taylor_worst = 0.0
    rng = np.random.default_rng(40_000)
    for _ in range(10):
        ctx = _fitted_elsewhere_ctx(rng, 12, 3, damping=0.0)
        w = (rng.random(12) < 0.6).astype(float)
        if w.sum() in (0, 12):
            w[0] = 1.0 - w[0]
        mu0_worst = max(mu0_worst, abs(
            regularizer(ctx, w, 0.0) - gradient_matching_distance(ctx, w)))
        mu = float(rng.uniform(0, 1))
        # at nu = 1 a drop's total minus its score is the regularizer's
        # gradient at the keep weights before that drop
        _, trace = select_greedy(ctx, CriterionConfig(budget=1, mu=mu, nu=1.0))
        scores = ctx.scores()
        keep = np.ones(12)
        h = 1e-6
        for sample_id, total in trace.drop_order:
            i = int(np.flatnonzero(ctx.batch.ids == sample_id)[0])
            wp, wm = keep.copy(), keep.copy()
            wp[i] += h
            wm[i] -= h
            fd = (regularizer(ctx, wp, mu) - regularizer(ctx, wm, mu)) / (2 * h)
            taylor_worst = max(taylor_worst, abs(total - scores[i] - fd))
            keep[i] = 0.0

    hessian_worst = 0.0
    decomp_worst = 0.0
    for _ in range(10):
        zs = rng.normal(size=9) * 2.0
        candidates = [_qsample(i, z) for i, z in enumerate(zs)]
        w = (rng.random(9) < 0.6).astype(float)
        if w.sum() == 0:
            w[0] = 1.0
        kept = [c for c, wi in zip(candidates, w) if wi == 1.0]
        ctx = build_context(QUAD, Params([float(rng.normal())]), candidates, kept,
                            damping=0.0)
        alpha = (len(candidates) - len(kept)) / len(kept)
        for mu in (0.0, 0.3, 0.7, 1.0):
            hessian_worst = max(hessian_worst, abs(
                identical_hessian_form(ctx, w, mu, alpha) - regularizer(ctx, w, mu)))
        mu = float(rng.uniform(0, 1))
        r_shift = identical_hessian_form(ctx, w, mu, alpha)
        r_plain = gradient_matching_distance(ctx, w)
        g_all = float(ctx.grad_sum[0])
        g_kept = float(mu_terms(ctx, 0.0)[w == 1.0].sum())
        expected = (-2 * alpha * mu + (alpha * mu) ** 2) * g_all ** 2 \
            + 2 * alpha * mu * g_all * g_kept
        decomp_worst = max(decomp_worst, abs(r_shift ** 2 - r_plain ** 2 - expected))

    passed = (mu0_worst <= 1e-12 and hessian_worst <= 1e-9
              and decomp_worst <= 1e-9 and taylor_worst <= 1e-8)
    return passed, (f"mu=0 gap {mu0_worst:.1e} (tol 1e-12); shared-Hessian gap "
                    f"{hessian_worst:.1e} (tol 1e-9); decomposition gap {decomp_worst:.1e} "
                    f"(tol 1e-9); greedy Taylor-vs-FD gap {taylor_worst:.1e} (tol 1e-8)")


def suite_selector_equivalences():
    """nu=0 reduces the regularized selector to the vanilla one and mu=0 to
    the gradient-matching ablation, id-for-id, on 50 seeded instances."""
    exact = 0
    trials = 50
    for seed in range(trials):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(10, 18))
        ctx = _fitted_elsewhere_ctx(rng, n, 4, damping=0.01)
        m = n // 2
        a1, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                              SelectorKind.REGULARIZED_IF)
        b1, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                              SelectorKind.VANILLA_IF)
        a2, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=0.0, nu=0.05),
                              SelectorKind.REGULARIZED_IF)
        b2, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=0.0, nu=0.05),
                              SelectorKind.IF_GRAD_MATCH)
        if np.array_equal(a1.kept, b1.kept) and np.array_equal(a2.kept, b2.kept):
            exact += 1
    return exact == trials, f"{exact}/{trials} instances id-exact (need all)"


def suite_greedy_quality():
    """Greedy lands at or below the random-subset median on >= 95/100
    instances (n=12, m=6) and never beats the exhaustive optimum."""
    wins = 0
    dominated = True
    for seed in range(100):
        rng = np.random.default_rng(60_000 + seed)
        ctx = _fitted_elsewhere_ctx(rng, 12, 4, damping=0.01)
        cfg = CriterionConfig(budget=6)
        greedy, _ = select_greedy(ctx, cfg)
        exhaustive = select_exhaustive(ctx, cfg)
        masks = np.zeros((1002, 12))
        masks[0] = greedy.kept
        masks[1] = exhaustive.kept
        for mask in masks[2:]:
            mask[rng.choice(12, size=6, replace=False)] = 1.0
        g_value, e_value, *values = criterion_values(ctx, cfg, masks)
        if e_value > g_value + 1e-12:
            dominated = False
        if g_value <= np.median(values):
            wins += 1
    passed = wins >= 95 and dominated
    return passed, (f"greedy <= random-subset median on {wins}/100 (need >= 95); "
                    f"exhaustive dominance {'held' if dominated else 'VIOLATED'}")


def suite_metrics():
    """Hand-derived metric values: the accuracy/backward-transfer pair and
    the three rank-correlation cases."""
    acc, bwt = acc_bwt(np.array([[0.9, np.nan, np.nan],
                                 [0.85, 0.9, np.nan],
                                 [0.7, 0.8, 0.9]]))
    checks = [
        abs(acc - 0.8) < 1e-12,
        abs(bwt + 0.15) < 1e-12,
        kendall_tau([1, 2, 3], [4, 5, 6]) == 1.0,
        kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0,
        abs(kendall_tau([1, 2, 3], [2, 1, 3]) - 1 / 3) < 1e-12,
    ]
    return all(checks), (f"acc={acc:.3f} bwt={bwt:.3f}; tau cases "
                         f"{'exact' if all(checks[2:]) else 'WRONG'}")


def suite_tau_trend():
    """Qualitative rank-agreement trend on a 5-task drift stream (2-D
    Gaussians, budget 50, 10 seeds): the regularized selector tracks the
    unbiased reservoir ranking better than vanilla influence selection, at
    no final-accuracy cost versus plain reservoir sampling."""
    taus = {"regularized_if": [], "vanilla_if": []}
    accs = {"regularized_if": [], "reservoir": []}
    model = ModelSpec(kind="logistic", dim=2, num_classes=10, l2_strength=0.01)
    # nu is rescaled from the deep-model default to desk-scale gradient
    # magnitudes; the selection criterion is otherwise stock
    criterion = CriterionConfig(budget=50, mu=0.5, nu=1.0)
    for seed in range(10):
        stream = make_stream(StreamSpec(
            num_tasks=5, classes_per_task=2, samples_per_class=12, dim=2,
            batch_size=12, seed=seed, mean_scale=5.0, within_std=0.8,
            drift_offsets=(0.0, 0.3, 0.6, 0.9, 1.2), label_noise=(0.15,) * 5,
            test_fraction=0.5))
        for kind in (SelectorKind.REGULARIZED_IF, SelectorKind.VANILLA_IF,
                     SelectorKind.RESERVOIR):
            report = run_continual(stream, model, kind, criterion, OracleConfig(),
                                   seed=seed, learning_rate=0.02, epochs=20,
                                   reweight_constant=1.0)
            if kind.value in taus:
                taus[kind.value].append(report.mean_tau)
            if kind.value in accs:
                accs[kind.value].append(report.acc)
    tau_ours = float(np.mean(taus["regularized_if"]))
    tau_vanilla = float(np.mean(taus["vanilla_if"]))
    acc_ours = float(np.mean(accs["regularized_if"]))
    acc_reservoir = float(np.mean(accs["reservoir"]))
    passed = tau_ours > tau_vanilla and acc_ours >= acc_reservoir - 0.01
    return passed, (f"mean tau {tau_ours:.3f} vs vanilla {tau_vanilla:.3f}; "
                    f"final acc {acc_ours:.3f} vs reservoir {acc_reservoir:.3f} "
                    f"(allowed slack 0.01)")


def suite_determinism():
    """Identical config and seed produce byte-identical report.json."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from .cli import main

    config_text = "\n".join([
        "selector.kind = regularized_if",
        "criterion.m = 20",
        "stream.num_tasks = 2",
        "stream.classes_per_task = 2",
        "stream.samples_per_class = 12",
        "stream.dim = 2",
        "stream.batch_size = 6",
        "stream.seed = 3",
        "fit.epochs = 2",
        "seed = 7",
    ]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tmp / "run.cfg"
        cfg.write_text(config_text)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(["run", "--config", str(cfg), "--out", str(tmp / f"out{i}")])
                     for i in (1, 2)]
        blobs = [(tmp / f"out{i}" / "report.json").read_bytes() for i in (1, 2)]
    identical = blobs[0] == blobs[1]
    passed = codes == [0, 0] and identical
    return passed, (f"exit codes {codes}; report.json "
                    f"{'byte-identical' if identical else 'DIFFERS'} across runs")


_SUITES: dict[str, Callable] = {
    "quad_loo_exactness": suite_quad_loo,
    "logistic_loo_fidelity": suite_logistic_loo,
    "second_order_oracles": suite_second_order,
    "neumann_expansion": suite_neumann,
    "regularizer_identities": suite_regularizer_identities,
    "selector_equivalences": suite_selector_equivalences,
    "greedy_quality": suite_greedy_quality,
    "metrics": suite_metrics,
    "tau_trend": suite_tau_trend,
    "determinism": suite_determinism,
}


def suite_names(name_filter: Optional[str] = None) -> list:
    if name_filter is None:
        return list(_SUITES)
    return [n for n in _SUITES if name_filter in n]


def run_suite(name: str) -> SuiteResult:
    start = time.perf_counter()
    try:
        passed, detail = _SUITES[name]()
    except Exception as exc:  # a crashed suite is a failed suite
        passed, detail = False, f"crashed: {exc}"
    return SuiteResult(name, passed, detail, time.perf_counter() - start)


def run_suites(names: Optional[list] = None) -> list:
    return [run_suite(n) for n in (names if names is not None else list(_SUITES))]
