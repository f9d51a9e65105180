"""Run outputs pinned across commits, and the stacking budget of one run.

``test_acceptance.py`` checks that one commit repeats its own report byte
for byte. The digests below were recorded from an earlier commit, so a
change that moves a kept id, an accuracy bit or a tau value anywhere in
these runs fails here even when it repeats itself perfectly; the example
config's four artifact files are pinned byte for byte.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coresel import cli, harness, models
from coresel.harness import StreamSpec, make_stream, run_continual
from coresel.influence import CriterionConfig, build_context
from coresel.models import FitConfig, ModelSpec, Sample, fit
from coresel.selection import GREEDY_KINDS, SelectorKind, select_greedy

EXAMPLE = Path(__file__).resolve().parents[1] / "configs" / "example_run.cfg"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def run_digests(tmp_path, assignments):
    """Digests of the kept ids per step, the accuracy matrix and the tau
    series of ``coresel run`` on the example config."""
    argv = ["run", "--config", str(EXAMPLE), "--out", str(tmp_path)]
    for assignment in assignments:
        argv += ["--set", assignment]
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    return (digest([entry["kept_ids"] for entry in report["buffer_trace"]]),
            digest(report["acc_matrix"]),
            digest([point["tau"] for point in report["tau_series"]]))


def scaled(seed):
    """The benchmark's scaled run (p = 200) at stream and run seed ``seed``."""
    return ["stream.samples_per_class=100", "criterion.m=200", "stream.dim=20",
            "model.dim=20", f"stream.seed={seed}", f"seed={seed}"]


# name: (assignments, digests of (kept ids, acc matrix, tau series))
PINNED = {
    "regularized_if": ([], (
        "4d50dafba02580c694a1be13d3e264cf0de7f731db57232e694bc6432b84c6fc",
        "2132d03dae2ab538a5c16cf2c7adc36bfc1f9dc6e1cda6f21db4badbe0fdb5d0",
        "add9ee9d3b7b3c1bb4d71752b7b7fb5b6f4be4e3a94a60603fa42cc54a7c3850",
    )),
    "reservoir": (["selector.kind=reservoir"], (
        "aceb004f25c658252f240188dfa4cb9d9c5042c3066ffbcc04a2538287fbd099",
        "bfb971a64c137358d407967932f8596232d1a7efad04659a5bda6d2586080300",
        "5cf5652fa714316262d7f08937e0424175f040b033d8c301066dc37f08f6889e",
    )),
    "ring": (["selector.kind=ring"], (
        "38211b354d3fe837d66d24686dff258ae4eb4d37b353867c6e151c8fe43f8c9e",
        "bc013e046d25e6f5676b15eb3ccb48c53ec62bef16af6caca2cc0e3d14bc8047",
        "a79164166744332eb7be7ad4d1f74e9acf3afdc2af4179695ec5c696bb8ddfc9",
    )),
    "if_diversity": (["selector.kind=if_diversity"], (
        "835aa7f71e197eac6db4ffed8e37e5e85a996ea3d234d83191fff3cdebcd1b58",
        "47d26769c9080b2f7b11770e66eb657da040462fcfe7a5e31b71f0018c9e05c2",
        "5c2263d76779d7114a69f7e7b96b98a06146a67c4d13e7ffbc6508004212abc0",
    )),
    "oracle_off": (["oracle.enabled=false"], (
        "4d50dafba02580c694a1be13d3e264cf0de7f731db57232e694bc6432b84c6fc",
        "2132d03dae2ab538a5c16cf2c7adc36bfc1f9dc6e1cda6f21db4badbe0fdb5d0",
        "a6f025aa56fe7063e9216382083ec1f1d93898802e4a323e4b08d4742756566f",
    )),
    "balanced_reweight": (["harness.reweight_constant="], (
        "7148c00ee50c198c85594d5c70452c35caa8c4c5d3fcc4cfb293d4df6711ec71",
        "ad1232c3f41d5301f991de451c79e1e70b81747c4779fc578ca216adbf82dfa8",
        "b37306a64e7499b217b8ca3488234fcd8f4b1d5547614e6e0aa98b31b5c97ec5",
    )),
    "p200": (scaled(0), (
        "65305fece94511233b212865cd19602e714fa4469be37b0c54eda595668ba26e",
        "6173821da4443e82d97ea17f4780f4893cd46435b394f25082150917c5c933ed",
        "dcc4a60ac9df45ca2e95048509bed817b69cbf7f53c24b60c4c30f37f3963d79",
    )),
    # a near tie: of the benchmark's 128 scaled reference runs, this is the
    # one where summing the SGD gradient in another order flips a kept id
    "p200_seed126": (scaled(126), (
        "1a10436eff58a748f658463a7557ff636fe6eabd5c29a962b11b001de2ee9d03",
        "9ea7fbfd6acc2bc9ccbcd7c5ceb9cf46ae5411c10cbb2e07325d469623a860f5",
        "9a9bb89710a0d7cd45598a6096379b6466ec7c2d8d0e3933eff845e4103e3b5b",
    )),
}


@pytest.mark.parametrize("assignments, expected", PINNED.values(), ids=PINNED.keys())
def test_example_config_outputs_are_pinned(tmp_path, capsys, assignments, expected):
    assert run_digests(tmp_path, assignments) == expected


# sha256 of each artifact file of `coresel run` on the example config
# (regularized_if, oracle on)
ARTIFACT_BYTES = {
    "report.json": "ce178f41e9e69a34bafa734d061fbfe554ec08eaeab85febc73c47351ff6c098",
    "acc_matrix.csv": "707f1d9d7f8e1bd371c0974ea0d25f3fdda8ff799442b87e4b31359a669183c7",
    "metrics.csv": "a2683dce87823336b9e971f5ce67df58d31827ca9eb50c0040fab73228c2db32",
    "buffer_trace.csv": "3bcdd89b9ca9584b3417dc916f3380b576339e3fe518e041007e34667713076f",
}


def test_example_config_artifact_bytes_are_pinned(tmp_path, capsys, off_optimum_guard):
    """The artifact bytes, from a run that scores no selection round at its
    candidates' own optimum."""
    checked = off_optimum_guard(harness)
    assert cli.main(["run", "--config", str(EXAMPLE), "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ARTIFACT_BYTES} == ARTIFACT_BYTES
    steps = json.loads((tmp_path / "report.json").read_text())["buffer_trace"]
    assert len(checked) == len(steps) > 0


# sha256 of each artifact file of the example config with the oracle off:
# every tau cell is blank
ORACLE_OFF_BYTES = {
    "report.json": "4a9ad1f5c8d594c032bffb73566fc8829dabc2e8cc0d2d8043b748619edbe4ff",
    "acc_matrix.csv": "707f1d9d7f8e1bd371c0974ea0d25f3fdda8ff799442b87e4b31359a669183c7",
    "metrics.csv": "b8ce40dfd2d225ab2591303a0fbecac97f99f3ba2d7040316df25dcd0d881f8b",
    "buffer_trace.csv": "3bcdd89b9ca9584b3417dc916f3380b576339e3fe518e041007e34667713076f",
}


def test_oracle_off_artifact_bytes_are_pinned(tmp_path, capsys):
    assert cli.main(["run", "--config", str(EXAMPLE), "--out", str(tmp_path),
                     "--set", "oracle.enabled=false"]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ORACLE_OFF_BYTES} == ORACLE_OFF_BYTES


# sha256 of sweep.csv of the example config over grid.mu = 0.5 and
# grid.nu = 0, 1.0, with the oracle on and off (a blank mean_tau)
SWEEP_BYTES = {
    "oracle_on": "ea855de22cdd0fa65081b9b2fa9dccd49ffa69871683c2c781482b7dd13736b5",
    "oracle_off": "0a3641a5486451e610d5a9062d5728783ba107321a2d86a826be1ee25d21bfea",
}


@pytest.mark.parametrize("oracle", SWEEP_BYTES)
def test_sweep_csv_bytes_are_pinned(tmp_path, capsys, oracle):
    text = EXAMPLE.read_text(encoding="utf-8")
    assert "oracle.enabled = true" in text
    config = tmp_path / "run.cfg"
    config.write_text(text if oracle == "oracle_on" else
                      text.replace("oracle.enabled = true", "oracle.enabled = false"))
    grid = tmp_path / "grid.cfg"
    grid.write_text("grid.mu = 0.5\ngrid.nu = 0, 1.0\n")
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config), "--grid", str(grid),
                     "--out", str(out)]) == 0
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == SWEEP_BYTES[oracle]


# kept ids (sorted) of each greedy kind on one fitted blob pool at p = 200
GREEDY_AT_SCALE = {
    "regularized_if":
        "2554b1dce315243ff0650f69899f42fb02b986b1c2f593f1408b78b50ff0b57a",
    "vanilla_if":
        "ecaee30d72307bc0884466c9fca1db57350f0e7ff64690c197df34994bb69395",
    "if_grad_match":
        "fab51183c59c8fe9441c98b11413c77404a009869277ba22cdbada8b5d3b7af7",
    "if_diversity":
        "645144f2f4e885d8bffd7fdd5b1712f8c46cd5215c59813842b552e9924404b2",
}


def greedy_at_scale_digests(n=300, dim=20, num_classes=10, budget=100):
    """Digests of greedy's kept ids on a Gaussian-blob pool of ``n`` (p = 200),
    scored by a model fitted on a second ``n`` from the same blobs: a few
    hundred drops per kind, where the run pins see 12 per step."""
    rng = np.random.default_rng(9)
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=0.1)
    centers = rng.normal(size=(num_classes, dim)) * 1.5
    samples = [Sample(id=i, task_id=0, label=i % num_classes,
                      features=rng.normal(size=dim) + centers[i % num_classes])
               for i in range(2 * n)]
    params = fit(spec, samples[:n], FitConfig(method="newton"))
    ctx = build_context(spec, params, samples[n:], samples[n:])
    cfg = CriterionConfig(budget=budget, mu=0.5, nu=1.0)
    return {kind.value: digest(sorted(select_greedy(ctx, cfg, kind)[0].ids()))
            for kind in GREEDY_KINDS}


def test_greedy_at_scale_is_pinned():
    assert greedy_at_scale_digests() == GREEDY_AT_SCALE


# Newton fits at non-unit weights, from zero and warm-started from the
# unit-weight optimum, and the leave-one-out deltas of one coreset, under
# one BLAS thread (the benchmark's setting): np.linalg.solve of a
# 200-parameter Newton step rounds differently under two threads
FIT_PATH = {
    "fit_c2_d10":
        "029985ebf39f5ddc06cbaa335614a9fad491c1a584c2b69d64b22afb1c72fb45",
    "fit_c2_d10_warm":
        "8979bf073cf96ca03b52074d5f4f2c2fe74f1ec63b6104e59ad42c98fe412d7c",
    "fit_c10_d20":
        "b662700a07b36f53f9b7fbde97c92283757b130bec3bb82e68adf8e879347f66",
    "fit_c10_d20_warm":
        "ca186c2b442fbed0d391abcedfd36dddaa15ef194dbedf3bf33bc08138291e84",
    "loo_deltas_n60":
        "64209f3e7d0aaecfe348bcb28079ad5d1062586ed896b8321cf1b984c0ee9005",
}


def blobs(rng, n, dim, num_classes, l2=0.1):
    """(spec, samples) of ``n`` Gaussian-blob samples, labels cycling over
    the classes."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    centers = rng.normal(size=(num_classes, dim))
    return spec, [Sample(id=i, task_id=0, label=i % num_classes,
                         features=rng.normal(size=dim) + centers[i % num_classes])
                  for i in range(n)]


def fit_path_digests():
    rng = np.random.default_rng(29)
    cfg = FitConfig(method="newton")
    out = {}
    for num_classes, dim in ((2, 10), (10, 20)):
        spec, samples = blobs(rng, 150, dim, num_classes)
        batch = models.stack_samples(spec, samples)
        weighted = batch.with_weights(rng.uniform(0.5, 2.0, size=len(samples)))
        name = f"fit_c{num_classes}_d{dim}"
        out[name] = digest(fit(spec, weighted, cfg).theta.tolist())
        warm = fit(spec, batch, cfg)
        out[name + "_warm"] = digest(fit(spec, weighted, cfg, init=warm).theta.tolist())
    spec, samples = blobs(rng, 120, 5, 3)
    out["loo_deltas_n60"] = digest(
        harness.loo_retrain_deltas(spec, samples[:60], samples[60:], cfg).tolist())
    return out


def test_fit_path_is_pinned():
    # a child process, so that the thread count holds whatever this one uses
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
    code = "import json, test_pinned_runs as t\nprint(json.dumps(t.fit_path_digests()))\n"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == FIT_PATH


@pytest.mark.parametrize("selector", [SelectorKind.REGULARIZED_IF, SelectorKind.RESERVOIR,
                                      SelectorKind.RING])
def test_run_stacks_each_split_once(monkeypatch, selector):
    """Every train and test row is stacked once, in at most one call per
    split of each task; the loop itself works on row indices."""
    stream = make_stream(StreamSpec(num_tasks=3, classes_per_task=2, samples_per_class=10,
                                    dim=2, batch_size=5, seed=8))
    model = ModelSpec(kind="logistic", dim=2, num_classes=6, l2_strength=0.05)
    rows = []
    original = models.stack_samples
    monkeypatch.setattr(models, "stack_samples",
                        lambda spec, samples: rows.append(len(samples))
                        or original(spec, samples))
    run_continual(stream, model, selector, CriterionConfig(budget=12),
                  harness.OracleConfig(min_overlap=2), seed=1,
                  learning_rate=0.05, epochs=2)
    assert len(rows) <= 2 * len(stream.tasks)
    assert sum(rows) == sum(len(t.train) + len(t.test) for t in stream.tasks)
