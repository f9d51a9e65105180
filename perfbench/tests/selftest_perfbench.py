"""Self-test of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench/tests/selftest_perfbench.py

The file name keeps it out of the repository's default test collection:
it checks the benchmark, not the library, and names library functions that
later refactors may remove.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from workloads import ContinualScaled, LooOracle, SelectPool  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name, seed, tmp_path):
    if name == "continual_scaled":
        return ContinualScaled(seed, ROOT, tmp_path, samples_per_class=12, budget=50, dim=2)
    if name == "select_pool":
        return SelectPool(seed, pools=1, n=60, dim=3, num_classes=3, budgets=(20, 40))
    return LooOracle(seed, instances=1, n=40, dim=3)


# Layers the README's table says each workload exercises, and layers it
# says the workload never reaches inside its ops.
CALLED = {
    "continual_scaled": ["models.stack_samples", "models.set_hvp", "numkit.cg_solve",
                         "harness.kendall_tau", "cli.write_artifacts",
                         "selection.select_greedy", "influence.regularizer_taylor_grad"],
    "select_pool": ["selection.select_greedy", "influence.regularizer_taylor_grad",
                    "influence.build_context", "numkit.cg_solve", "models.set_hvp",
                    "models.stack_samples"],
    "loo_oracle": ["models.stack_samples", "models.dense_hessian", "models.fit",
                   "harness.loo_retrain_delta"],
}
NOT_CALLED = {
    "continual_scaled": ["models.dense_hessian", "harness.loo_retrain_delta"],
    "select_pool": ["models.dense_hessian", "models.fit", "harness.kendall_tau",
                    "cli.write_artifacts"],
    "loo_oracle": ["numkit.cg_solve", "selection.select_greedy", "harness.kendall_tau",
                   "cli.write_artifacts"],
}


def traced_run(name, tmp_path):
    workload = tiny(name, 0, tmp_path)
    workload.setup()
    records, metrics, _ = run.per_layer(workload)
    run.verify(workload, records, None)
    assert [r for r in records if r[3] is not None] == []
    return {k: v["value"] for k, v in metrics.items()}, {k: v["unit"] for k, v in metrics.items()}


@pytest.mark.parametrize("name", list(CALLED))
def test_traced_run_counts_repeat_and_reach_the_expected_layers(name, tmp_path):
    first, units = traced_run(name, tmp_path)
    second, _ = traced_run(name, tmp_path)
    exact = list(tracer.COUNTS) + [m for m in first if m.endswith(".calls")]
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}
    for layer in CALLED[name]:
        assert first[f"{layer}.calls"] > 0, layer
    for layer in NOT_CALLED[name]:
        assert first[f"{layer}.calls"] == 0, layer
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_loo_refits_the_base_model_per_call(tmp_path):
    values, _ = traced_run("loo_oracle", tmp_path)
    assert values["models.fit.calls_per_loo"] == 2.0


def test_tracer_restores_bindings_and_skips_missing_targets():
    from coresel import harness, influence, numkit

    before = (numkit.cg_solve, influence.cg_solve, harness.build_context,
              influence.InfluenceContext.solve)
    t = tracer.Tracer(tracer.TARGETS + (("numkit", "no_such_fn"), ("nope", "fn")))
    with t:
        assert influence.cg_solve is numkit.cg_solve is not before[0]
        assert harness.build_context is influence.build_context is not before[2]
    after = (numkit.cg_solve, influence.cg_solve, harness.build_context,
             influence.InfluenceContext.solve)
    assert after == before
    assert t.missing == ["numkit.no_such_fn", "nope.fn"]
    assert t.metrics()["numkit.no_such_fn.calls"] == 0


def test_untraced_run_prints_the_end_to_end_schema():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "loo_oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced_run_installs_no_wrappers(tmp_path):
    from coresel import models

    workload = tiny("loo_oracle", 0, tmp_path)
    workload.setup()
    wrapped, op = [], workload.op

    def checked_op(key):
        wrapped.append(hasattr(models.fit, "__wrapped__"))
        return op(key)

    workload.op = checked_op
    run.end_to_end(workload, 0.2, (0.0, 0.0))
    assert wrapped and not any(wrapped)


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loo_oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""



def test_speed_meter_takes_its_probes_out_of_a_span():
    with speed.SpeedMeter() as meter:
        start = time.perf_counter()
        while time.perf_counter() - start < 4 * speed.PROBE_INTERVAL_S:
            pass
        end = time.perf_counter()
    assert len(meter.factors) >= 4
    work = meter.work(start, end)
    assert 0 < work < end - start
    assert meter.scale(start, end) == pytest.approx(work / meter.slowdown(start, end))
