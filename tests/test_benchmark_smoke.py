"""Smoke test of the library API that the benchmark workloads call.

Builds each workload of ``perfbench/workloads.py`` at seed 0, runs one op
(eight for ``select_pool``, one per greedy kind and budget), and checks
the output against the recorded seed-0 reference, so a renamed argument or
a moved kept id fails here before a benchmark run finds it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from coresel import selection

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def reference(name):
    path = BENCH / "reference" / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))["seeds"]["0"]


@pytest.mark.parametrize("name", ["continual_scaled", "select_pool", "loo_oracle"])
def test_workload_ops_match_the_seed_0_reference(workloads, tmp_path, name):
    if name == "continual_scaled":
        workload = workloads.ContinualScaled(0, BENCH.parent, tmp_path)
        keys = ["0"]
    elif name == "select_pool":
        workload = workloads.SelectPool(0, pools=1)
        keys = [f"0/{kind.value}/{budget}" for kind in selection.GREEDY_KINDS
                for budget in (200, 500)]
    else:
        workload = workloads.LooOracle(0, instances=1)
        keys = ["0/0"]
    workload.setup()
    ref = reference(name)
    for key in keys:
        out = workload.collect(key, workload.op(key))
        assert workload.check(key, out, workload.expected(ref, key)) is None, key
