"""Smoke test of the library API that the benchmark workloads call.

Builds each workload of ``perfbench/workloads.py`` at seed 0, runs one op
(eight for ``select_pool``, one per greedy kind and budget), and checks
the output against the recorded seed-0 reference, so a renamed argument or
a moved kept id fails here before a benchmark run finds it. It also checks
that every function the benchmark's tracer wraps still exists, apart from
the ones already known to be gone.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from coresel import selection

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_bench_module("workloads")


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


# tracer targets whose functions were deleted from coresel; the tracer
# reports each as 0 calls until the benchmark drops it
DELETED_TARGETS = {"numkit.cg_solve", "models.set_hvp",
                   "influence.regularizer_taylor_grad", "selection.select_reservoir"}


def test_tracer_targets_resolve_except_the_deleted_ones():
    missing = set()
    for module_name, qualname in load_bench_module("tracer").TARGETS:
        owner = importlib.import_module(f"coresel.{module_name}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{qualname}")
    assert missing == DELETED_TARGETS
