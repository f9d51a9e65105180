"""coresel benchmark: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload continual_scaled --seed 3 --seconds 20 --trace 0

Runs from the root of a source checkout (``src/coresel`` and ``configs/``
must be there; nothing needs installing). Each op starts only after the
previous one ends. ``--trace 0`` times ops for ``--seconds`` and reports
the end-to-end metrics, with every timing in reference seconds (see
``speed.py``); ``--trace 1`` runs the workload's fixed trace
schedule plain, under the tracer, and plain again, and reports the
per-layer metrics. Every op's output is checked (see ``workloads.py``). The last
stdout line is the result object; the lines before it give the
environment, the op count, ``fail_ratio`` and, where at least 100 ops ran,
``op_p90_ms``. See ``perfbench/README.md``.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
P90_MIN_OPS = 100
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_to_one_cpu() -> dict:
    """Run on one CPU with single-threaded BLAS; call before numpy loads.

    Every op is Python-bound (CPU time equals wall time even with a BLAS
    pool of two), and on a shared machine a second BLAS thread or a
    migration between CPUs only adds spin-wait and cache noise.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return {"blas_threads": 1, "cpu_affinity": cpus[-1], "nproc": len(cpus)}


def environment(pinning: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "cpu": cpu, **pinning}


def load_reference(name: str, seed: int):
    path = HERE / "reference" / f"{name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))


def run_ops(workload, keys, deadline=None) -> list:
    """Run ops in order; with a deadline, cycle the keys until it passes.

    Returns ``[key, (start, end), output, failure]`` records, with the op's
    ``perf_counter`` span; an op that raises is recorded with its exception
    as the failure and the loop goes on.
    """
    records = []
    for key in (itertools.cycle(keys) if deadline is not None else keys):
        start = time.perf_counter()
        try:
            result = workload.op(key)
        except Exception as exc:
            span = (start, time.perf_counter())
            records.append([key, span, None, f"{type(exc).__name__}: {exc}"])
        else:
            span = (start, time.perf_counter())
            try:
                records.append([key, span, workload.collect(key, result), None])
            except Exception as exc:
                records.append([key, span, None, f"collect: {type(exc).__name__}: {exc}"])
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return records


def verify(workload, records, reference) -> None:
    """Fill each record's failure: invariants, the reference, and determinism
    (an op repeated in one process must give the same output)."""
    first = {}
    for record in records:
        key, _, out, failure = record
        if failure is not None:
            continue
        ref = workload.expected(reference, key) if reference is not None else None
        failure = workload.check(key, out, ref)
        if failure is None and first.setdefault(key, out) != out:
            failure = "output differs from an earlier run of the same op"
        record[3] = failure
    extra = workload.check_all(records)
    for record in records:
        if record[3] is None and record[0] in extra:
            record[3] = extra[record[0]]


def measure_setup(args) -> tuple:
    """Median time of fresh processes that start, import and build inputs,
    in reference seconds and in wall seconds."""
    from speed import SpeedMeter

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    spans = []
    with SpeedMeter() as meter:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            subprocess.run(cmd, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                           stdout=subprocess.DEVNULL)
            spans.append((start, time.perf_counter()))
    return (statistics.median(meter.scale(*span) for span in spans),
            statistics.median(end - start for start, end in spans))


def end_to_end(workload, seconds, setup) -> tuple:
    """Time ops for ``seconds``; every timing is given in reference seconds
    (see ``speed.py``), and the wall-time figures are printed beside them."""
    from speed import SpeedMeter

    with SpeedMeter() as meter:
        start = time.perf_counter()
        records = run_ops(workload, workload.keys(), start + seconds)
        end = time.perf_counter()
    latencies_ms = [meter.scale(*r[1]) * 1e3 for r in records]
    wall_ms = [(r[1][1] - r[1][0]) * 1e3 for r in records]
    setup_s, setup_wall_s = setup
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(records) / meter.scale(start, end), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(latencies_ms), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    notes = [f"ops: {len(records)} in {end - start:.3f} s wall",
             f"wall: setup_s {setup_wall_s:.4f}, ops_per_s {len(records) / (end - start):.4f}, "
             f"op_p50_ms {statistics.median(wall_ms):.4f}; mean slowdown "
             f"{meter.slowdown(start, end):.3f} over {len(meter.factors)} probes"]
    if len(records) >= P90_MIN_OPS:
        p90 = statistics.quantiles(latencies_ms, n=10)[-1]
        notes.append(f"op_p90_ms: {p90!r} ms over {len(records)} ops")
    return records, metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_per_call", "_per_loo", "_ratio")):
        return "ratio"
    return "count"


def per_layer(workload) -> tuple:
    from tracer import Tracer

    keys = workload.trace_keys()
    tracer = Tracer()
    records, walls = [], []
    # plain, traced, plain: comparing the traced pass with the mean of the
    # plain passes around it cancels a steady drift in machine speed
    for traced in (False, True, False):
        start = time.perf_counter()
        if traced:
            with tracer:
                records += run_ops(workload, keys)
        else:
            records += run_ops(workload, keys)
        walls.append(time.perf_counter() - start)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = walls[1] / statistics.mean(walls[0::2])
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    notes = [f"trace: {len(keys)} ops per pass, plain/traced/plain walls "
             f"{', '.join(f'{w:.3f}' for w in walls)} s"]
    notes += [f"trace: {name} not found; its metrics read 0" for name in tracer.missing]
    notes += [f"trace: {name} unreadable; it reads 0" for name in sorted(tracer.unreadable)]
    return records, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("continual_scaled", "select_pool", "loo_oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/coresel/__init__.py", "configs/example_run.cfg")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a coresel checkout, missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    pinning = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    work_dir = HERE / ".work" / str(os.getpid())
    workload = WORKLOADS[args.workload](args.seed, ROOT, work_dir)
    if args.setup_only:
        workload.setup()
        return 0
    try:
        if args.trace:
            workload.setup()
            records, metrics, notes = per_layer(workload)
        else:
            setup = measure_setup(args)
            workload.setup()
            records, metrics, notes = end_to_end(workload, args.seconds, setup)
        reference = load_reference(args.workload, args.seed)
        verify(workload, records, reference)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures = [r for r in records if r[3] is not None]
    print(f"env: {json.dumps(environment(pinning), sort_keys=True)}")
    for note in notes:
        print(note)
    print(f"reference: {'recorded' if reference is not None else 'none'} for seed {args.seed}")
    print(f"fail_ratio: {len(failures) / len(records)!r} ({len(failures)}/{len(records)} ops)")
    for key, _, _, failure in failures[:5]:
        print(f"failed op {key}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
