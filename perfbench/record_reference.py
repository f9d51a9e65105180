"""Record the reference outputs the benchmark checks ops against.

    python3 perfbench/record_reference.py --workload select_pool

Runs each workload's reference ops once for workload seeds ``0..REFERENCE_SEEDS-1``,
checks them with the same invariants the benchmark applies, and writes
``perfbench/reference/<workload>.json``. Run it only at a commit whose
outputs are known good: the benchmark counts every later difference
(kept ids exactly, floats within the tolerances in ``workloads.py``) as a
failed op.
"""

import argparse
import json
import shutil
import sys

import run

REFERENCE_SEEDS = 32


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("continual_scaled", "select_pool", "loo_oracle"))
    args = parser.parse_args(argv)
    run.pin_to_one_cpu()
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import WORKLOADS

    work_dir = run.HERE / ".work" / f"record-{args.workload}"
    seeds = {}
    try:
        for seed in range(REFERENCE_SEEDS):
            workload = WORKLOADS[args.workload](seed, run.ROOT, work_dir)
            workload.setup()
            records = run.run_ops(workload, workload.keys())
            run.verify(workload, records, None)
            failures = [(key, failure) for key, _, _, failure in records if failure]
            if failures:
                print(f"seed {seed}: {len(failures)} failed ops, first {failures[0]}",
                      file=sys.stderr)
                return 1
            seeds[str(seed)] = workload.to_reference({key: out for key, _, out, _ in records})
            print(f"seed {seed}: {len(records)} ops recorded", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = run.HERE / "reference" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": seeds},
                              separators=(",", ":")) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
