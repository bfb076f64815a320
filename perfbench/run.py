#!/usr/bin/env python3
"""freshplan benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload market-week --seed 1 --seconds 30 --trace 0

Run from the repository root.  With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it alternates untraced and traced iterations and
reports the per-layer metrics.  The last line of standard output is the result
as one JSON object; --record FILE also appends the full record (machine facts,
every sample) to FILE as one JSON line, which `perfbench/compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_ITERATIONS = 2  # byte-identity needs a second iteration; tracing needs one of each
SETUP_REPS, SETUP_MIN_S = 3, 1.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="append the full record to this file")
    return parser.parse_args(argv)


def run(args: argparse.Namespace, work: Path) -> dict:
    import harness  # imports freshplan, so only after the source tree is known to exist

    workload = spec.WORKLOADS[args.workload]
    work.mkdir(parents=True)
    # Fill the file cache with the interpreter and numpy before anything is timed.
    harness.run_process([sys.executable, "-c", "import freshplan.cli"], work / "warmup.log")

    # Set up several times and report the median; cheap set-ups repeat until
    # they have taken SETUP_MIN_S, so that their median is steady too.
    setup_wall, inputs = [], None
    while len(setup_wall) < SETUP_REPS or sum(setup_wall) < SETUP_MIN_S:
        if inputs is not None:
            shutil.rmtree(inputs.dir)
        started = time.perf_counter()
        inputs = harness.set_up(workload, args.seed, work / f"setup-{len(setup_wall)}")
        setup_wall.append(time.perf_counter() - started)

    done = []
    first_digests = None
    deadline = time.perf_counter() + args.seconds
    while True:
        out = work / f"iter-{len(done)}"
        started = time.perf_counter()
        it = harness.run_iteration(workload, args.seed, inputs, out,
                                   traced=bool(args.trace) and len(done) % 2 == 1)
        took = time.perf_counter() - started
        if first_digests is None:
            first_digests = it.digests
            quality = harness.quality(workload, out, inputs, scored=not it.failures)
        elif it.digests != first_digests:
            changed = sorted(k for k in first_digests if it.digests.get(k) != first_digests[k])
            it.failures.append(f"artifacts differ from the first iteration: {changed}")
        done.append(it)
        shutil.rmtree(out)
        if len(done) >= MIN_ITERATIONS and time.perf_counter() + took > deadline:
            break

    median = harness.median
    untraced = [it for it in done if not it.traced]
    plan_wall = [it.plan_s for it in untraced]
    if args.trace:
        metrics = {**quality, **harness.traced_metrics(workload, done)}
    else:
        metrics = {**quality, "plan_s": median(plan_wall), "setup_s": median(setup_wall),
                   "peak_rss_mb": median(it.rss_mb for it in untraced)}
    units = {m.name: m.unit for m in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    failed = sum(bool(it.failures) for it in done)
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": harness.machine_facts(),
        "setup_s_samples": setup_wall, "plan_s_samples": plan_wall,
        "stages": [it.stages for it in done],
        "failures": [f for it in done for f in it.failures],
        "untraced_targets": sorted({m for it in done for m in it.missing}),
        "quality": quality,
        "correct": failed == 0, "attempted": len(done), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_report(record: dict) -> None:
    facts = record["machine"]
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    wall = record["plan_s_samples"]
    print(f"workload {record['workload']} seed {record['seed']}: {record['attempted']} "
          f"iterations, failed_frac {record['failed'] / record['attempted']:.3f}; "
          f"{len(wall)} untraced plan samples, wall s min {min(wall):.3f} "
          f"median {statistics.median(wall):.3f} max {max(wall):.3f}")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    if record["untraced_targets"]:
        print("  not traced (no longer in freshplan): " + ", ".join(record["untraced_targets"]))
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "freshplan" / "cli.py").is_file():
        print(f"error: no freshplan source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(spec.BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        record = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print_report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
