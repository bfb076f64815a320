#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    # run N alternating-order pairs, one seed per pair, in two checkouts
    python3 perfbench/compare.py run --base ../parent --change . --pairs 10 --out cmp/
    # report medians, quartiles, pair wins and a verdict per workload and metric
    python3 perfbench/compare.py report cmp/base.jsonl cmp/change.jsonl

Records are the JSON lines `run.py --record` writes.  Pair i runs every
workload at seed i + 1 on both sides, for the run length BENCHMARK.json fixes.
Two records form a pair when they share workload and seed.  The verdict follows
the rules for a small shared machine: "improved" needs the change to win at
least 9 in 10 pairs and the medians to differ by more than the base's own
quartile spread; "worse" means the change's median is worse than the base's
by more than the metric's bound; "unresolved" means the base's own spread
exceeds the bound and not every change run beats every base run; anything
else is "unchanged".

The quality scores are deterministic at a seed but differ from seed to seed,
so the end-to-end ones are judged on the change's ratio to the base on each
seed: the base reads 1 on every seed and its spread is 0.  The report also
lists every quality score, per-layer ones included, that differs on some seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

WIN_SHARE = 0.9
# End-to-end metrics that are deterministic at a seed.
PER_SEED = {"plan_profit", "forecast_mae", "interval_coverage"}


def load(path: Path) -> dict[tuple[str, int], dict]:
    records = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"] == 0:
                records[record["workload"], record["seed"]] = record
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: spec.Metric, base: list[float], change: list[float],
            pairs: list[tuple[float, float]]) -> dict:
    sign = 1.0 if metric.better == "lower" else -1.0  # sign * (x - y) > 0: x is worse
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    change_wins = sum(sign * (b - c) > 0 for b, c in pairs)
    base_wins = sum(sign * (c - b) > 0 for b, c in pairs)
    worse_by = sign * (c2 - b2) / abs(b2) if b2 else 0.0
    all_better = all(sign * (b - c) > 0 for b in base for c in change)
    if (pairs and change_wins >= WIN_SHARE * len(pairs) and sign * (b2 - c2) > b3 - b1):
        result = "improved"
    elif worse_by > metric.bound:
        result = "worse"
    elif b2 and (b3 - b1) / abs(b2) > metric.bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"base": (b1, b2, b3), "change": (c1, c2, c3), "pairs": len(pairs),
            "base_wins": base_wins / len(pairs) if pairs else 0.0,
            "change_wins": change_wins / len(pairs) if pairs else 0.0,
            "worse_by": worse_by, "verdict": result}


def report(base_path: Path, change_path: Path) -> list[dict]:
    base, change = load(base_path), load(change_path)
    rows = []
    for workload in spec.WORKLOADS:
        keys = sorted(k for k in base.keys() & change.keys() if k[0] == workload)
        if not keys:
            continue
        for metric in spec.END_TO_END:
            pairs = [(base[k]["metrics"][metric.name]["value"],
                      change[k]["metrics"][metric.name]["value"]) for k in keys]
            unit = metric.unit
            if metric.name in PER_SEED:
                pairs = [(1.0, c / b) for b, c in pairs if b]  # 0 only if the run failed
                unit = "ratio to base at the seed"
            if not pairs:
                continue
            rows.append({"workload": workload, "metric": metric.name, "unit": unit,
                         **verdict(metric, [b for b, _ in pairs], [c for _, c in pairs], pairs)})
    return rows


def failures(base_path: Path, change_path: Path) -> list[str]:
    """Failed over attempted iterations per workload and side; a gain does not
    count when more iterations fail than at the base."""
    lines = []
    for workload in spec.WORKLOADS:
        counts = [(sum(r["failed"] for k, r in side.items() if k[0] == workload),
                   sum(r["attempted"] for k, r in side.items() if k[0] == workload))
                  for side in (load(base_path), load(change_path))]
        if counts[0][1] or counts[1][1]:
            lines.append(f"{workload:<14}failed iterations: base {counts[0][0]}/{counts[0][1]}, "
                         f"change {counts[1][0]}/{counts[1][1]}")
    return lines


def quality_changes(base_path: Path, change_path: Path) -> list[str]:
    """One line per workload and quality score that differs on some seed."""
    base, change = load(base_path), load(change_path)
    lines = []
    for workload in spec.WORKLOADS:
        keys = sorted(k for k in base.keys() & change.keys() if k[0] == workload)
        for name in base[keys[0]]["quality"] if keys else ():
            diffs = [abs(change[k]["quality"][name] - base[k]["quality"][name])
                     / (abs(base[k]["quality"][name]) or 1.0) for k in keys]
            changed = sum(d > 0 for d in diffs)
            if changed:
                lines.append(f"{workload:<14}{name:<26} differs on {changed}/{len(keys)} seeds, "
                             f"by up to {max(diffs):.2e} of the base value")
    return lines


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':<14}{'metric':<19}{'base q1/med/q3':>30}{'change q1/med/q3':>30}"
          f"{'wins b/c':>12}{'worse by':>10}  verdict")
    for r in rows:
        fmt = "/".join(f"{v:.4g}" for v in r["base"]), "/".join(f"{v:.4g}" for v in r["change"])
        print(f"{r['workload']:<14}{r['metric']:<19}{fmt[0]:>30}{fmt[1]:>30}"
              f"{r['base_wins']:>6.0%}/{r['change_wins']:<5.0%}{r['worse_by']:>+10.1%}  "
              f"{r['verdict']} ({r['pairs']} pairs, {r['unit']})")


def run_pairs(base_dir: Path, change_dir: Path, out: Path, pairs: int) -> None:
    """Alternate which side runs first; pair i uses seed i + 1."""
    out.mkdir(parents=True, exist_ok=True)
    sides = [("base", base_dir.resolve()), ("change", change_dir.resolve())]
    for i in range(pairs):
        for workload in spec.WORKLOADS:
            for name, checkout in (sides if i % 2 == 0 else sides[::-1]):
                cmd = [sys.executable, str(checkout / "perfbench" / "run.py"),
                       "--workload", workload, "--seed", str(i + 1), "--trace", "0",
                       "--record", str((out / f"{name}.jsonl").resolve())]
                subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
                print(f"pair {i} {workload} {name} done", flush=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="compare two commits' benchmark results")
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser("report")
    rep.add_argument("base", type=Path)
    rep.add_argument("change", type=Path)
    runp = sub.add_parser("run")
    runp.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    runp.add_argument("--change", type=Path, required=True, help="checkout of the change")
    runp.add_argument("--out", type=Path, required=True)
    runp.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.command == "run":
        run_pairs(args.base, args.change, args.out, args.pairs)
        args.base, args.change = args.out / "base.jsonl", args.out / "change.jsonl"
    print_rows(report(args.base, args.change))
    print("\n".join(failures(args.base, args.change)))
    print("\n".join(quality_changes(args.base, args.change))
          or "quality scores identical on every seed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
