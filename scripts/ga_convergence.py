#!/usr/bin/env python3
"""Trace GA convergence on the single-product analytic instance.

Writes a generation/max/min/avg CSV (the data behind a convergence plot) and
prints how close the best individual gets to the brute-force grid optimum.

Usage: python scripts/ga_convergence.py [OUT_CSV] [SEED]
"""

import csv
import sys

import numpy as np

from freshplan import gaopt
from freshplan.gaopt import GaConfig, PlanProblem


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "ga_convergence.csv"
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0

    # weekly demand 10 - p at unit cost 2: optimum price 6, allocation 4, profit 16
    problem = PlanProblem(["demo"], unit_cost=[2.0], intercept=[10.0 / 7.0], slope=[-1.0 / 7.0],
                          mean_volume=[10.0 / 7.0], lower=[0.0], upper=[100.0])

    result = gaopt.evolve(problem, GaConfig(pop=100, gens=200), seed=seed)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["generation", "max", "min", "avg"])
        for gen, stats in enumerate(result.trace.tolist()):
            writer.writerow([gen, *(f"{v:.6f}" for v in stats)])

    price, alloc = result.best
    print(f"best: price={price:.3f} alloc={alloc:.3f} profit={result.best_fitness:.4f} "
          f"(grid optimum 16.0000, gap {100 * (1 - result.best_fitness / 16.0):.2f}%)")
    print(f"trace written to {out}")


if __name__ == "__main__":
    main()
