"""The benchmark's definition.

The metric table (names, units, directions, bounds), the run length and the
workload names live in `BENCHMARK.json` at the repository root, which this
module reads; what each workload runs is configured here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))
RUN_SECONDS = _SPEC["run_seconds"]
# The program and every stage run with BLAS on one thread.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: the program runs `stages` once per iteration.

    The corpus has `days + 7` generated days; the program sees the first
    `days`, the last 7 are held-out truth.  `setup_stages` build upstream
    artifacts with `setup_overrides` before any timing starts.
    """

    name: str
    products: int
    days: int
    stages: tuple[str, ...]
    overrides: tuple[str, ...]
    setup_stages: tuple[str, ...] = ()
    setup_overrides: tuple[str, ...] = ()
    # Artifacts a timed iteration writes and must reproduce byte for byte.
    artifacts: tuple[str, ...] = ()
    # End-to-end quality metrics that apply; the others read 1.0.
    scored: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w for w in (
        # Training, at the deploy and the replica shape, takes most of an
        # iteration; the rest is process start-up, ranking and a short GA.
        # 48 products keep the held-out quality steady from seed to seed.
        Workload(
            name="market-week",
            products=48, days=60,
            stages=("forecast", "intervals", "rank", "optimize"),
            overrides=("train.epochs=10", "bootstrap.replicas=3", "bootstrap.epochs=10",
                       "topsis.top_k=16", "ga.gens=30"),
            artifacts=("forecast.csv", "loss_curves.csv", "intervals.csv",
                       "intervals_daily.csv", "ranking.csv", "demand.csv", "plan.csv",
                       "ga_trace.csv"),
            scored=("plan_profit", "forecast_mae", "interval_coverage"),
        ),
        # Replica slice lengths are drawn per replica; 12 of them keep the
        # work per iteration close to the same from seed to seed.
        Workload(
            name="deep-ensemble",
            products=1, days=365,
            stages=("intervals",),
            overrides=("bootstrap.replicas=12",),
            artifacts=("intervals.csv", "intervals_daily.csv"),
        ),
        Workload(
            name="ga-plan",
            products=61, days=60,
            stages=("optimize",),
            overrides=("topsis.top_k=32", "ga.gens=150"),
            setup_stages=("forecast", "intervals", "rank"),
            # Forecasts trained for 8 epochs: a less trained model can forecast
            # a non-positive unit cost, which optimize rejects (exit 1).
            setup_overrides=("train.epochs=8", "bootstrap.replicas=2", "bootstrap.epochs=1",
                             "bootstrap.channels=2"),
            artifacts=("demand.csv", "plan.csv", "ga_trace.csv"),
            scored=("plan_profit",),
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only


END_TO_END = [Metric(**m) for m in _SPEC["end_to_end"]]
PER_LAYER = [Metric(**m) for m in _SPEC["per_layer"]]
