"""Bootstrap ensemble intervals on next-week sales volume.

Many independent forecasters are trained, each on a contiguous random slice of
the sales series; a normal distribution fit to their 7-day totals yields the
confidence interval.  The interval target is the weekly total because that is
what the downstream allocation constraint binds; per-day statistics are kept
as auxiliary output.

A `BootstrapConfig` (the run config's `bootstrap.*` keys) sets the ensemble
up; `replica_tasks` draws each replica's slice and seeds from
`SeedSequence([seed, 577, r])` into one `forecaster.FitTask` per replica.
A replica depends on nothing but its task, so any map over the tasks gives the
same results: `bootstrap_train` fits them in turn and keeps the models, and the
CLI maps `forecaster.fit_and_forecast` over every product's tasks in a process
pool and gets back 7 numbers per replica.  `fit_interval` turns the
`[replicas, 7]` matrix of those forecasts into the interval, with the one
normal fit (`normal_fit`) that also gives the per-day statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forecaster
from .errors import InputError
from .forecaster import FitTask, ForecasterModel, ModelConfig, TrainConfig
from .pipeline import HORIZON_DAYS, INPUT_DAYS, SeriesFrame
from .solarterms import TermBoundaryTable


def z_for_level(level: float) -> float:
    """Two-sided z multiplier for a central confidence level in (0, 1): the
    inverse standard normal CDF at (1 + level) / 2."""
    # Imported here: `statistics` adds ~3 ms to the start of every CLI stage,
    # and only the intervals stage needs it.
    from statistics import NormalDist

    if not 0.0 < level < 1.0:
        raise InputError(f"confidence level must be in (0, 1), got {level}")
    return NormalDist().inv_cdf(0.5 * (1.0 + level))


@dataclass
class SalesInterval:
    mean: float
    std: float
    lower: float
    upper: float
    daily: np.ndarray = field(repr=False, compare=False)  # per-replica, [replicas, 7]


@dataclass
class BootstrapEnsemble:
    models: list[ForecasterModel]


@dataclass
class BootstrapConfig:
    """The ensemble's settings, which are also the run config's `bootstrap.*`
    keys (their accepted values are in `config.RULES`).  The replicas are
    reduced-capacity base learners, as interval quality rests on ensemble
    diversity, not on per-replica depth."""

    replicas: int = 100
    min_fraction: float = 0.7
    level: float = 0.95
    channels: int = 8
    dilations: list[int] = field(default_factory=lambda: [1])
    epochs: int = 30
    lr: float = 1e-2

    def model(self, kernel: int) -> ModelConfig:
        """The replicas' model: these channels and dilations with `kernel`."""
        return ModelConfig(self.channels, kernel, list(self.dilations))


def replica_tasks(sales: SeriesFrame, config: BootstrapConfig, model: ModelConfig, seed: int = 0,
                  table: TermBoundaryTable | None = None) -> list[FitTask]:
    """One `model` task per replica, each training on a contiguous random slice
    covering at least `config.min_fraction` of the series and forecasting the
    week after the whole series.  Replica r draws its slice length, slice
    start, model seed and order seed, in that order, from (seed, r)."""
    n = len(sales)
    min_len = max(int(math.ceil(config.min_fraction * n)), INPUT_DAYS + HORIZON_DAYS)
    if min_len > n:
        raise InputError(f"series too short: {n} days cannot fit a "
                         f"{INPUT_DAYS + HORIZON_DAYS}-day training slice")
    table = table if table is not None else TermBoundaryTable()
    train = TrainConfig(config.epochs, config.lr)
    history, terms = forecaster.next_week(sales, table)
    tasks = []
    for r in range(config.replicas):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 577, r]))
        length = int(rng.integers(min_len, n + 1))
        start = int(rng.integers(0, n - length + 1))
        model_seed = int(rng.integers(0, 2**31))
        order_seed = int(rng.integers(0, 2**31))
        tasks.append(FitTask(sales.slice(start, start + length), table, model, model_seed,
                             order_seed, train, history, terms))
    return tasks


def bootstrap_train(sales: SeriesFrame, config: BootstrapConfig, model: ModelConfig,
                    seed: int = 0, table: TermBoundaryTable | None = None) -> BootstrapEnsemble:
    """The fitted models of `replica_tasks`, in replica order."""
    tasks = replica_tasks(sales, config, model, seed, table)
    return BootstrapEnsemble([forecaster.fit(task)[0] for task in tasks])


def normal_fit(samples: np.ndarray, z: float) -> tuple[float, float, float, float]:
    """Mean, std and the bounds mean -/+ z * std of a normal fit to `samples`;
    the lower bound is clamped at zero, as sales cannot be negative."""
    mean = float(samples.mean())
    std = float(samples.std())
    return mean, std, max(0.0, mean - z * std), mean + z * std


def fit_interval(daily: np.ndarray, level: float = 0.95) -> SalesInterval:
    """Normal-fit interval over the replicas' 7-day total sales, from their
    `[replicas, 7]` daily predictions.

    Daily predictions are clamped at zero (sales volumes cannot be negative),
    so mean >= 0 and the lower bound never exceeds the mean.
    """
    if len(daily) == 0:
        raise InputError("empty ensemble")
    daily = np.maximum(daily, 0.0)
    mean, std, lower, upper = normal_fit(daily.sum(axis=1), z_for_level(level))
    return SalesInterval(mean=mean, std=std, lower=lower, upper=upper, daily=daily)


def predict_interval(ensemble: BootstrapEnsemble, history, future_terms,
                     level: float = 0.95) -> SalesInterval:
    """`fit_interval` over the ensemble's forecasts from `history` and `future_terms`."""
    daily = [forecaster.predict(m, history, future_terms) for m in ensemble.models]
    return fit_interval(np.reshape(daily, (-1, HORIZON_DAYS)), level)
