"""Bootstrap ensemble intervals on next-week sales volume.

Many independent forecasters are trained, each on a contiguous random slice of
the sales series; a normal distribution fit to their 7-day totals yields the
confidence interval.  The interval target is the weekly total because that is
what the downstream allocation constraint binds; per-day statistics are kept
as auxiliary output.

Training is split into `replica_tasks`, which checks the inputs and lists one
`ReplicaTask` per replica, and `train_replica`, which draws that replica's
slice and seeds from `SeedSequence([seed, 577, r])` alone and trains it.  A
replica therefore depends on nothing but its task, so any map over the tasks
gives the same models: `bootstrap_train` uses the builtin `map`, and the CLI
maps `train_replica` over every product's tasks in a process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import forecaster
from .errors import InputError
from .forecaster import ForecasterModel, ModelConfig
from .pipeline import HORIZON_DAYS, INPUT_DAYS, SeriesFrame, fit_normalizer, make_windows
from .solarterms import TermBoundaryTable


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF via a rational approximation, refined with
    one Halley step to full double precision."""
    if not 0.0 < p < 1.0:
        raise InputError(f"quantile probability must be in (0, 1), got {p}")
    # Rational approximation in three regions (peak error ~1.2e-9).
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    # Halley refinement against the exact CDF.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


def z_for_level(level: float) -> float:
    """Two-sided z multiplier for a central confidence level in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise InputError(f"confidence level must be in (0, 1), got {level}")
    return normal_quantile(0.5 * (1.0 + level))


@dataclass
class SalesInterval:
    product_id: str
    mean: float
    std: float
    lower: float
    upper: float
    level: float
    # Per-replica daily predictions, [replicas, 7]; None when read back from CSV.
    daily: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass
class ReplicaSlice:
    start: int
    length: int


@dataclass
class BootstrapEnsemble:
    product_id: str
    models: list[ForecasterModel]
    slices: list[ReplicaSlice]
    input_days: int = INPUT_DAYS


# Reduced-capacity default base learner: interval quality rests on ensemble
# diversity, not on per-replica depth.
REPLICA_CONFIG = ModelConfig(channels=8, dilations=[1])
REPLICA_EPOCHS = 30


@dataclass(frozen=True)
class ReplicaTask:
    """Everything `train_replica` needs to train replica `replica` of `sales`."""

    sales: SeriesFrame
    replica: int
    min_len: int
    seed: int
    table: TermBoundaryTable
    config: ModelConfig
    epochs: int
    lr: float
    batch_size: int | None
    input_days: int


def replica_tasks(
    sales: SeriesFrame,
    replicas: int = 100,
    min_fraction: float = 0.7,
    seed: int = 0,
    table: TermBoundaryTable | None = None,
    config: ModelConfig | None = None,
    epochs: int = REPLICA_EPOCHS,
    lr: float = 1e-2,
    batch_size: int | None = 64,
    input_days: int = INPUT_DAYS,
) -> list[ReplicaTask]:
    """One task per replica, each training on a contiguous random slice
    covering at least `min_fraction` of the series."""
    if replicas < 1:
        raise InputError(f"replicas must be >= 1, got {replicas}")
    if not 0.0 < min_fraction <= 1.0:
        raise InputError(f"min_fraction must be in (0, 1], got {min_fraction}")
    n = len(sales)
    min_len = max(int(math.ceil(min_fraction * n)), input_days + HORIZON_DAYS)
    if min_len > n:
        raise InputError(f"series too short: {n} days cannot fit a "
                         f"{input_days + HORIZON_DAYS}-day training slice")
    table = table if table is not None else TermBoundaryTable()
    config = config if config is not None else REPLICA_CONFIG
    return [ReplicaTask(sales, r, min_len, seed, table, config, epochs, lr, batch_size,
                        input_days) for r in range(replicas)]


def train_replica(task: ReplicaTask) -> tuple[ForecasterModel, ReplicaSlice]:
    """Draw the replica's slice length, slice start, model seed and order seed,
    in that order, from (seed, r), and train the replica on that slice."""
    n = len(task.sales)
    rng = np.random.default_rng(np.random.SeedSequence([task.seed, 577, task.replica]))
    length = int(rng.integers(task.min_len, n + 1))
    start = int(rng.integers(0, n - length + 1))
    piece = task.sales.slice(start, start + length)
    normalizer = fit_normalizer(piece.values)
    windows = make_windows(piece, task.table, input_days=task.input_days, normalizer=normalizer)
    model = ForecasterModel.create(normalizer, task.sales.product_id,
                                   seed=int(rng.integers(0, 2**31)), config=task.config)
    forecaster.train(model, windows, epochs=task.epochs, lr=task.lr,
                     seed=int(rng.integers(0, 2**31)), batch_size=task.batch_size)
    return model, ReplicaSlice(start=start, length=length)


def bootstrap_train(
    sales: SeriesFrame,
    replicas: int = 100,
    min_fraction: float = 0.7,
    seed: int = 0,
    table: TermBoundaryTable | None = None,
    config: ModelConfig | None = None,
    epochs: int = REPLICA_EPOCHS,
    lr: float = 1e-2,
    batch_size: int | None = 64,
    input_days: int = INPUT_DAYS,
) -> BootstrapEnsemble:
    """Train `replicas` forecasters, each on a contiguous random slice covering
    at least `min_fraction` of the series.  Replica seeds derive from (seed, r).
    """
    tasks = replica_tasks(sales, replicas, min_fraction, seed, table, config, epochs, lr,
                          batch_size, input_days)
    return ensemble_of(sales.product_id, list(map(train_replica, tasks)), input_days)


def ensemble_of(product_id: str, trained: list[tuple[ForecasterModel, ReplicaSlice]],
                input_days: int = INPUT_DAYS) -> BootstrapEnsemble:
    """The ensemble of one product's `train_replica` results, in replica order."""
    return BootstrapEnsemble(product_id, [model for model, _ in trained],
                             [piece for _, piece in trained], input_days=input_days)


def predict_interval(
    ensemble: BootstrapEnsemble,
    history,
    future_terms,
    level: float = 0.95,
) -> SalesInterval:
    """Normal-fit interval over the replicas' 7-day total sales predictions.

    Daily predictions are clamped at zero (sales volumes cannot be negative),
    so mean >= 0 and the lower bound never exceeds the mean.
    """
    if not ensemble.models:
        raise InputError("empty ensemble")
    z = z_for_level(level)
    daily = np.stack([
        np.maximum(forecaster.predict(m, history, future_terms, ensemble.input_days), 0.0)
        for m in ensemble.models])
    totals = daily.sum(axis=1)
    mean = float(totals.mean())
    std = float(totals.std())
    return SalesInterval(
        product_id=ensemble.product_id,
        mean=mean,
        std=std,
        lower=max(0.0, mean - z * std),
        upper=mean + z * std,
        level=level,
        daily=daily,
    )
