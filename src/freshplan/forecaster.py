"""Two-branch TCN with attention fusion, trained per product on cost windows.

One branch convolves the scaled 15-day cost history, the other the 7x10
solar-term bit matrix of the target week; attention fuses both into a single
feature row and an affine head emits the 7 scaled daily costs.  Training
minimizes MSE on scaled targets with Adam, in shuffled mini-batches of
`TrainConfig.batch_size` windows.  Both training stages run `fit_and_forecast`
on a `FitTask`: numbers out, no model.
"""

from __future__ import annotations

import datetime as dt
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers
from .autodiff import Adam, Tensor
from .errors import InputError, InvariantError
from .pipeline import (HORIZON_DAYS, INPUT_DAYS, Normalizer, SeriesFrame, Windows,
                       fit_normalizer, make_windows)
from .solarterms import TermBoundaryTable, encode_date_range

TERM_WIDTH = 10


@dataclass
class ModelConfig:
    """The model's shape, which is also the run config's `tcn.*` keys (their
    accepted values are in `config.RULES`); the replicas' shape is
    `intervals.BootstrapConfig.model`."""

    channels: int = 16
    kernel: int = 3
    dilations: list[int] = field(default_factory=lambda: [1, 2])


@dataclass
class TrainConfig:
    """Training settings, which are also the run config's `train.*` keys
    (their accepted values are in `config.RULES`)."""

    epochs: int = 100
    lr: float = 1e-3
    batch_size: int = 64  # 0 = full batch


@dataclass
class ForecasterModel:
    cost_branch: layers.TcnBranch
    term_branch: layers.TcnBranch
    head: layers.DenseLayer
    normalizer: Normalizer
    product_id: str

    def __post_init__(self):
        if self.cost_branch.out_width != self.term_branch.out_width:
            raise InputError("branches must share feature width")
        if self.head.weights.data.shape != (self.cost_branch.out_width, HORIZON_DAYS):
            raise InputError("head must map the branch feature width to the 7-day horizon")

    @classmethod
    def create(cls, normalizer: Normalizer, product_id: str, seed: int,
               config: ModelConfig | None = None) -> "ForecasterModel":
        config = config if config is not None else ModelConfig()
        rng = np.random.default_rng(seed)
        cost_branch = layers.TcnBranch.create(
            rng, 1, config.channels, config.kernel, config.dilations)
        term_branch = layers.TcnBranch.create(
            rng, TERM_WIDTH, config.channels, config.kernel, config.dilations)
        head = layers.DenseLayer.create(rng, config.channels, HORIZON_DAYS)
        return cls(cost_branch, term_branch, head, normalizer, product_id)

    def params(self) -> list[Tensor]:
        """The cost branch's, then the term branch's, then the head's weights and bias."""
        return self.cost_branch.params() + self.term_branch.params() + [
            self.head.weights, self.head.bias]

    def forward(self, history: Tensor, terms: Tensor) -> Tensor:
        """history [B, 15, 1] and terms [B, 7, 10] -> scaled predictions [B, 7]."""
        fused = layers.attention_fuse_graph(
            self.cost_branch.apply(history), self.term_branch.apply(terms))
        return self.head.apply(fused)

    def predict_scaled(self, histories: np.ndarray, term_matrices: np.ndarray) -> np.ndarray:
        """Batched forward pass on already-scaled inputs, no graph kept."""
        out = self.forward(Tensor(histories[:, :, None]), Tensor(term_matrices))
        return out.data


@dataclass
class TrainReport:
    final_loss: float
    loss_curve: list[float]
    train_s: float  # wall seconds in `train`
    steps: int  # Adam updates


def train(model: ForecasterModel, windows: Windows, epochs: int, lr: float, seed: int = 0,
          batch_size: int = 0) -> TrainReport:
    """Adam on MSE over scaled targets; one loss-curve entry per epoch.

    A `batch_size` of 0 or of at least the window count is full batch (each
    epoch is one update on the mean loss over all windows); any other size
    gives deterministic shuffled mini-batches, sliced from one copy of the
    windows gathered in each epoch's shuffled order."""
    if not windows:
        raise InputError("empty samples")
    started = time.perf_counter()
    n = len(windows)
    histories, terms, targets = windows.histories[:, :, None], windows.terms, windows.targets
    size = batch_size if 0 < batch_size < n else n
    optimizer = Adam(model.params(), lr=lr)
    rng = np.random.default_rng(seed)

    loss_curve: list[float] = []
    for _ in range(epochs):
        if size < n:
            order = rng.permutation(n)
            epoch_h, epoch_t, epoch_y = histories[order], terms[order], targets[order]
        else:
            epoch_h, epoch_t, epoch_y = histories, terms, targets
        epoch_loss = 0.0
        for i in range(0, n, size):
            h, t, y = (Tensor(a[i:i + size]) for a in (epoch_h, epoch_t, epoch_y))
            loss = ad.mean((model.forward(h, t) - y) ** 2)
            ad.backward(loss)
            optimizer.step()
            epoch_loss += float(loss.data) * len(y.data)
        loss_curve.append(epoch_loss / n)
        if not np.isfinite(loss_curve[-1]):
            raise InvariantError(f"{model.product_id}: training loss diverged")
    return TrainReport(final_loss=loss_curve[-1] if loss_curve else float("nan"),
                       loss_curve=loss_curve, train_s=time.perf_counter() - started,
                       steps=optimizer.t)


def predict(model: ForecasterModel, history, future_terms,
            input_days: int = INPUT_DAYS) -> np.ndarray:
    """Forecast 7 raw daily costs from the last `input_days` raw costs and the
    week's term bits."""
    history = np.asarray(history, dtype=np.float64)
    if history.shape != (input_days,):
        raise InputError(f"history must have length {input_days}, got shape {history.shape}")
    future_terms = np.asarray(future_terms, dtype=np.float64)
    if future_terms.shape != (HORIZON_DAYS, TERM_WIDTH):
        raise InputError(f"future_terms must be {HORIZON_DAYS}x{TERM_WIDTH}")
    scaled = model.normalizer.normalize(history)
    out = model.predict_scaled(scaled[None, :], future_terms[None, :, :])
    return model.normalizer.inverse(out[0])


@dataclass(frozen=True)
class FitTask:
    """One model to train on `series`, and the `predict` inputs of the week it
    forecasts; `len(history)` is also the window length trained on."""

    series: SeriesFrame
    table: TermBoundaryTable
    config: ModelConfig
    model_seed: int
    order_seed: int
    train: TrainConfig
    history: np.ndarray
    terms: np.ndarray


def next_week(frame: SeriesFrame, table: TermBoundaryTable,
              input_days: int = INPUT_DAYS) -> tuple[np.ndarray, np.ndarray]:
    """`history` and `terms` of the week after `frame` ends: its last
    `input_days` values and the term bits of the 7 days that follow."""
    first_day = frame.start + dt.timedelta(days=len(frame))
    return frame.values[-input_days:], encode_date_range(first_day, HORIZON_DAYS, table)


def fit(task: FitTask) -> tuple[ForecasterModel, TrainReport]:
    """Train a model on every window of `task.series`, scaled by a normalizer
    fit on the whole series."""
    series = task.series
    normalizer = fit_normalizer(series.values)
    windows = make_windows(series, task.table, len(task.history), HORIZON_DAYS, normalizer)
    model = ForecasterModel.create(normalizer, series.product_id, task.model_seed, task.config)
    report = train(model, windows, task.train.epochs, task.train.lr, seed=task.order_seed,
                   batch_size=task.train.batch_size)
    return model, report


def fit_and_forecast(task: FitTask) -> tuple[np.ndarray, TrainReport]:
    """`fit` the task, then its week's 7 raw forecasts and the training report."""
    model, report = fit(task)
    return predict(model, task.history, task.terms, len(task.history)), report


@dataclass
class MetricsReport:
    mse: float
    mae: float
    rmse: float


def evaluate(y, y_hat) -> MetricsReport:
    """MSE, MAE and RMSE of a prediction against the truth."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape or y.size == 0:
        raise InputError(f"length mismatch: {y.shape} vs {y_hat.shape}")
    err = y - y_hat
    mse = float(np.mean(err ** 2))
    return MetricsReport(mse=mse, mae=float(np.mean(np.abs(err))), rmse=float(np.sqrt(mse)))
