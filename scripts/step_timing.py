#!/usr/bin/env python3
"""Median cost of one training step, split into forward, backward and Adam.

Times `ForecasterModel.forward` plus the MSE loss, `autodiff.backward` and
`Adam.step` at the shape of a bootstrap replica (8 channels, dilation 1) and
of the deployed forecaster (16 channels, dilations 1 and 2), each at batch 1
and 64, on random 15-day histories and term bits.  BLAS runs on one thread,
as in the benchmark.  Prints one row per shape and batch, in microseconds.

Usage: PYTHONPATH=src python scripts/step_timing.py [--repeats N]
"""

import argparse
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time  # noqa: E402

import numpy as np  # noqa: E402

from freshplan import autodiff as ad  # noqa: E402
from freshplan.forecaster import TERM_WIDTH, ForecasterModel, ModelConfig  # noqa: E402
from freshplan.intervals import BootstrapConfig  # noqa: E402
from freshplan.pipeline import HORIZON_DAYS, INPUT_DAYS, Normalizer  # noqa: E402

# The default shapes: a bootstrap replica and the deployed forecaster.
SHAPES = {
    "replica": BootstrapConfig().model(ModelConfig().kernel),
    "deploy": ModelConfig(),
}
BATCHES = (1, 64)
PHASES = ("forward", "backward", "adam", "step")


def time_steps(config: ModelConfig, batch: int, repeats: int) -> dict[str, float]:
    """Median microseconds of each phase over `repeats` steps, after as many
    untimed warm-up steps."""
    rng = np.random.default_rng(0)
    model = ForecasterModel.create(Normalizer(0.0, 1.0), "timing", 0, config)
    optimizer = ad.Adam(model.params(), lr=1e-3)
    history = ad.Tensor(rng.normal(size=(batch, INPUT_DAYS, 1)))
    terms = ad.Tensor(rng.integers(0, 2, size=(batch, HORIZON_DAYS, TERM_WIDTH)).astype(float))
    target = ad.Tensor(rng.normal(size=(batch, HORIZON_DAYS)))
    samples = {phase: [] for phase in PHASES}
    for i in range(2 * repeats):
        t0 = time.perf_counter()
        loss = ad.mean((model.forward(history, terms) - target) ** 2)
        t1 = time.perf_counter()
        ad.backward(loss)
        t2 = time.perf_counter()
        optimizer.step()
        t3 = time.perf_counter()
        if i >= repeats:
            for phase, seconds in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                samples[phase].append(seconds)
    return {phase: 1e6 * float(np.median(values)) for phase, values in samples.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=300,
                        help="timed steps per shape and batch (default 300)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    print(f"{'shape':<8} {'batch':>5} " + " ".join(f"{p + '_us':>11}" for p in PHASES))
    for name, config in SHAPES.items():
        for batch in BATCHES:
            medians = time_steps(config, batch, args.repeats)
            print(f"{name:<8} {batch:>5} " + " ".join(f"{medians[p]:>11.1f}" for p in PHASES))


if __name__ == "__main__":
    main()
