import dataclasses
import datetime as dt
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import finite_difference_check, topo_order_reference

from freshplan import autodiff as ad, forecaster, pipeline
from freshplan.config import RunConfig, load_config
from freshplan.errors import InputError
from freshplan.forecaster import (
    ForecasterModel,
    ModelConfig,
    TrainConfig,
    evaluate,
    predict,
    train,
)
from freshplan.intervals import BootstrapConfig
from freshplan.pipeline import Normalizer, SeriesFrame, fit_normalizer, make_windows

MICRO = ModelConfig(channels=4, kernel=2, dilations=[1])


def toy_frame(days=40, seed=0):
    rng = np.random.default_rng(seed)
    values = 5.0 + np.sin(np.arange(days) / 5.0) + 0.05 * rng.normal(size=days)
    return SeriesFrame("T", dt.date(2023, 3, 1), values)


def toy_model(frame, seed=0, config=MICRO):
    normalizer = fit_normalizer(frame.values)
    windows = make_windows(frame, normalizer=normalizer)
    model = ForecasterModel.create(normalizer, frame.product_id, seed, config)
    return model, windows


@pytest.mark.parametrize("fields,message", [
    ({"tcn.dilations": ""}, "tcn.dilations must be non-empty"),
    ({"tcn.channels": 0}, "tcn.channels must be >= 1"),
    ({"tcn.kernel": 0}, "tcn.kernel must be >= 1"),
    ({"bootstrap.channels": 0}, "bootstrap.channels must be >= 1"),
])
def test_bad_model_config_rejected(fields, message):
    """A bad model shape fails where the config enters, naming the key it came from."""
    with pytest.raises(InputError, match=message):
        load_config(None, [f"{key}={value}" for key, value in fields.items()])


@pytest.mark.parametrize("config_type,fields,message", [
    (BootstrapConfig, {"replicas": 0}, "bootstrap.replicas must be >= 1, got 0"),
    (BootstrapConfig, {"channels": 0}, "bootstrap.channels must be >= 1, got 0"),
    (TrainConfig, {"lr": 0}, "train.lr must be finite and > 0, got 0"),
    (TrainConfig, {"batch_size": -1},
     re.escape("train.batch_size must be >= 0 (0 = full batch), got -1")),
])
def test_bad_training_config_rejected(config_type, fields, message):
    """`fields` of the run config section that holds a `config_type`, set through
    `load_config`."""
    section = next(f.name for f in dataclasses.fields(RunConfig)
                   if f.type == config_type.__name__)
    with pytest.raises(InputError, match=message):
        load_config(None, [f"{section}.{name}={value}" for name, value in fields.items()])


class TestTrain:
    def test_memorizes_single_window(self):
        model, windows = toy_model(toy_frame())
        report = train(model, windows[:1], epochs=200, lr=1e-2, seed=0)
        assert report.final_loss < 1e-3
        assert len(report.loss_curve) == 200

    def test_deterministic_for_fixed_seed(self):
        frame = toy_frame()
        model_a, windows = toy_model(frame, seed=3)
        model_b, _ = toy_model(frame, seed=3)
        curve_a = train(model_a, windows, epochs=5, lr=1e-3, seed=9, batch_size=4).loss_curve
        curve_b = train(model_b, windows, epochs=5, lr=1e-3, seed=9, batch_size=4).loss_curve
        assert curve_a == curve_b

    def test_report_counts_adam_steps_and_seconds(self):
        model, windows = toy_model(toy_frame())
        report = train(model, windows, epochs=3, lr=1e-3, seed=0, batch_size=8)
        assert report.steps == 3 * -(-len(windows) // 8)
        assert report.train_s > 0
        assert train(model, windows, epochs=2, lr=1e-3, seed=0).steps == 2

    def test_zero_epochs_is_noop(self):
        model, windows = toy_model(toy_frame())
        before = [t.data.copy() for t in model.params()]
        report = train(model, windows, epochs=0, lr=1e-3, seed=0)
        assert report.loss_curve == []
        for tensor, orig in zip(model.params(), before):
            assert np.array_equal(tensor.data, orig)

    def test_empty_samples_rejected(self):
        model, _ = toy_model(toy_frame())
        with pytest.raises(InputError, match="empty samples"):
            train(model, [], epochs=1, lr=1e-3, seed=0)

    def test_unpickled_trained_model_predicts_same_bytes(self):
        frame = toy_frame()
        model, windows = toy_model(frame)
        train(model, windows, epochs=5, lr=1e-2, seed=0, batch_size=8)
        copy = pickle.loads(pickle.dumps(model))
        for ours, theirs in zip(model.params(), copy.params()):
            assert ours.data.tobytes() == theirs.data.tobytes()
        for k in (0, len(windows) - 1):
            assert predict(copy, frame.values[k:k + 15], windows.terms[k]).tobytes() == \
                   predict(model, frame.values[k:k + 15], windows.terms[k]).tobytes()

    def test_loss_finite_every_epoch(self):
        model, windows = toy_model(toy_frame())
        report = train(model, windows, epochs=30, lr=1e-2, seed=0, batch_size=8)
        assert all(np.isfinite(v) for v in report.loss_curve)


class TestPredict:
    def test_zeroed_head_returns_bias_inverse(self):
        frame = toy_frame()
        model, windows = toy_model(frame)
        model.head.weights.data[:] = 0.0
        model.head.bias.data[:] = 0.25
        out = predict(model, frame.values[:15], windows.terms[0])
        assert np.allclose(out, model.normalizer.inverse(0.25))

    def test_memorized_window_predicts_its_target(self):
        frame = toy_frame()
        model, windows = toy_model(frame)
        train(model, windows[:1], epochs=200, lr=1e-2, seed=0)
        raw_history = model.normalizer.inverse(windows.histories[0])
        raw_target = model.normalizer.inverse(windows.targets[0])
        out = predict(model, raw_history, windows.terms[0])
        assert np.max(np.abs(out - raw_target) / np.abs(raw_target)) < 0.02

    def test_output_length_seven(self):
        frame = toy_frame()
        model, windows = toy_model(frame)
        assert predict(model, frame.values[-15:], windows.terms[-1]).shape == (7,)

    def test_wrong_history_length_rejected(self):
        model, windows = toy_model(toy_frame())
        with pytest.raises(InputError):
            predict(model, np.ones(14), windows.terms[0])


class TestGradientOracle:
    def test_full_model_gradients_match_finite_differences(self):
        frame = toy_frame()
        model, windows = toy_model(frame, seed=123,
                                   config=ModelConfig(channels=5, kernel=3, dilations=[1, 2]))
        h = windows.histories[:1, :, None]
        t = windows.terms[:1]
        y = windows.targets[:1]

        def loss_fn():
            pred = model.forward(ad.Tensor(h), ad.Tensor(t))
            return ad.mean((pred - ad.Tensor(y)) ** 2)

        err = finite_difference_check(loss_fn, model.params())
        assert err < 1e-3


class TestEvaluate:
    def test_perfect_fit(self):
        r = evaluate([1.0, 2.0], [1.0, 2.0])
        assert (r.mse, r.mae, r.rmse) == (0.0, 0.0, 0.0)

    def test_unit_errors(self):
        r = evaluate([0.0, 0.0], [1.0, 1.0])
        assert (r.mse, r.mae, r.rmse) == (1.0, 1.0, 1.0)

    def test_hand_computed_case(self):
        r = evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
        assert r.mse == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert r.mae == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert r.rmse == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            evaluate([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
    def test_identities_on_random_pairs(self, y, seed):
        rng = np.random.default_rng(seed)
        y = np.asarray(y)
        y_hat = y + rng.normal(size=y.shape)
        r = evaluate(y, y_hat)
        assert r.rmse ** 2 == pytest.approx(r.mse, abs=1e-12)
        assert r.mae <= r.rmse + 1e-12
        assert min(r.mse, r.mae, r.rmse) >= 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=10)
        y_hat = rng.normal(size=10)
        perm = rng.permutation(10)
        a = evaluate(y, y_hat)
        b = evaluate(y[perm], y_hat[perm])
        assert a.mse == pytest.approx(b.mse, abs=1e-12)
        assert a.mae == pytest.approx(b.mae, abs=1e-12)
        assert a.rmse == pytest.approx(b.rmse, abs=1e-12)


def test_branch_width_mismatch_rejected():
    frame = toy_frame()
    normalizer = fit_normalizer(frame.values)
    model = ForecasterModel.create(normalizer, "T", 0, MICRO)
    bad_head = model.head
    bad_head.weights.data = np.zeros((3, 7))
    with pytest.raises(InputError):
        ForecasterModel(model.cost_branch, model.term_branch, bad_head, normalizer, "T")


def test_loss_graph_size_does_not_depend_on_kernel_size():
    def loss_nodes(kernel_size, dilations):
        config = ModelConfig(channels=4, kernel=kernel_size, dilations=dilations)
        model = ForecasterModel.create(Normalizer(0.0, 1.0), "G", 0, config)
        history = ad.Tensor(np.zeros((8, 15, 1)))
        terms = ad.Tensor(np.zeros((8, 7, forecaster.TERM_WIDTH)))
        loss = ad.mean((model.forward(history, terms) - ad.Tensor(np.zeros((8, 7)))) ** 2)
        return len(topo_order_reference(loss)), len(model.params())

    for dilations in ([1], [1, 2]):
        nodes, params = loss_nodes(3, dilations)
        assert loss_nodes(5, dilations) == (nodes, params)
        # One node per residual block in each branch, one attention node, one
        # dense head node, the loss (sub, pow, mean) and the leaves: parameters
        # plus history, terms and target.
        assert nodes == 2 * len(dilations) + 1 + 1 + 3 + params + 3


def test_step_timing_script_prints_every_shape_and_batch():
    repo = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "step_timing.py"),
                           "--repeats", "2"], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["shape", "batch", "forward_us", "backward_us", "adam_us",
                              "step_us"]
    assert [row.split()[:2] for row in rows] == [
        ["replica", "1"], ["replica", "64"], ["deploy", "1"], ["deploy", "64"]]
    for row in rows:
        assert all(float(value) > 0 for value in row.split()[2:])
