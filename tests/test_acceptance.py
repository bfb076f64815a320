"""Acceptance suite: one test per shipping criterion (A1..A12).

Each test prints a single `A<n> PASS` line with its elapsed time (run with
`pytest tests/test_acceptance.py -v -s` to see them) and asserts its own
runtime budget.  Statistical criteria run on fixed seeds, so outcomes are
reproducible.
"""

import datetime as dt
import itertools
import time

import numpy as np
import pytest
from oracles import (conv_reference, finite_difference_check, holdout_mse, naive_mse,
                     plan_columns, single_product_grid_optimum, topsis_reference)

from freshplan import autodiff as ad
from freshplan import cli, forecaster, gaopt, intervals as iv, layers, mcdm, pipeline
from freshplan.autodiff import Tensor
from freshplan.config import derive_seed
from freshplan.forecaster import ForecasterModel, ModelConfig
from freshplan.gaopt import GaConfig, PlanProblem
from freshplan.pipeline import fit_normalizer, make_windows
from freshplan.solarterms import TERM_CODES, encode_date_range


def _finish(tag: str, started: float, budget_s: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{tag} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
    print(f"{tag} PASS ({elapsed:.1f}s): {detail}")


def test_a01_term_encoding_exact():
    started = time.perf_counter()
    assert TERM_CODES[0].tolist() == [1, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert TERM_CODES[4].tolist() == [1, 0, 0, 0, 0, 0, 0, 0, 1, 0]
    assert TERM_CODES[23].tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 1]
    assert TERM_CODES.shape == (24, 10)
    vectors = set()
    for bits in TERM_CODES:
        assert set(bits.tolist()) <= {0.0, 1.0}
        assert bits[:4].sum() == 1 and bits[4:].sum() == 1
        vectors.add(tuple(bits))
    assert len(vectors) == 24
    _finish("A1", started, 1.0, "3 published vectors exact; 24 distinct two-hot codes")


def test_a02_entropy_weights_reproduce_published_values():
    started = time.perf_counter()
    e = np.array([0.957, 0.827])
    d = 1.0 - e
    w = d / d.sum()
    published = np.array([0.19888, 0.80112])
    gap = np.abs(w - published)
    # published weights stem from unrounded entropies; see notes on tolerance units
    assert np.all(gap <= 0.005), f"weight gap {gap} exceeds 0.005"
    assert w[0] == pytest.approx(0.043 / 0.216, abs=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    _finish("A2", started, 1.0,
            f"weights ({w[0]*100:.3f}%, {w[1]*100:.3f}%) vs published "
            f"(19.888%, 80.112%), gap {gap.max():.5f}")


def test_a03_gradient_oracle_on_micro_forecaster():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    model = ForecasterModel.create(
        pipeline.Normalizer(0.0, 1.0), "micro", seed=123,
        config=ModelConfig(channels=5, kernel=3, dilations=[1, 2]))
    history = rng.uniform(0.1, 0.9, 15)[None, :, None]
    terms = encode_date_range(dt.date(2023, 3, 1), 7)[None, :, :]
    target = rng.uniform(0.1, 0.9, 7)[None, :]

    def loss_fn():
        pred = model.forward(Tensor(history), Tensor(terms))
        return ad.mean((pred - Tensor(target)) ** 2)

    params = model.params()
    count = sum(t.data.size for t in params)
    worst = finite_difference_check(loss_fn, params, h=1e-4)
    assert worst < 1e-3, f"max relative gradient error {worst:.2e}"
    _finish("A3", started, 30.0,
            f"{count} parameters, max relative error {worst:.2e} < 1e-3")


def _random_conv_case(rng):
    T = int(rng.integers(1, 12))
    c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    K, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    return (rng.normal(size=(T, c_in)), rng.normal(size=(K, c_in, c_out)),
            rng.normal(size=c_out), d)


def test_a04_convolution_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(20240211)
    for _ in range(1000):
        x, kernel, bias, d = _random_conv_case(rng)
        got = layers.conv_forward(x[None], kernel, bias, d)[1][0]
        assert np.max(np.abs(got - conv_reference(x, kernel, bias, d))) < 1e-12
        # causality: disturbing strictly-future inputs never changes y[..t]
        T = x.shape[0]
        t = int(rng.integers(0, T))
        disturbed = x.copy()
        if t + 1 < T:
            disturbed[t + 1:] += rng.normal(size=disturbed[t + 1:].shape)
        assert np.array_equal(got[:t + 1],
                              layers.conv_forward(disturbed[None], kernel, bias, d)[1][0][:t + 1])
        # dilation 1 must match the causal form exactly
        d1 = layers.conv_forward(x[None], kernel, bias, 1)[1][0]
        assert np.max(np.abs(d1 - conv_reference(x, kernel, bias, 1))) < 1e-12
    _finish("A4", started, 10.0,
            "1000 random cases match brute force < 1e-12; causality and d=1 equivalence hold")


def test_a05_attention_contract():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(1000):
        t1, t2, f = int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
        x1 = rng.normal(size=(t1, f)) * rng.uniform(0.1, 10.0)
        x2 = rng.normal(size=(t2, f)) * rng.uniform(0.1, 10.0)
        keys = np.vstack([x1, x2])
        sim = keys @ x1[-1]
        ex = np.exp(sim - sim.max())
        alpha = ex / ex.sum()
        assert np.all(alpha >= 0.0)
        assert abs(alpha.sum() - 1.0) < 1e-9
        fused = layers.attention_forward(x1[None], x2[None])[3][0]
        assert np.all(fused >= keys.min(axis=0) - 1e-12)
        assert np.all(fused <= keys.max(axis=0) + 1e-12)
    _finish("A5", started, 5.0,
            "1000 random inputs: weights simplex-valid, output inside value envelope")


def test_a06_topsis_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(42)

    def run_pipeline(x):
        z = mcdm.normalize_criteria(x)
        weights = mcdm.entropy_weights(z)
        return weights.w, mcdm.topsis_scores(z, weights.w)

    for _ in range(500):
        n, m = int(rng.integers(2, 11)), int(rng.integers(1, 5))
        x = rng.uniform(-50, 50, size=(n, m))
        w, result = run_pipeline(x)
        w_ref, s_ref = topsis_reference(x.tolist())
        assert np.max(np.abs(np.asarray(w_ref) - w)) < 1e-9
        assert np.max(np.abs(np.asarray(s_ref) - result.scores)) < 1e-9

    # exhaustive sweep over {0, 0.5, 1} grids for every shape with n*m <= 9
    levels = (0.0, 0.5, 1.0)
    shapes = [(n, m) for n in range(2, 7) for m in range(1, 4) if n * m <= 9]
    swept = 0
    for n, m in shapes:
        for cells in itertools.product(levels, repeat=n * m):
            x = np.array(cells).reshape(n, m)
            _, result = run_pipeline(x)
            _, s_ref = topsis_reference(x.tolist())
            assert np.max(np.abs(np.asarray(s_ref) - result.scores)) < 1e-9
            swept += 1

    # dense random coverage of the 6x3 shape
    for _ in range(3000):
        x = rng.choice(levels, size=(6, 3))
        _, result = run_pipeline(x)
        _, s_ref = topsis_reference(x.tolist())
        assert np.max(np.abs(np.asarray(s_ref) - result.scores)) < 1e-9

    # ideal / anti-ideal rows pin the score range
    z = np.array([[1.0, 1.0, 1.0], [0.4, 0.2, 0.9], [0.0, 0.0, 0.0]])
    result = mcdm.topsis_scores(z, np.array([0.2, 0.3, 0.5]))
    assert result.scores[0] == pytest.approx(1.0)
    assert result.scores[2] == pytest.approx(0.0)

    # positive scaling of a raw column never changes the ranking
    for _ in range(50):
        x = rng.uniform(1.0, 100.0, size=(7, 3))
        _, before = run_pipeline(x)
        scaled = x.copy()
        scaled[:, int(rng.integers(0, 3))] *= rng.uniform(0.01, 100.0)
        _, after = run_pipeline(scaled)
        assert before.ranking == after.ranking
    _finish("A6", started, 60.0,
            f"500 random + {swept} exhaustive + 3000 dense 6x3 matrices match the oracle < 1e-9")


def test_a07_forecaster_beats_naive_baseline():
    started = time.perf_counter()
    costs, _, _ = pipeline.generate_synthetic(61, 730, seed=42)
    config = ModelConfig(channels=8, kernel=3, dilations=[1, 2])
    wins, improvements = 0, []
    for pid in sorted(costs):
        frame = costs[pid]
        window_count = len(frame) - 21
        cut = int(round(window_count * 0.8))
        normalizer = fit_normalizer(frame.values[:cut + 21])
        windows = make_windows(frame, normalizer=normalizer)
        train_w, val_w = windows[:cut], windows[cut:]
        model = ForecasterModel.create(normalizer, pid,
                                       seed=derive_seed(42, "a7", pid), config=config)
        forecaster.train(model, train_w, epochs=50, lr=1e-2,
                         seed=derive_seed(42, "a7-order", pid), batch_size=64)
        mse_model = holdout_mse(model, val_w)
        mse_naive = naive_mse(val_w, normalizer)
        improvement = 1.0 - mse_model / mse_naive
        improvements.append(improvement)
        wins += improvement >= 0.20
    assert wins >= 0.8 * len(costs), f"only {wins}/{len(costs)} products improved >= 20%"
    _finish("A7", started, 20 * 60,
            f"{wins}/61 products beat the naive baseline by >= 20% "
            f"(median improvement {np.median(improvements):+.0%})")


def test_a08_bootstrap_coverage():
    started = time.perf_counter()
    params = pipeline.SyntheticParams(sales_noise_fraction=0.03, price_noise_fraction=0.03)
    _, sales, _ = pipeline.generate_synthetic(17, 452, seed=42, params=params)
    cutoff, weeks = 430, 3
    bootstrap = iv.BootstrapConfig(replicas=25, min_fraction=0.5)
    config = ModelConfig(channels=8, kernel=3, dilations=[1])
    hits = trials = 0
    monotone_checked = 0
    for pid in sorted(sales):
        frame = sales[pid]
        ensemble = iv.bootstrap_train(frame.slice(0, cutoff), bootstrap, config,
                                      seed=derive_seed(42, "a8", pid))
        for week in range(weeks):
            t = cutoff + 7 * week
            history = frame.values[t - 15:t]
            terms = encode_date_range(frame.dates[t], 7)
            interval = iv.predict_interval(ensemble, history, terms, level=0.95)
            truth = float(frame.values[t:t + 7].sum())
            hits += interval.lower <= truth <= interval.upper
            trials += 1
            if week == 0:
                widths = []
                for level in (0.90, 0.95, 0.99):
                    at = iv.predict_interval(ensemble, history, terms, level=level)
                    widths.append(at.upper - at.lower)
                assert widths[0] <= widths[1] <= widths[2]
                monotone_checked += 1
    coverage = hits / trials
    assert trials >= 50
    assert 0.85 <= coverage <= 0.99, f"coverage {coverage:.1%} outside [85%, 99%]"
    _finish("A8", started, 20 * 60,
            f"95% interval covered {hits}/{trials} product-weeks ({coverage:.1%}); "
            f"level-monotonicity held for {monotone_checked} ensembles")


def _analytic_context():
    return plan_columns(("X", 2.0, 10.0 / 7.0, -1.0 / 7.0, 10.0 / 7.0, 0.0, 100.0))


def test_a09_ga_reaches_analytic_optimum():
    started = time.perf_counter()
    price, alloc, target = single_product_grid_optimum()
    assert (price, alloc) == (pytest.approx(6.0, abs=0.02), pytest.approx(4.0, abs=0.02))
    for seed in range(10):
        result = gaopt.evolve(PlanProblem(**_analytic_context()), GaConfig(pop=100, gens=200),
                              seed=seed)
        assert result.best_fitness >= 0.98 * target, \
            f"seed {seed}: {result.best_fitness:.3f} < 98% of {target:.3f}"
        peaks = result.trace[:, 0].tolist()
        assert all(b >= a for a, b in zip(peaks, peaks[1:])), f"seed {seed}: non-monotone trace"
    _finish("A9", started, 60.0,
            f"10/10 seeds within 2% of the grid optimum {target:.2f}; traces monotone")


def _instance_32(seed=1234):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(32):
        cost = rng.uniform(2.0, 8.0)
        intercept = rng.uniform(30.0, 120.0)
        slope = -rng.uniform(1.0, 6.0)
        mean_weekly = 7.0 * max(0.0, intercept + slope * cost * 1.6)
        lower = max(0.0, mean_weekly * rng.uniform(0.6, 0.9))
        upper = mean_weekly * rng.uniform(1.1, 1.5)
        rows.append((f"P{i:02d}", cost, intercept, slope, intercept + slope * cost * 1.6,
                     lower, upper))
    return plan_columns(*rows)


def test_a10_ga_beats_equal_budget_random_search():
    started = time.perf_counter()
    problem = PlanProblem(**_instance_32())
    wins = 0
    for seed in range(10):
        result = gaopt.evolve(problem, GaConfig(pop=100, gens=100), seed=seed)
        _, random_best = gaopt.random_search(problem, result.evaluations, seed=seed + 5000)
        wins += result.best_fitness >= random_best
    assert wins >= 9, f"GA won only {wins}/10 seeds"
    _finish("A10", started, 5 * 60, f"GA >= equal-budget random search on {wins}/10 seeds")


def test_a11_metrics():
    started = time.perf_counter()
    r = forecaster.evaluate([1.0, 2.0], [1.0, 2.0])
    assert (r.mse, r.mae, r.rmse) == (0.0, 0.0, 0.0)
    r = forecaster.evaluate([0.0, 0.0], [1.0, 1.0])
    assert (r.mse, r.mae, r.rmse) == (1.0, 1.0, 1.0)
    r = forecaster.evaluate([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert r.mse == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.mae == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r.rmse == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 30))
        y, y_hat = rng.normal(size=n), rng.normal(size=n)
        r = forecaster.evaluate(y, y_hat)
        assert r.rmse ** 2 == pytest.approx(r.mse, abs=1e-12)
    _finish("A11", started, 1.0, "hand-computed cases exact; rmse^2 == mse on 1000 random pairs")


A12_OVERRIDES = [
    "synth.products=10", "synth.days=130", "tcn.channels=6", "train.epochs=5",
    "bootstrap.replicas=3", "bootstrap.epochs=3", "bootstrap.channels=4",
    "topsis.top_k=6", "ga.pop=30", "ga.gens=40",
]


def test_a12_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    flags = [f for key in A12_OVERRIDES for f in ("--set", key)]
    for name in ("first", "second"):
        code = cli.run([*flags, "--seed", "42", "--out", str(tmp_path / name), "run-all"])
        assert code == 0
    artifacts = ["forecast.csv", "intervals.csv", "ranking.csv", "plan.csv", "ga_trace.csv"]
    for artifact in artifacts:
        first = (tmp_path / "first" / artifact).read_bytes()
        second = (tmp_path / "second" / artifact).read_bytes()
        assert first == second, f"{artifact} differs between identical runs"
    _finish("A12", started, 30 * 60,
            "run-all --seed 42 twice: all five artifacts byte-identical")
