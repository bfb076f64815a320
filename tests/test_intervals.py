import datetime as dt

import numpy as np
import pytest
import scipy.stats

from freshplan import intervals as iv, pipeline
from freshplan.errors import InputError
from freshplan.forecaster import ModelConfig
from freshplan.intervals import (
    bootstrap_train,
    normal_quantile,
    predict_interval,
    z_for_level,
)
from freshplan.pipeline import SeriesFrame
from freshplan.solarterms import encode_date_range

TINY = ModelConfig(channels=4, kernel_size=2, dilations=[1])


def sales_frame(days=120, seed=0):
    rng = np.random.default_rng(seed)
    dates = [dt.date(2023, 1, 1) + dt.timedelta(days=i) for i in range(days)]
    values = 40.0 + 6.0 * np.sin(np.arange(days) / 9.0) + rng.normal(0, 1.5, days)
    return SeriesFrame("S", dates, np.maximum(values, 0.0))


class TestNormalQuantile:
    @pytest.mark.parametrize("p", [1e-6, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 1 - 1e-6])
    def test_matches_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-8)

    def test_two_sided_level(self):
        assert z_for_level(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            normal_quantile(0.0)
        with pytest.raises(InputError):
            z_for_level(1.0)


class TestBootstrapTrain:
    def test_single_replica_covers_min_fraction(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, replicas=1, min_fraction=0.7, seed=1,
                              config=TINY, epochs=1)
        assert len(ens.models) == 1
        assert ens.slices[0].length >= int(np.ceil(0.7 * len(frame)))

    def test_deterministic_slices(self):
        frame = sales_frame()
        a = bootstrap_train(frame, replicas=5, min_fraction=0.7, seed=3, config=TINY, epochs=1)
        b = bootstrap_train(frame, replicas=5, min_fraction=0.7, seed=3, config=TINY, epochs=1)
        assert [(s.start, s.length) for s in a.slices] == [(s.start, s.length) for s in b.slices]

    def test_100_replicas_on_a_year_of_data(self):
        frame = sales_frame(days=365)
        ens = bootstrap_train(frame, replicas=100, min_fraction=0.7, seed=5,
                              config=TINY, epochs=0)
        n = len(frame)
        assert len(ens.models) == 100
        for s in ens.slices:
            assert 0 <= s.start and s.start + s.length <= n
            assert s.length >= int(np.ceil(0.7 * n))
        assert len({s.length for s in ens.slices}) > 1  # lengths actually vary
        # replica seeds differ, so the random inits differ
        heads = {ens.models[i].head.weights.data.tobytes() for i in (0, 1, 2, 50, 99)}
        assert len(heads) == 5

    def test_replica_depends_only_on_its_task(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, replicas=4, min_fraction=0.7, seed=3, config=TINY, epochs=1)
        tasks = iv.replica_tasks(frame, replicas=4, min_fraction=0.7, seed=3, config=TINY,
                                 epochs=1)
        for r in (3, 1):  # out of order, alone
            model, piece = iv.train_replica(tasks[r])
            assert (piece.start, piece.length) == (ens.slices[r].start, ens.slices[r].length)
            assert model.head.weights.data.tobytes() == \
                ens.models[r].head.weights.data.tobytes()

    def test_too_short_series_rejected(self):
        frame = sales_frame(days=30)
        with pytest.raises(InputError, match="too short"):
            bootstrap_train(frame.slice(0, 20), replicas=1, min_fraction=0.7,
                            config=TINY, epochs=1)


class TestPredictInterval:
    def make_inputs(self, frame):
        history = frame.values[-15:]
        terms = encode_date_range(frame.dates[-1] + dt.timedelta(days=1), 7)
        return history, terms

    def test_identical_replicas_zero_std(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, replicas=1, min_fraction=0.7, seed=7,
                              config=TINY, epochs=2)
        ens.models = ens.models * 3  # force identical members
        history, terms = self.make_inputs(frame)
        interval = predict_interval(ens, history, terms, level=0.95)
        assert interval.std == 0.0
        assert interval.lower == interval.mean == interval.upper

    def test_normal_quantile_arithmetic(self):
        z = z_for_level(0.95)
        lower, upper = 100.0 - z * 10.0, 100.0 + z * 10.0
        assert lower == pytest.approx(80.4, abs=0.01)
        assert upper == pytest.approx(119.6, abs=0.01)

    def test_lower_clamped_at_zero(self, monkeypatch):
        frame = sales_frame()
        ens = bootstrap_train(frame, replicas=3, min_fraction=0.7, seed=11,
                              config=TINY, epochs=0)
        # totals 0, 1, 14: mean 5, std ~6.4, so mean - z*std < 0 at 95%
        outputs = iter([np.zeros(7), np.full(7, 1 / 7.0), np.full(7, 2.0)])
        monkeypatch.setattr(iv.forecaster, "predict",
                            lambda m, h, t, *args: next(outputs))
        history, terms = self.make_inputs(frame)
        interval = predict_interval(ens, history, terms, level=0.95)
        assert interval.lower == 0.0
        assert interval.mean == pytest.approx(5.0)
        assert interval.lower <= interval.mean <= interval.upper

    def test_widens_with_level(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, replicas=6, min_fraction=0.7, seed=13,
                              config=TINY, epochs=3)
        history, terms = self.make_inputs(frame)
        widths = []
        for level in (0.90, 0.95, 0.99):
            interval = predict_interval(ens, history, terms, level=level)
            widths.append(interval.upper - interval.lower)
            assert interval.lower <= interval.mean <= interval.upper
        assert widths[0] <= widths[1] <= widths[2]

    def test_deterministic_end_to_end(self):
        frame = sales_frame()
        results = []
        for _ in range(2):
            ens = bootstrap_train(frame, replicas=3, min_fraction=0.7, seed=17,
                                  config=TINY, epochs=3)
            history, terms = self.make_inputs(frame)
            interval = predict_interval(ens, history, terms)
            results.append((interval.mean, interval.std, interval.lower, interval.upper))
        assert results[0] == results[1]

    def test_empty_ensemble_rejected(self):
        ens = iv.BootstrapEnsemble("S", [], [])
        with pytest.raises(InputError):
            predict_interval(ens, np.zeros(15), np.zeros((7, 10)))
