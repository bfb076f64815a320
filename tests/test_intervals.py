import datetime as dt

import numpy as np
import pytest
import scipy.stats

from freshplan import forecaster, intervals as iv, pipeline
from freshplan.errors import InputError
from freshplan.forecaster import ModelConfig
from freshplan.intervals import (
    BootstrapConfig,
    bootstrap_train,
    predict_interval,
    z_for_level,
)
from freshplan.pipeline import SeriesFrame
from freshplan.solarterms import encode_date_range

TINY = ModelConfig(channels=4, kernel=2, dilations=[1])


def sales_frame(days=120, seed=0):
    rng = np.random.default_rng(seed)
    values = 40.0 + 6.0 * np.sin(np.arange(days) / 9.0) + rng.normal(0, 1.5, days)
    return SeriesFrame("S", dt.date(2023, 1, 1), np.maximum(values, 0.0))


class TestNormalQuantile:
    @pytest.mark.parametrize("level", [1e-6, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 1 - 1e-6])
    def test_matches_scipy(self, level):
        assert z_for_level(level) == pytest.approx(scipy.stats.norm.ppf(0.5 * (1.0 + level)),
                                                   abs=1e-8)

    def test_two_sided_level(self):
        assert z_for_level(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_rejects_out_of_range(self):
        for level in (-1.0, 0.0, 1.0):  # -1 asks for the quantile at probability 0
            with pytest.raises(InputError):
                z_for_level(level)


def slices(tasks, frame):
    """(start, length) of each task's training frame within `frame`."""
    return [((task.series.start - frame.start).days, len(task.series)) for task in tasks]


class TestBootstrapTrain:
    def test_single_replica_covers_min_fraction(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, BootstrapConfig(replicas=1, min_fraction=0.7, epochs=1),
                              TINY, seed=1)
        assert len(ens.models) == 1
        tasks = iv.replica_tasks(frame, BootstrapConfig(replicas=1, min_fraction=0.7, epochs=1),
                                 TINY, seed=1)
        assert slices(tasks, frame)[0][1] >= int(np.ceil(0.7 * len(frame)))

    def test_deterministic_slices(self):
        frame = sales_frame()
        a = iv.replica_tasks(frame, BootstrapConfig(replicas=5, min_fraction=0.7, epochs=1),
                             TINY, seed=3)
        b = iv.replica_tasks(frame, BootstrapConfig(replicas=5, min_fraction=0.7, epochs=1),
                             TINY, seed=3)
        assert slices(a, frame) == slices(b, frame)

    def test_100_replicas_on_a_year_of_data(self):
        frame = sales_frame(days=365)
        ens = bootstrap_train(frame, BootstrapConfig(replicas=100, min_fraction=0.7, epochs=0),
                              TINY, seed=5)
        tasks = iv.replica_tasks(frame, BootstrapConfig(replicas=100, min_fraction=0.7, epochs=0),
                                 TINY, seed=5)
        n = len(frame)
        assert len(ens.models) == 100
        for start, length in slices(tasks, frame):
            assert 0 <= start and start + length <= n
            assert length >= int(np.ceil(0.7 * n))
        assert len({length for _, length in slices(tasks, frame)}) > 1  # lengths actually vary
        # replica seeds differ, so the random inits differ
        heads = {ens.models[i].head.weights.data.tobytes() for i in (0, 1, 2, 50, 99)}
        assert len(heads) == 5

    def test_replica_depends_only_on_its_task(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, BootstrapConfig(replicas=4, min_fraction=0.7, epochs=1),
                              TINY, seed=3)
        tasks = iv.replica_tasks(frame, BootstrapConfig(replicas=4, min_fraction=0.7, epochs=1),
                                 TINY, seed=3)
        fewer = iv.replica_tasks(frame, BootstrapConfig(replicas=2, min_fraction=0.7, epochs=1),
                                 TINY, seed=3)
        assert slices(fewer, frame) == slices(tasks, frame)[:2]
        for r in (3, 1):  # out of order, alone
            model, _ = forecaster.fit(tasks[r])
            assert model.head.weights.data.tobytes() == \
                ens.models[r].head.weights.data.tobytes()

    def test_too_short_series_rejected(self):
        frame = sales_frame(days=30)
        with pytest.raises(InputError, match="too short"):
            bootstrap_train(frame.slice(0, 20),
                            BootstrapConfig(replicas=1, min_fraction=0.7, epochs=1), TINY)


class TestPredictInterval:
    def make_inputs(self, frame):
        history = frame.values[-15:]
        terms = encode_date_range(frame.dates[-1] + dt.timedelta(days=1), 7)
        return history, terms

    def test_identical_replicas_zero_std(self):
        frame = sales_frame()
        ens = bootstrap_train(frame, BootstrapConfig(replicas=1, min_fraction=0.7, epochs=2),
                              TINY, seed=7)
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
        ens = bootstrap_train(frame, BootstrapConfig(replicas=3, min_fraction=0.7, epochs=0),
                              TINY, seed=11)
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
        ens = bootstrap_train(frame, BootstrapConfig(replicas=6, min_fraction=0.7, epochs=3),
                              TINY, seed=13)
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
            ens = bootstrap_train(frame, BootstrapConfig(replicas=3, min_fraction=0.7, epochs=3),
                                  TINY, seed=17)
            history, terms = self.make_inputs(frame)
            interval = predict_interval(ens, history, terms)
            results.append((interval.mean, interval.std, interval.lower, interval.upper))
        assert results[0] == results[1]

    def test_empty_ensemble_rejected(self):
        ens = iv.BootstrapEnsemble(models=[])
        with pytest.raises(InputError, match="empty ensemble"):
            predict_interval(ens, np.zeros(15), np.zeros((7, 10)))
