import numpy as np
import pytest

from freshplan.demand import fit_demand
from freshplan.errors import InputError


class TestFit:
    def test_collinear_points(self):
        curve = fit_demand([1.0, 2.0, 3.0], [10.0, 8.0, 6.0])
        assert curve.intercept == pytest.approx(12.0)
        assert curve.slope == pytest.approx(-2.0)
        assert curve.r_squared == pytest.approx(1.0)

    def test_flat_volumes(self):
        curve = fit_demand([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert curve.intercept == pytest.approx(5.0)
        assert curve.slope == pytest.approx(0.0)
        assert curve.r_squared == 0.0
        assert curve.anomalous_slope

    def test_degenerate_prices_rejected(self):
        with pytest.raises(InputError, match="P7: degenerate regressor"):
            fit_demand([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], "P7")

    def test_too_few_points_rejected(self):
        with pytest.raises(InputError, match="P7: need at least 3 days"):
            fit_demand([1.0, 2.0], [1.0, 2.0], "P7")

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="P7: prices and volumes"):
            fit_demand([1.0, 2.0, 3.0], [1.0, 2.0], "P7")

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(1, 10, 50)
        v = 30 - 2.0 * p + rng.normal(0, 1.5, 50)
        curve = fit_demand(p, v)
        residuals = v - (curve.intercept + curve.slope * p)
        assert abs(residuals.sum()) < 1e-9

    def test_fit_minimizes_sse_locally(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(1, 10, 40)
        v = 25 - 1.5 * p + rng.normal(0, 1.0, 40)
        curve = fit_demand(p, v)

        def sse(a, b):
            return float(np.sum((v - a - b * p) ** 2))

        best = sse(curve.intercept, curve.slope)
        for da, db in [(1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)]:
            assert sse(curve.intercept + da, curve.slope + db) >= best

    def test_recovers_true_slope_within_three_se(self):
        rng = np.random.default_rng(2)
        n = 300
        p = rng.uniform(2, 12, n)
        true_b = -3.0
        noise_sd = 2.0
        v = 60 + true_b * p + rng.normal(0, noise_sd, n)
        curve = fit_demand(p, v)
        se_b = noise_sd / np.sqrt(n * np.var(p))
        assert abs(curve.slope - true_b) < 3 * se_b

    def test_mean_volume_is_line_at_mean_price(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(1, 5, 20)
        v = 10 - p + rng.normal(0, 0.2, 20)
        curve = fit_demand(p, v)
        assert curve.mean_volume == pytest.approx(curve.intercept + curve.slope * p.mean())
