"""Per-product linear demand curves: daily sales volume against unit price.

Closed-form ordinary least squares.  A non-negative fitted slope is kept but
flagged, so the optimizer can treat that product as price-insensitive instead
of exploiting upward-sloping demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass
class DemandCurve:
    intercept: float           # kg at price zero
    slope: float               # kg per currency unit
    r_squared: float
    mean_volume: float         # fitted volume at the mean observed price

    @property
    def anomalous_slope(self) -> bool:
        return self.slope >= 0.0


def fit_demand(prices, volumes, product_id: str = "") -> DemandCurve:
    """OLS fit volume = intercept + slope * price on daily observations.

    Raises InputError, naming the product, when no line can be fit: fewer than
    3 days, or one price on every day."""
    p = np.asarray(prices, dtype=np.float64)
    v = np.asarray(volumes, dtype=np.float64)
    name = product_id or "demand curve"
    if p.shape != v.shape or p.ndim != 1:
        raise InputError(f"{name}: prices and volumes must be equal-length vectors, "
                         f"got {p.shape} and {v.shape}")
    if p.size < 3:
        raise InputError(f"{name}: need at least 3 days of sales to fit demand, got {p.size}")
    var_p = float(np.var(p))
    if var_p == 0.0:
        raise InputError(f"{name}: degenerate regressor, the price is {p[0]:.6f} "
                         f"on all {p.size} days")
    slope = float(np.cov(p, v, bias=True)[0, 1]) / var_p
    intercept = float(v.mean()) - slope * float(p.mean())
    residuals = v - (intercept + slope * p)
    ss_res = float(np.sum(residuals ** 2))
    ss_tot = float(np.sum((v - v.mean()) ** 2))
    r_squared = 0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DemandCurve(intercept, slope, r_squared, mean_volume=float(v.mean()))
