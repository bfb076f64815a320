"""Entropy-weighted TOPSIS ranking of products.

Criteria columns (by default total profit and total sales volume, both
benefit-type) are min-max normalized; entropy weights reward high-dispersion
criteria; TOPSIS scores each product by closeness to the column-wise ideal
point relative to the anti-ideal point.  Weights are applied to the normalized
matrix before the distance computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

DEFAULT_CRITERIA = ["total_profit", "total_sales_volume"]


@dataclass
class CriteriaMatrix:
    product_ids: list[str]
    criteria: list[str]
    x: np.ndarray                 # raw values, [n, m]
    z: np.ndarray = field(init=False)  # min-max normalized

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        if self.x.shape != (len(self.product_ids), len(self.criteria)):
            raise InputError(f"matrix shape {self.x.shape} does not match "
                             f"{len(self.product_ids)} products x {len(self.criteria)} criteria")
        self.z = normalize_criteria(self.x)


def normalize_criteria(x) -> np.ndarray:
    """Column-wise min-max scaling to [0, 1]; constant columns map to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise InputError(f"need an n x m matrix with n >= 2, got shape {x.shape}")
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    span = hi - lo
    z = np.zeros_like(x)
    ok = span > 0.0
    z[:, ok] = (x[:, ok] - lo[ok]) / span[ok]
    return z


@dataclass
class EntropyWeights:
    e: np.ndarray  # information entropy per criterion
    d: np.ndarray  # information utility, 1 - e
    w: np.ndarray  # normalized weights


def entropy_weights(z) -> EntropyWeights:
    """Entropy-method weights of normalized criteria columns.

    Column shares p_ij use 0*ln(0) = 0; an all-zero column carries no
    information (entropy 1, weight 0).  If every column is uninformative the
    weights fall back to uniform.
    """
    z = np.asarray(z, dtype=np.float64)
    n, m = z.shape
    col_sums = z.sum(axis=0)
    e = np.ones(m)
    for j in range(m):
        if col_sums[j] <= 0.0:
            continue
        p = z[:, j] / col_sums[j]
        nonzero = p > 0.0
        e[j] = -float(np.sum(p[nonzero] * np.log(p[nonzero]))) / np.log(n)
    d = 1.0 - e
    if d.sum() <= 0.0:
        w = np.full(m, 1.0 / m)
    else:
        w = d / d.sum()
    return EntropyWeights(e=e, d=d, w=w)


@dataclass
class TopsisResult:
    product_ids: list[str]
    scores: np.ndarray
    d_plus: np.ndarray
    d_minus: np.ndarray
    ranking: list[str]


def topsis_scores(z, w, product_ids: list[str] | None = None) -> TopsisResult:
    """Closeness of each row to the ideal point of the weighted normalized matrix.

    A row that is simultaneously ideal and anti-ideal (every weighted column
    constant) scores 0.5.  Ranking ties break by product id.
    """
    z = np.asarray(z, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if z.ndim != 2 or w.shape != (z.shape[1],):
        raise InputError(f"incompatible shapes: z {z.shape}, w {w.shape}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise InputError(f"weights must sum to 1, got {w.sum()}")
    n = z.shape[0]
    ids = product_ids if product_ids is not None else [f"row{i}" for i in range(n)]
    if len(ids) != n:
        raise InputError("product_ids length must match the matrix")

    v = z * w
    ideal = v.max(axis=0)
    anti_ideal = v.min(axis=0)
    d_plus = np.sqrt(((v - ideal) ** 2).sum(axis=1))
    d_minus = np.sqrt(((v - anti_ideal) ** 2).sum(axis=1))
    denom = d_plus + d_minus
    scores = np.full(n, 0.5)
    ok = denom > 0.0
    scores[ok] = d_minus[ok] / denom[ok]

    order = sorted(range(n), key=lambda i: (-scores[i], ids[i]))
    return TopsisResult(
        product_ids=list(ids),
        scores=scores,
        d_plus=d_plus,
        d_minus=d_minus,
        ranking=[ids[i] for i in order],
    )


def select_top(result: TopsisResult, k: int = 32) -> list[str]:
    """The k best-scoring product ids in rank order."""
    n = len(result.product_ids)
    if not 1 <= k <= n:
        raise InputError(f"k must be in 1..{n}, got {k}")
    return result.ranking[:k]


def rank_products(matrix: CriteriaMatrix) -> tuple[EntropyWeights, TopsisResult]:
    """Entropy weighting followed by TOPSIS scoring of a criteria matrix."""
    weights = entropy_weights(matrix.z)
    result = topsis_scores(matrix.z, weights.w, matrix.product_ids)
    return weights, result
