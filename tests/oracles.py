"""Independent reference implementations used by the test suite.

Most are brute force, deliberately written with plain Python loops, separate
from the vectorized library code they check.  Where a test pins the bits of a
rewrite, the reference is the earlier vectorized form of the same arithmetic
(`adam_reference`, `topo_order_reference`, `residual_block_reference`,
`attention_reference`, `gaussian_mutate_reference`, `term_indices_reference`).
`holdout_mse` and `naive_mse` are A7's two error measures.
"""

import datetime as dt
import math

import numpy as np


def conv_reference(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, dilation: int) -> np.ndarray:
    """y[t] = sum_r x[t - r*d] @ w[r] + b with zero padding, by direct loops."""
    T = x.shape[0]
    K, _, c_out = kernel.shape
    y = np.zeros((T, c_out))
    for t in range(T):
        for r in range(K):
            src = t - r * dilation
            if src >= 0:
                y[t] += x[src] @ kernel[r]
        y[t] += bias
    return y


def topsis_reference(x):
    """Min-max scaling, entropy weights, and TOPSIS scores via scalar loops.

    Returns (weights, scores) as plain lists.
    """
    n, m = len(x), len(x[0])
    z = [[0.0] * m for _ in range(n)]
    for j in range(m):
        col = [x[i][j] for i in range(n)]
        lo, hi = min(col), max(col)
        for i in range(n):
            z[i][j] = 0.0 if hi == lo else (x[i][j] - lo) / (hi - lo)

    e = [1.0] * m
    for j in range(m):
        total = sum(z[i][j] for i in range(n))
        if total <= 0.0:
            continue
        acc = 0.0
        for i in range(n):
            p = z[i][j] / total
            if p > 0.0:
                acc += p * math.log(p)
        e[j] = -acc / math.log(n)
    d = [1.0 - ej for ej in e]
    if sum(d) <= 0.0:
        w = [1.0 / m] * m
    else:
        w = [dj / sum(d) for dj in d]

    v = [[w[j] * z[i][j] for j in range(m)] for i in range(n)]
    best = [max(v[i][j] for i in range(n)) for j in range(m)]
    worst = [min(v[i][j] for i in range(n)) for j in range(m)]
    scores = []
    for i in range(n):
        d_plus = math.sqrt(sum((best[j] - v[i][j]) ** 2 for j in range(m)))
        d_minus = math.sqrt(sum((worst[j] - v[i][j]) ** 2 for j in range(m)))
        scores.append(0.5 if d_plus + d_minus == 0.0 else d_minus / (d_plus + d_minus))
    return w, scores


def single_product_grid_optimum(cost=2.0, intercept_weekly=10.0, slope_weekly=-1.0,
                                price_step=0.01, alloc_step=0.01):
    """Brute-force 2-d grid search of weekly profit for one product."""
    prices = np.arange(price_step, intercept_weekly / -slope_weekly, price_step)
    allocs = np.arange(alloc_step, intercept_weekly * 1.2, alloc_step)
    p, a = np.meshgrid(prices, allocs, indexing="ij")
    demand = np.maximum(0.0, intercept_weekly + slope_weekly * p)
    profit = p * np.minimum(a, demand) - cost * a
    i = np.unravel_index(np.argmax(profit), profit.shape)
    return float(prices[i[0]]), float(allocs[i[1]]), float(profit[i])


PLAN_COLUMNS = ("product_ids", "unit_cost", "intercept", "slope", "mean_volume", "lower", "upper")


def plan_columns(*products) -> dict[str, list]:
    """`PlanProblem`'s arguments from one (id, unit cost, intercept, slope,
    mean volume, lower, upper) row per product."""
    return {name: [row[j] for row in products] for j, name in enumerate(PLAN_COLUMNS)}


def plan_profit_reference(chromosome, columns) -> float:
    """Expected weekly profit of one interleaved [price, alloc, ...] chromosome,
    one product at a time, summed left to right.

    Weekly demand is 7 * max(0, intercept + slope * price) for a downward-sloping
    curve, and otherwise 7 * max(0, mean volume) clamped into the sales interval.
    """
    total = 0.0
    for i, (cost, intercept, slope, mean_volume, lower, upper) in enumerate(
            zip(*(columns[name] for name in PLAN_COLUMNS[1:]))):
        price, alloc = float(chromosome[2 * i]), float(chromosome[2 * i + 1])
        if slope < 0.0:
            demand = 7.0 * max(0.0, intercept + slope * price)
        else:
            demand = min(max(7.0 * max(0.0, mean_volume), lower), upper)
        sold = min(alloc, demand)
        total += price * sold - cost * alloc
    return total


def gene_boxes_reference(columns) -> tuple[list[float], list[float]]:
    """[2N] gene box lows and highs, price/alloc interleaved, one product at a time.

    A downward-sloping curve bounds price by the preimage of the sales interval
    under the weekly demand line, floored at 1e-6; any other curve by 1e-6 and
    5 * unit cost.  Allocation is bounded by the interval, floored at 1e-6.
    """
    eps = 1e-6
    lows, highs = [], []
    for cost, intercept, slope, _, lower, upper in zip(*(columns[name]
                                                         for name in PLAN_COLUMNS[1:])):
        if slope < 0.0:
            p_lo = max(eps, (upper / 7.0 - intercept) / slope)
            p_hi = max(p_lo, (lower / 7.0 - intercept) / slope)
        else:
            p_lo, p_hi = eps, max(5.0 * cost, 2.0 * eps)
        a_hi = max(upper, eps)
        lows += [p_lo, min(max(lower, eps), a_hi)]
        highs += [p_hi, a_hi]
    return lows, highs


def generation_reference(pop, fits, low, high, crossover_rate: float, prob: float,
                         sigma, contenders, crossover_draws, blend,
                         mask_draws, normals) -> np.ndarray:
    """One GA generation from pre-drawn numbers, pair by pair and child by child.

    Pair i's parents win tournaments 2i and 2i+1 (the first fittest contender of
    each row of `contenders`); it blends when crossover_draws[i] < crossover_rate,
    with weights blend[i].  Child k has gene g mutated when
    mask_draws[k, g] < prob, by the next unused entry of the flat `normals`
    times sigma[g], child by child and gene by gene; then each gene is clamped
    into [low, high].
    """
    size = len(pop)

    def winner(row):
        best = row[0]
        for idx in row[1:]:
            if fits[idx] > fits[best]:
                best = idx
        return best

    offspring = []
    for i in range((size + 1) // 2):
        a = np.array(pop[winner(contenders[2 * i])], dtype=np.float64)
        b = np.array(pop[winner(contenders[2 * i + 1])], dtype=np.float64)
        if crossover_draws[i] < crossover_rate:
            u = blend[i]
            a, b = u * a + (1.0 - u) * b, (1.0 - u) * a + u * b
        offspring.extend([a, b])
    children = []
    unused = iter(normals)
    for k, c in enumerate(offspring[:size]):
        c = c.copy()
        for g in range(len(c)):
            if mask_draws[k][g] < prob:
                c[g] += next(unused) * sigma[g]
        children.append([min(max(float(c[g]), low[g]), high[g]) for g in range(len(c))])
    assert next(unused, None) is None, "more normals than mutated genes"
    return np.array(children, dtype=np.float64)


def gaussian_mutate_reference(population, width, mutation_prob: float, sigma_fraction: float,
                              rng, scale: float = 1.0) -> np.ndarray:
    """Gaussian mutation through a boolean mask of the population's shape: the
    mask draw, then one normal per selected gene in row-major order, times
    `scale * sigma_fraction * width` broadcast to the population."""
    c = np.array(population, dtype=np.float64)
    mask = rng.random(c.shape) < mutation_prob
    sigma = np.broadcast_to(scale * sigma_fraction * width, c.shape)
    c[mask] += rng.standard_normal(np.count_nonzero(mask)) * sigma[mask]
    return c


def term_index_reference(date: dt.date, entries) -> int:
    """Index of the term whose boundary is the last one at or before the date's
    (month, day) in a list of 24 (month, day) boundaries; a date before every
    boundary belongs to the term of the latest boundary in the calendar year."""
    key = (date.month, date.day)
    latest = max(range(len(entries)), key=lambda i: entries[i])
    best = None
    for idx, boundary in enumerate(entries):
        if boundary <= key and (best is None or boundary > entries[best]):
            best = idx
    return latest if best is None else best


def term_bits_reference(index: int) -> list[float]:
    """Two-hot 10-bit code of term `index`: season bit, then position bit."""
    bits = [0.0] * 10
    bits[index // 6] = 1.0
    bits[4 + index % 6] = 1.0
    return bits


def windows_reference(start, scaled, entries, input_days: int, horizon: int):
    """Every one-day-stride window of an already scaled series whose first day
    is `start`, one at a time: (history, term bits of the target days, target)
    tuples."""
    samples = []
    for k in range(len(scaled) - input_days - horizon + 1):
        anchor = start + dt.timedelta(days=k + input_days)
        terms = [term_bits_reference(term_index_reference(anchor + dt.timedelta(days=i), entries))
                 for i in range(horizon)]
        samples.append((np.array(scaled[k:k + input_days]), np.array(terms),
                        np.array(scaled[k + input_days:k + input_days + horizon])))
    return samples


def term_indices_reference(table, dates) -> np.ndarray:
    """`table`'s term index of each date, from a per-date (month, day) key."""
    keys = np.array([100 * day.month + day.day for day in dates], dtype=np.int64)
    return table._terms[np.searchsorted(table._keys, keys, side="right") - 1]


def adam_reference(params, grads_per_step, lr: float, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8):
    """Adam tensor by tensor: the parameter values after each step.

    `grads_per_step` lists one gradient per parameter and step."""
    data = [np.array(p, dtype=np.float64) for p in params]
    m = [np.zeros_like(p) for p in data]
    v = [np.zeros_like(p) for p in data]
    history = []
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            data[i] = data[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append([d.copy() for d in data])
    return history


def topo_order_reference(root) -> list:
    """Topological order of the autodiff graph under `root`, leaves first, by
    an iterative three-colour depth-first search; raises on a cycle."""
    white, gray, black = 0, 1, 2
    state: dict[int, int] = {}
    order: list = []
    stack: list[tuple[object, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        nid = id(node)
        if processed:
            state[nid] = black
            order.append(node)
            continue
        color = state.get(nid, white)
        if color == black:
            continue
        if color == gray:
            raise ValueError("cycle detected in computation graph")
        state[nid] = gray
        stack.append((node, True))
        for parent in node._parents:
            pcolor = state.get(id(parent), white)
            if pcolor == gray:
                raise ValueError("cycle detected in computation graph")
            if pcolor == white:
                stack.append((parent, False))
    return order


def residual_block_reference(x, kernel, bias, projection, dilation: int, g):
    """A residual block's forward and gradients in the batched form of the
    `layers` code they replaced: per-sample matmuls over `[B, T, .]` summed
    over the batch afterwards, `np.where` for the ReLU and a boolean mask.

    Returns the block output for input x [B, T, C_in] and the gradients of
    `sum(output * g)` as a dict over "x", "kernel", "bias" and, when
    `projection` is not None, "projection"."""
    k, c_in, c_out = kernel.shape
    t = x.shape[-2]
    taps = [(r, r * dilation) for r in range(k) if r * dilation < t]
    stacked = np.zeros(x.shape[:-1] + (k * c_in,))
    for r, s in taps:
        stacked[..., s:, r * c_in:(r + 1) * c_in] = x[..., :t - s, :]
    pre = stacked @ kernel.reshape(k * c_in, c_out) + bias
    mask = pre > 0.0
    skip = x if projection is None else x @ projection
    out = np.where(mask, pre, 0.0) + skip

    g_pre = g * mask
    grads = {"bias": g_pre.sum(axis=0).sum(axis=0),
             "kernel": (np.swapaxes(stacked, -1, -2) @ g_pre).sum(axis=0).reshape(kernel.shape)}
    if projection is not None:
        grads["projection"] = (np.swapaxes(x, -1, -2) @ g).sum(axis=0)
    g_stacked = g_pre @ kernel.reshape(k * c_in, c_out).T
    g_x = np.zeros_like(x)
    for r, s in taps:
        g_x[..., :t - s, :] += g_stacked[..., s:, r * c_in:(r + 1) * c_in]
    grads["x"] = g_x + (g if projection is None else g @ projection.T)
    return out, grads


def attention_reference(x1, x2, g):
    """The attention fusion's forward and backward in the batched form of the
    `layers` code they replaced: the fused rows [B, F] of x1 [B, T1, F] and
    x2 [B, T2, F], and the gradients of `sum(fused * g)` with respect to x1
    and x2, with the outer products as [B, L, 1] @ [B, 1, F] matmuls and the
    query's gradient scattered through a zero buffer."""
    keys = np.concatenate([x1, x2], axis=-2)
    query = x1[..., -1, :]
    b, l, f = keys.shape
    t1 = x1.shape[-2]
    sim = (keys @ query.reshape(b, -1, 1)).reshape(b, l)
    e = np.exp(sim - sim.max(axis=-1, keepdims=True))
    alpha = e / e.sum(axis=-1, keepdims=True)
    fused = (alpha.reshape(b, 1, l) @ keys).reshape(b, f)

    g_fused = g.reshape(b, 1, f)
    keys_t = np.swapaxes(keys, -1, -2)
    g_alpha = (g_fused @ keys_t).reshape(b, l)
    g_sim = (alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))).reshape(b, l, 1)
    g_keys = alpha.reshape(b, l, 1) @ g_fused + g_sim @ query.reshape(b, 1, f)
    g_last = np.zeros_like(x1)
    g_last[..., -1, :] = (keys_t @ g_sim).reshape(b, f)
    return fused, g_keys[..., :t1, :] + g_last, g_keys[..., t1:, :]


def holdout_mse(model, windows) -> float:
    """Mean squared error of the model over windows, in raw units."""
    preds = model.predict_scaled(windows.histories, windows.terms)
    inverse = model.normalizer.inverse
    return float(np.mean((inverse(preds) - inverse(windows.targets)) ** 2))


def naive_mse(windows, normalizer) -> float:
    """MSE, in raw units, of repeating each window's last observed value across
    the horizon."""
    targets = windows.targets
    preds = np.repeat(windows.histories[:, -1:], targets.shape[1], axis=1)
    return float(np.mean((normalizer.inverse(preds) - normalizer.inverse(targets)) ** 2))
