"""Genetic search over joint (price, allocation) decisions for selected products.

A `PlanProblem` holds the per-product columns and gene boxes, built once from
the columns a caller joins; every step of the search reads it.
A chromosome interleaves one price and one allocation per product; a population
is a [P, 2N] array of them, prices in the even columns.  Repair projects prices
onto the band where the weekly demand implied by the fitted curve stays inside
the bootstrap sales interval, and clamps allocations into the same interval.
Fitness is expected weekly profit with unsold allocation written off at
wholesale cost, for the whole population at once.  Per-product profits are
summed left to right, because np.sum's pairwise order rounds differently from a
loop over products and would change plans.  Tournament selection, per-gene
blend crossover, Gaussian mutation with a geometrically decaying step, and
one-elite survivor selection drive the search.

Each generation is bred as whole-array expressions from five population-wide
draws, always in this order: tournament contenders [2 * pairs, tournament]
with pairs = ceil(pop / 2), crossover decisions [pairs], blend weights
[pairs, 2N], mutation mask [pop, 2N] and one standard normal per mutated gene,
in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError

EPSILON = 1e-6
WEEK_DAYS = 7.0
PRICE_CAP_MARKUP = 5.0  # price box upper bound, as a multiple of unit cost,
                        # for products whose demand curve is not downward-sloping
RANDOM_SEARCH_BLOCK = 1024  # candidates drawn and scored at once by random_search


class PlanProblem:
    """The plan's per-product columns, checked once, and its gene boxes.

    `product_ids`, the [N] `unit_cost`, `intercept`, `slope`, `mean_volume` and
    weekly sales interval `lower`/`upper`, and the [2N] gene boxes `low`/`high`
    (price/alloc interleaved) used for initialization, repair and mutation
    scale.  For a downward-sloping curve the price band is the preimage of the
    sales interval under the weekly demand line (empty preimages collapse toward
    the closest achievable price); otherwise price is bounded by a markup cap.
    Allocation is bounded by the sales interval.  Every `low` is at least EPSILON.
    """

    def __init__(self, product_ids: list[str], *, unit_cost, intercept, slope, mean_volume,
                 lower, upper):
        self.product_ids = list(product_ids)
        n = len(self.product_ids)
        columns = [np.asarray(c, dtype=np.float64)
                   for c in (unit_cost, intercept, slope, mean_volume, lower, upper)]
        if n == 0 or any(c.shape != (n,) for c in columns):
            raise InputError(f"need one value per product in every column, got {n} products "
                             f"and column shapes {[c.shape for c in columns]}")
        (self.unit_cost, self.intercept, self.slope, self.mean_volume,
         self.lower, self.upper) = columns
        bad_cost = ~(np.isfinite(self.unit_cost) & (self.unit_cost > 0.0))
        bad_bounds = ~((0.0 <= self.lower) & (self.lower <= self.upper) & np.isfinite(self.upper))
        if np.any(bad := bad_cost | bad_bounds):  # a NaN fails every comparison: bad
            i = int(np.argmax(bad))  # the first bad product, its cost checked first
            pid = self.product_ids[i]
            if bad_cost[i]:
                raise InputError(f"{pid}: unit cost must be positive, got {float(self.unit_cost[i])}")
            raise InputError(f"{pid}: interval bounds must be finite with 0 <= lower <= upper, "
                             f"got [{float(self.lower[i])}, {float(self.upper[i])}]")
        sloped = self.slope < 0.0
        divisor = np.where(sloped, self.slope, -1.0)  # finite quotients where np.where drops them
        p_at_upper = (self.upper / WEEK_DAYS - self.intercept) / divisor
        p_at_lower = (self.lower / WEEK_DAYS - self.intercept) / divisor
        p_lo = np.where(sloped, np.maximum(EPSILON, p_at_upper), EPSILON)
        p_hi = np.where(sloped, np.maximum(p_lo, p_at_lower),
                        np.maximum(PRICE_CAP_MARKUP * self.unit_cost, 2.0 * EPSILON))
        a_hi = np.maximum(self.upper, EPSILON)
        a_lo = np.minimum(np.maximum(self.lower, EPSILON), a_hi)
        self.low = np.column_stack([p_lo, a_lo]).ravel()
        self.high = np.column_stack([p_hi, a_hi]).ravel()
        self.width = self.high - self.low
        # What `weekly_demand` and `fitness` read on every call.
        self.sloped = sloped
        self.pinned = np.clip(WEEK_DAYS * np.maximum(0.0, self.mean_volume),
                              self.lower, self.upper)
        self.low_tolerance, self.high_tolerance = self.low - 1e-9, self.high + 1e-9


def weekly_demand(problem: PlanProblem, prices: np.ndarray) -> np.ndarray:
    """Weekly sales volume each of the [..., N] prices induces.

    Downward-sloping curves scale the daily fit to a week; flat or anomalous
    (non-negative slope) curves are treated as price-insensitive at the fitted
    mean volume, clamped into the sales interval.
    """
    line = WEEK_DAYS * np.maximum(0.0, problem.intercept + problem.slope * prices)
    return np.where(problem.sloped, line, problem.pinned)


def _sold_and_profit(genes: np.ndarray, problem: PlanProblem) -> tuple[np.ndarray, np.ndarray]:
    """[..., N] expected sales and profit, price * min(alloc, demand) - cost * alloc."""
    price, alloc = genes[..., 0::2], genes[..., 1::2]
    sold = np.minimum(alloc, weekly_demand(problem, price))
    return sold, price * sold - problem.unit_cost * alloc


def repair(chromosome: np.ndarray, problem: PlanProblem) -> np.ndarray:
    """Project every gene into its feasible box (total, idempotent)."""
    return np.clip(np.asarray(chromosome, dtype=np.float64), problem.low, problem.high)


def fitness(population: np.ndarray, problem: PlanProblem) -> np.ndarray:
    """Expected weekly profit of each row of a [P, 2N] population, as [P].
    Every gene must lie in its box, so prices and allocations are positive."""
    pop = np.asarray(population, dtype=np.float64)
    if pop.ndim != 2 or pop.shape[1] != problem.low.size:
        raise InputError(f"population shape {pop.shape} does not match "
                         f"{len(problem.product_ids)} products")
    if np.any(pop < problem.low_tolerance) or np.any(pop > problem.high_tolerance):
        raise InvariantError("fitness called on an unrepaired chromosome")
    _, profit = _sold_and_profit(pop, problem)
    return np.add.accumulate(profit, axis=1)[:, -1]


def gaussian_mutate(population: np.ndarray, problem: PlanProblem, cfg: GaConfig,
                    rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Add zero-mean Gaussian noise to randomly selected genes of a [P, 2N]
    population (or one [2N] chromosome); sigma is `scale * sigma_fraction * box
    width` per gene.  Draws the whole mask, then one standard normal per
    selected gene, in row-major order."""
    c = np.array(population, dtype=np.float64)
    picked = np.flatnonzero(rng.random(c.shape) < cfg.mutation_prob)
    sigma = scale * cfg.sigma_fraction * problem.width
    c.reshape(-1)[picked] += rng.standard_normal(picked.size) * sigma[picked % sigma.size]
    return c


def crossover(parents_a: np.ndarray, parents_b: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-gene blend crossover of paired [P, 2N] rows (or one [2N] pair):
    u ~ U[-0.5, 1.5], children from complementary draws."""
    a = np.asarray(parents_a, dtype=np.float64)
    b = np.asarray(parents_b, dtype=np.float64)
    if a.shape != b.shape:
        raise InputError(f"parent shape mismatch: {a.shape} vs {b.shape}")
    u = rng.uniform(-0.5, 1.5, size=a.shape)
    return u * a + (1.0 - u) * b, (1.0 - u) * a + u * b


@dataclass
class GenerationStats:
    generation: int
    max_fitness: float
    min_fitness: float
    avg_fitness: float


@dataclass
class GaConfig:
    """The GA's settings, which are also the run config's `ga.*` keys (their
    accepted values are in `config.RULES`)."""

    pop: int = 200
    gens: int = 500
    tournament: int = 3
    elitism: int = 1             # 1 carries the best individual so far over
    crossover_rate: float = 0.9
    mutation_prob: float = 0.1   # per-gene mutation probability
    sigma_fraction: float = 0.1  # Gaussian sigma as a fraction of the gene's box width
    sigma_decay: float = 0.995   # multiplicative sigma decay per generation


@dataclass
class GaResult:
    best: np.ndarray
    best_fitness: float
    trace: list[GenerationStats]
    evaluations: int
    last_improvement: int  # last generation that raised the best fitness, -1 if none did


def tournament_select(fits: np.ndarray, size: int, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Indices of `count` tournament winners, each the first fittest of `size`
    contenders drawn with replacement."""
    contenders = rng.integers(0, len(fits), size=(count, size))
    return contenders[np.arange(count), np.argmax(fits[contenders], axis=1)]


def breed(pop: np.ndarray, fits: np.ndarray, problem: PlanProblem, config: GaConfig,
          rng: np.random.Generator, scale: float) -> np.ndarray:
    """One generation of repaired children from a [P, 2N] population.

    Pair i's parents are tournament winners 2i and 2i+1; its children are rows
    2i and 2i+1 (the last pair's second child is dropped for an odd P).  Draws
    the five blocks in the order the module docstring gives; the last holds as
    many normals as the mask selects genes.
    """
    size = len(pop)
    pairs = -(-size // 2)
    winners = tournament_select(fits, config.tournament, 2 * pairs, rng)
    parents_a, parents_b = pop[winners[0::2]], pop[winners[1::2]]
    crossed = (rng.random(pairs) < config.crossover_rate)[:, None]
    blend_a, blend_b = crossover(parents_a, parents_b, rng)
    children = np.stack([np.where(crossed, blend_a, parents_a),
                         np.where(crossed, blend_b, parents_b)], axis=1)
    children = children.reshape(2 * pairs, -1)[:size]
    return repair(gaussian_mutate(children, problem, config, rng, scale), problem)


def evolve(problem: PlanProblem, config: GaConfig | None = None,
           seed: int = 0) -> GaResult:
    """Run the GA.  Only with `elitism` 1 is the best individual so far carried
    over, in place of the worst child, so that the trace's best never falls.

    The generator is seeded with `seed`.  It draws the [pop, 2N] initial
    population, then per generation: tournament contenders, crossover
    decisions, blend weights, mutation mask and the normals of the mutated
    genes, each as one block."""
    if np.all(problem.upper <= 0.0):
        raise InputError("no feasible plan")
    config = config if config is not None else GaConfig()
    rng = np.random.default_rng(seed)

    pop = rng.uniform(problem.low, problem.high, size=(config.pop, problem.low.size))
    fits = fitness(pop, problem)
    evaluations = config.pop

    best_idx = int(np.argmax(fits))
    best = pop[best_idx].copy()
    best_fit = float(fits[best_idx])
    last_improvement = -1

    trace: list[GenerationStats] = []
    scale = 1.0
    for gen in range(config.gens):
        children = breed(pop, fits, problem, config, rng, scale)
        child_fits = fitness(children, problem)
        evaluations += config.pop

        gen_best = int(np.argmax(child_fits))
        if child_fits[gen_best] > best_fit:
            best = children[gen_best].copy()
            best_fit = float(child_fits[gen_best])
            last_improvement = gen
        if config.elitism == 1:
            worst = int(np.argmin(child_fits))
            children[worst] = best
            child_fits[worst] = best_fit
        pop, fits = children, child_fits
        scale *= config.sigma_decay

        trace.append(GenerationStats(
            generation=gen,
            max_fitness=float(fits.max()),
            min_fitness=float(fits.min()),
            avg_fitness=float(fits.mean()),
        ))
    return GaResult(best=best, best_fitness=best_fit, trace=trace, evaluations=evaluations,
                    last_improvement=last_improvement)


def random_search(problem: PlanProblem, evaluations: int, seed: int = 0) -> tuple[np.ndarray, float]:
    """Equal-budget baseline: best of `evaluations` uniform draws from the boxes,
    drawn and scored RANDOM_SEARCH_BLOCK at a time (the same stream as one draw
    per evaluation)."""
    rng = np.random.default_rng(seed)
    best, best_fit = None, -np.inf
    for start in range(0, evaluations, RANDOM_SEARCH_BLOCK):
        size = (min(RANDOM_SEARCH_BLOCK, evaluations - start), problem.low.size)
        block = repair(rng.uniform(problem.low, problem.high, size=size), problem)
        fits = fitness(block, problem)
        i = int(np.argmax(fits))
        if fits[i] > best_fit:
            best, best_fit = block[i], fits[i]
    return best, float(best_fit)


def decode_plan(chromosome: np.ndarray, problem: PlanProblem) -> list[dict]:
    """Decode a chromosome into per-product plan rows."""
    genes = np.asarray(chromosome, dtype=np.float64)
    sold, profit = _sold_and_profit(genes, problem)
    return [{"product_id": pid, "price": float(genes[2 * i]),
             "allocation": float(genes[2 * i + 1]), "expected_sales": float(sold[i]),
             "expected_profit": float(profit[i])} for i, pid in enumerate(problem.product_ids)]
