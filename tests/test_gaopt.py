import copy
import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (gaussian_mutate_reference, gene_boxes_reference, generation_reference,
                     plan_columns, plan_profit_reference)
from test_acceptance import _instance_32

from freshplan import gaopt
from freshplan.config import load_config
from freshplan.errors import InputError, InvariantError
from freshplan.gaopt import (
    GaConfig,
    PlanProblem,
    breed,
    crossover,
    evolve,
    fitness,
    gaussian_mutate,
    repair,
    weekly_demand,
)


def analytic_context(lower=0.0, upper=100.0):
    # weekly demand 10 - p, unit cost 2; optimum (p, alloc) = (6, 4), profit 16
    return plan_columns(("X", 2.0, 10.0 / 7.0, -1.0 / 7.0, 10.0 / 7.0, lower, upper))


def grid_optimum():
    prices = np.arange(0.01, 10.0, 0.01)
    allocs = np.arange(0.01, 12.0, 0.01)
    p, a = np.meshgrid(prices, allocs, indexing="ij")
    demand = 7.0 * np.maximum(0.0, 10.0 / 7.0 - p / 7.0)
    profit = p * np.minimum(a, demand) - 2.0 * a
    return float(profit.max())


def chromosomes(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.float64)


class TestFitness:
    def test_analytic_point(self):
        ctx = analytic_context()
        assert fitness(chromosomes([6.0, 4.0]), PlanProblem(**ctx))[0] == pytest.approx(16.0)
        assert plan_profit_reference([6.0, 4.0], ctx) == pytest.approx(16.0)

    def test_alloc_equal_to_sales_gives_margin_times_alloc(self):
        problem = PlanProblem(**analytic_context())
        price = 5.0
        demand = weekly_demand(problem, np.array([price]))[0]
        got = fitness(chromosomes([price, demand]), problem)[0]
        assert got == pytest.approx((price - 2.0) * demand)

    def test_price_below_cost_is_negative(self):
        problem = PlanProblem(**analytic_context())
        assert fitness(chromosomes([1.0, 3.0]), problem)[0] < 0.0

    def test_one_profit_per_row(self):
        ctx = analytic_context()
        got = fitness(chromosomes([6.0, 4.0], [1.0, 3.0], [5.0, 5.0]), PlanProblem(**ctx))
        assert got.shape == (3,)
        assert got.tolist() == [plan_profit_reference(row, ctx)
                                for row in ([6.0, 4.0], [1.0, 3.0], [5.0, 5.0])]

    def test_wrong_shape_rejected(self):
        problem = PlanProblem(**analytic_context())
        with pytest.raises(InputError):
            fitness(np.array([6.0, 4.0]), problem)
        with pytest.raises(InputError):
            fitness(chromosomes([6.0, 4.0, 1.0, 1.0]), problem)

    def test_unrepaired_chromosome_rejected(self):
        problem = PlanProblem(**analytic_context())
        with pytest.raises(InvariantError):
            fitness(chromosomes([6.0, 4.0], [50.0, 4.0]), problem)

    def test_nonpositive_genes_rejected(self):
        problem = PlanProblem(**analytic_context())
        with pytest.raises(InvariantError):
            fitness(chromosomes([6.0, 4.0], [-1.0, 4.0]), problem)


class TestWeeklyDemand:
    def test_downward_sloping(self):
        problem = PlanProblem(**analytic_context())
        got = weekly_demand(problem, np.array([[3.0], [10.0], [20.0]]))
        assert got[0, 0] == pytest.approx(7.0)
        assert got[1, 0] == pytest.approx(0.0, abs=1e-12)
        assert got[2, 0] == 0.0

    def test_flat_curve_pinned_into_interval(self):
        problem = PlanProblem(**plan_columns(("F", 1.0, 4.0, 0.0, 4.0, 10.0, 20.0)))
        # 7 * 4 = 28 clamps to the interval upper bound
        assert weekly_demand(problem, np.array([[9.0], [1.0]])).tolist() == [[20.0], [20.0]]

    def test_anomalous_curve_is_price_insensitive(self):
        problem = PlanProblem(**plan_columns(("A", 1.0, -5.0, 2.0, 30.0, 150.0, 260.0)))
        assert weekly_demand(problem, np.array([[2.0], [50.0]])).tolist() == [[7.0 * 30.0]] * 2

    def test_each_column_follows_its_own_curve(self):
        flat = plan_columns(("F", 1.0, 4.0, 0.0, 4.0, 10.0, 20.0))
        problem = PlanProblem(**{k: v + flat[k] for k, v in analytic_context().items()})
        assert weekly_demand(problem, np.array([3.0, 3.0])).tolist() == pytest.approx([7.0, 20.0])


class TestContext:
    @pytest.mark.parametrize("lower,upper", [(np.nan, 5.0), (1.0, np.nan), (-1.0, 5.0),
                                             (6.0, 5.0), (1.0, np.inf)])
    def test_bad_interval_rejected(self, lower, upper):
        with pytest.raises(InputError, match="interval bounds"):
            PlanProblem(**plan_columns(("X", 2.0, 10.0, -1.0, 5.0, lower, upper)))

    @pytest.mark.parametrize("cost", [0.0, -1.0, np.nan, np.inf])
    def test_bad_unit_cost_rejected(self, cost):
        with pytest.raises(InputError, match="unit cost"):
            PlanProblem(**plan_columns(("X", cost, 10.0, -1.0, 5.0, 1.0, 5.0)))

    def test_first_bad_product_is_named(self):
        good = ("A", 2.0, 10.0, -1.0, 5.0, 1.0, 5.0)
        bad_bounds = ("B", 2.0, 10.0, -1.0, 5.0, 6.0, 5.0)
        with pytest.raises(InputError, match=r"^B: interval bounds .*, got \[6\.0, 5\.0\]$"):
            PlanProblem(**plan_columns(good, bad_bounds, ("C", 0.0, 10.0, -1.0, 5.0, 1.0, 5.0)))
        # Within one product the unit cost is checked first.
        with pytest.raises(InputError, match=r"^D: unit cost must be positive, got nan$"):
            PlanProblem(**plan_columns(good, ("D", np.nan, 10.0, -1.0, 5.0, 6.0, 5.0), bad_bounds))

    def test_column_of_another_length_rejected(self):
        columns = {**plan_columns(("A", 2.0, 10.0, -1.0, 5.0, 1.0, 5.0)), "slope": [-1.0, -2.0]}
        with pytest.raises(InputError, match="one value per product in every column"):
            PlanProblem(**columns)


class TestRepair:
    def test_feasible_chromosome_unchanged(self):
        ctx = analytic_context()
        problem = PlanProblem(**ctx)
        c = np.array([6.0, 4.0])
        assert np.array_equal(repair(c, problem), c)

    def test_idempotent(self):
        ctx = analytic_context(lower=2.0, upper=6.0)
        problem = PlanProblem(**ctx)
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = rng.uniform(-20, 40, size=2)
            once = repair(c, problem)
            assert np.array_equal(repair(once, problem), once)

    def test_price_projected_to_demand_bound(self):
        ctx = analytic_context(lower=2.0, upper=6.0)
        problem = PlanProblem(**ctx)
        fixed = repair(np.array([1.0, 4.0]), problem)  # demand(1) = 9 > upper 6
        assert abs(weekly_demand(problem, fixed[::2])[0] - 6.0) < 1e-9

    def test_negative_alloc_clamped_to_lower(self):
        ctx = analytic_context(lower=2.0, upper=6.0)
        problem = PlanProblem(**ctx)
        fixed = repair(np.array([5.0, -5.0]), problem)
        assert fixed[1] == 2.0

    def test_zero_lower_alloc_clamped_to_epsilon(self):
        ctx = analytic_context(lower=0.0, upper=6.0)
        problem = PlanProblem(**ctx)
        fixed = repair(np.array([5.0, -5.0]), problem)
        assert fixed[1] == pytest.approx(gaopt.EPSILON)


class TestMutation:
    def test_zero_sigma_is_identity(self):
        ctx = analytic_context()
        problem = PlanProblem(**ctx)
        cfg = GaConfig(mutation_prob=1.0, sigma_fraction=0.0)
        pop = chromosomes([6.0, 4.0], [1.0, 3.0])
        out = gaussian_mutate(pop, problem, cfg, np.random.default_rng(0))
        assert np.array_equal(out, pop)

    def test_zero_probability_is_identity(self):
        ctx = analytic_context()
        problem = PlanProblem(**ctx)
        cfg = GaConfig(mutation_prob=0.0, sigma_fraction=0.5)
        pop = chromosomes([6.0, 4.0], [1.0, 3.0])
        assert np.array_equal(gaussian_mutate(pop, problem, cfg, np.random.default_rng(0)), pop)

    def test_single_row_still_works(self):
        ctx = analytic_context()
        problem = PlanProblem(**ctx)
        cfg = GaConfig(mutation_prob=0.5, sigma_fraction=0.3)
        c = np.array([6.0, 4.0])
        row = gaussian_mutate(c, problem, cfg, np.random.default_rng(7))
        mask = np.random.default_rng(7).random(2) < cfg.mutation_prob
        assert row.shape == (2,)
        assert np.array_equal(row == c, ~mask)

    def test_perturbations_have_zero_mean(self):
        ctx = analytic_context()
        problem = PlanProblem(**ctx)
        cfg = GaConfig(mutation_prob=1.0, sigma_fraction=0.1)
        rng = np.random.default_rng(123)
        c = np.array([6.0, 4.0])
        trials = 100_000
        deltas = gaussian_mutate(np.tile(c, (trials, 1)), problem, cfg, rng) - c
        sigma = cfg.sigma_fraction * problem.width
        for g in range(2):
            assert abs(deltas[:, g].mean()) < 3.0 * sigma[g] / np.sqrt(trials)

    @pytest.mark.parametrize("prob", [0.0, 0.1, 1.0])
    def test_matches_boolean_mask_reference(self, prob):
        """The flat-index form draws and adds the same numbers as the boolean
        mask over the broadcast sigma, on a population and on one chromosome."""
        problem = PlanProblem(**_instance_32())
        cfg = GaConfig(mutation_prob=prob, sigma_fraction=0.2)
        rng = np.random.default_rng(5)
        population = rng.uniform(problem.low, problem.high, size=(40, problem.low.size))
        for genes in (population, population[3]):
            got = gaussian_mutate(genes, problem, cfg, np.random.default_rng(9), scale=0.7)
            want = gaussian_mutate_reference(genes, problem.width, prob, 0.2,
                                             np.random.default_rng(9), scale=0.7)
            assert got.shape == genes.shape
            assert got.tobytes() == want.tobytes()


class TestCrossover:
    def test_equal_parents_give_equal_children(self):
        a = chromosomes([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        ca, cb = crossover(a, a.copy(), np.random.default_rng(0))
        assert np.allclose(ca, a) and np.allclose(cb, a)

    def test_single_pair_still_works(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0])
        ca, cb = crossover(a, b, np.random.default_rng(0))
        assert ca.shape == cb.shape == (3,)
        assert np.allclose(ca + cb, a + b)

    def test_children_within_blend_bounds(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-10, 10, size=(10_000, 4))
        b = rng.uniform(-10, 10, size=(10_000, 4))
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        span = hi - lo
        for child in crossover(a, b, rng):
            assert np.all(child >= lo - 0.5 * span - 1e-12)
            assert np.all(child <= hi + 0.5 * span + 1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            crossover(np.ones(2), np.ones(3), np.random.default_rng(0))
        with pytest.raises(InputError):
            crossover(np.ones((3, 2)), np.ones((2, 2)), np.random.default_rng(0))


class TestGaConfig:
    @pytest.mark.parametrize("field,value", [
        ("pop", 0), ("pop", -3), ("gens", -1), ("tournament", 0),
        ("crossover_rate", -0.1), ("crossover_rate", 2.0),
        ("crossover_rate", float("nan")), ("mutation_prob", 1.5), ("sigma_decay", 0.0),
        ("sigma_fraction", float("nan")), ("sigma_fraction", float("inf"))])
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(InputError, match=f"ga.{field} "):
            load_config(None, [f"ga.{field}={value}"])

    def test_edges_accepted(self):
        config = load_config(None, ["ga.pop=1", "ga.gens=0", "ga.tournament=1",
                                    "ga.crossover_rate=0"])
        assert config.ga == GaConfig(pop=1, gens=0, tournament=1, crossover_rate=0.0)
        assert load_config(None, ["ga.crossover_rate=1"]).ga.crossover_rate == 1.0


class TestEvolve:
    def test_reaches_analytic_optimum_all_seeds(self):
        target = grid_optimum()
        assert target == pytest.approx(16.0, abs=0.01)
        for seed in range(10):
            res = evolve(PlanProblem(**analytic_context()), GaConfig(pop=100, gens=200), seed=seed)
            assert res.best_fitness >= 0.98 * target
            peaks = res.trace[:, 0].tolist()
            assert all(b >= a for a, b in zip(peaks, peaks[1:]))

    def test_deterministic_per_seed(self):
        a = evolve(PlanProblem(**analytic_context()), GaConfig(pop=30, gens=40), seed=5)
        b = evolve(PlanProblem(**analytic_context()), GaConfig(pop=30, gens=40), seed=5)
        assert np.array_equal(a.best, b.best)
        assert a.trace.tolist() == b.trace.tolist()

    def test_stats_ordering_every_generation(self):
        res = evolve(PlanProblem(**analytic_context()), GaConfig(pop=40, gens=50), seed=2)
        assert res.trace.shape == (50, 3)
        for max_fitness, min_fitness, avg_fitness in res.trace.tolist():
            assert min_fitness <= avg_fitness <= max_fitness

    def test_infeasible_context_rejected(self):
        with pytest.raises(InputError, match="no feasible plan"):
            problem = PlanProblem(**plan_columns(("X", 1.0, 1.0, -1.0, 1.0, 0.0, 0.0)))
            evolve(problem, GaConfig(pop=10, gens=5), seed=0)

    def test_empty_context_rejected(self):
        with pytest.raises(InputError):
            evolve(PlanProblem(**plan_columns()), GaConfig())


def test_random_search_budget_and_feasibility():
    ctx = analytic_context(lower=2.0, upper=6.0)
    problem = PlanProblem(**ctx)
    best, best_fit = gaopt.random_search(problem, 500, seed=9)
    assert np.all(best >= problem.low) and np.all(best <= problem.high)
    assert best_fit == fitness(best[None], problem)[0] == plan_profit_reference(best, ctx)


def test_decode_plan_matches_fitness():
    ctx = analytic_context()
    problem = PlanProblem(**ctx)
    chromosome = np.array([6.0, 4.0])
    rows = gaopt.decode_plan(chromosome, problem)
    assert rows[0]["expected_profit"] == pytest.approx(fitness(chromosome[None], problem)[0])
    assert rows[0]["expected_profit"] == pytest.approx(plan_profit_reference(chromosome, ctx))
    assert rows[0]["expected_sales"] == pytest.approx(4.0)


# (kind, intercept, |slope|, mean daily volume, unit cost, interval lower, interval width)
PRODUCTS = st.tuples(
    st.sampled_from(["sloped", "flat", "anomalous"]),
    st.floats(0.5, 200.0), st.floats(0.01, 10.0), st.floats(-5.0, 100.0),
    st.floats(0.1, 20.0), st.floats(0.0, 500.0), st.floats(0.0, 500.0))


def contexts_of(products) -> dict[str, list]:
    rows = []
    for i, (kind, intercept, steepness, mean_volume, cost, lower, width) in enumerate(products):
        slope = {"sloped": -steepness, "flat": 0.0, "anomalous": steepness}[kind]
        rows.append((f"P{i}", cost, intercept, slope, mean_volume, lower, lower + width))
    return plan_columns(*rows)


@settings(max_examples=200, deadline=None)
@given(st.lists(PRODUCTS, min_size=1, max_size=6), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_batched_evaluator_matches_row_by_row_reference(products, pop_size, seed):
    ctx = contexts_of(products)
    problem = PlanProblem(**ctx)
    assert (problem.low.tolist(), problem.high.tolist()) == gene_boxes_reference(ctx)
    raw = np.random.default_rng(seed).uniform(problem.low - problem.width,
                                              problem.high + problem.width,
                                              size=(pop_size, problem.low.size))
    pop = repair(raw, problem)
    assert np.array_equal(pop, np.array([repair(row, problem) for row in raw]))
    assert np.array_equal(repair(pop, problem), pop)
    assert fitness(pop, problem).tolist() == [plan_profit_reference(row, ctx) for row in pop]


@settings(max_examples=200, deadline=None)
@given(st.lists(PRODUCTS, min_size=1, max_size=4), st.integers(1, 12), st.integers(1, 4),
       st.sampled_from([0.0, 0.5, 1.0]), st.sampled_from([0.0, 0.1, 1.0]),
       st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_generation_matches_child_by_child_reference(products, pop_size, tournament, rate,
                                                     prob, scale, seed):
    """A generation bred from block draws equals the child-by-child loop fed the
    same draws, and takes exactly the documented draws from the generator."""
    ctx = contexts_of(products)
    problem = PlanProblem(**ctx)
    rng = np.random.default_rng(seed)
    pop = rng.uniform(problem.low, problem.high, size=(pop_size, problem.low.size))
    fits = fitness(pop, problem)
    fits[rng.integers(0, pop_size, size=pop_size)] = fits.max()  # ties: the first contender must win
    config = GaConfig(pop=pop_size, tournament=tournament, crossover_rate=rate,
                      mutation_prob=prob, sigma_fraction=0.2)

    twin = copy.deepcopy(rng)
    pairs, genes = (pop_size + 1) // 2, problem.low.size
    contenders = twin.integers(0, pop_size, (2 * pairs, tournament))
    crossover_draws = twin.random(pairs)
    blend = twin.uniform(-0.5, 1.5, (pairs, genes))
    mask_draws = twin.random((pop_size, genes))
    normals = twin.standard_normal(np.count_nonzero(mask_draws < prob))
    expected = generation_reference(
        pop, fits, problem.low, problem.high, rate, prob, scale * 0.2 * problem.width,
        contenders, crossover_draws, blend, mask_draws, normals)

    children = breed(pop, fits, problem, config, rng, scale)
    assert children.tobytes() == expected.tobytes()
    assert rng.bit_generator.state == twin.bit_generator.state


def test_last_improvement_is_last_rise_of_best():
    res = evolve(PlanProblem(**_instance_32()), GaConfig(pop=30, gens=60), seed=4)
    best = res.trace[:, 0].tolist()
    rises = [g for g in range(1, len(best)) if best[g] > best[g - 1]]
    assert 0 <= res.last_improvement == rises[-1] < 60
    assert best[res.last_improvement] == res.best_fitness


def test_no_generations_means_no_improvement():
    res = evolve(PlanProblem(**analytic_context()), GaConfig(pop=5, gens=0), seed=0)
    assert (res.last_improvement, res.trace.shape, res.evaluations) == (-1, (0, 3), 5)


def test_draw_order_does_not_depend_on_batching(monkeypatch):
    """The GA and random search draw the same numbers whether the population is
    scored at once or one row at a time through the reference."""
    columns = _instance_32()
    problem = PlanProblem(**columns)

    def run():
        result = evolve(problem, GaConfig(pop=31, gens=40), seed=3)
        best, best_fit = gaopt.random_search(problem, result.evaluations, seed=5003)
        trace = result.trace.tolist()
        return result.best.tobytes(), result.best_fitness, trace, result.evaluations, \
            best.tobytes(), best_fit

    batched = run()
    monkeypatch.setattr(gaopt, "fitness", lambda pop, problem: np.array(
        [plan_profit_reference(row, columns) for row in pop]))
    assert run() == batched
    assert batched[3] > gaopt.RANDOM_SEARCH_BLOCK  # random search spans more than one block


def pinned_instance() -> dict[str, list]:
    """A downward-sloping curve, a flat curve, a zero-width interval, and an
    interval above all demand the curve allows (an empty price preimage), as
    (id, unit cost, intercept, slope, mean volume, lower, upper)."""
    return plan_columns(("S", 3.0, 12.0, -1.5, 6.0, 20.0, 60.0),
                        ("F", 1.5, 4.0, 0.0, 4.0, 10.0, 20.0),
                        ("Z", 2.0, 9.0, -0.5, 5.0, 28.0, 28.0),
                        ("E", 0.5, 1.0, -0.2, 0.6, 40.0, 55.0))


def test_evolve_bits_are_pinned():
    """evolve's result on the pinned instance, as float.hex, recorded when
    mutation began to draw one normal per mutated gene; any change to the
    arithmetic or the random stream shows here."""
    result = evolve(PlanProblem(**pinned_instance()), GaConfig(pop=16, gens=6), seed=7)
    assert [float(v).hex() for v in result.best] == [
        "0x1.73fc1ad1cbf38p+2", "0x1.7208a241141c3p+4", "0x1.e000000000000p+2",
        "0x1.4000000000000p+4", "0x1.4000000000000p+3", "0x1.c000000000000p+4",
        "0x1.0c6f7a0b5ed8dp-20", "0x1.59085c44cbe8ep+5"]
    assert result.best_fitness.hex() == "0x1.8291ad47b5a9ep+8"
    assert [tuple(map(float.hex, stats)) for stats in result.trace.tolist()] == [
        ("0x1.51c02cc7ebb59p+8", "0x1.84fc33a0ae28cp+7", "0x1.f6e9e7b2c7c02p+7"),
        ("0x1.53d378bf88749p+8", "0x1.b3e58babc56f7p+7", "0x1.1db5e410678a7p+8"),
        ("0x1.54e85b3ad642cp+8", "0x1.2298bfe9cf211p+8", "0x1.413cbe7ba061ep+8"),
        ("0x1.6b44131123611p+8", "0x1.4e0315435e5cep+8", "0x1.5754097e57f6ap+8"),
        ("0x1.6b44131123611p+8", "0x1.4a8b5540ac9b4p+8", "0x1.5ed8e2f2ebe05p+8"),
        ("0x1.8291ad47b5a9ep+8", "0x1.52c2f3c1fae55p+8", "0x1.692b5798e77fep+8")]


def test_each_box_is_the_products_own():
    columns = pinned_instance()
    mixed = PlanProblem(**columns)
    for i in range(len(columns["product_ids"])):
        alone = PlanProblem(**{k: v[i:i + 1] for k, v in columns.items()})
        assert mixed.low[2 * i:2 * i + 2].tolist() == alone.low.tolist()
        assert mixed.high[2 * i:2 * i + 2].tolist() == alone.high.tolist()
    assert mixed.low[4:6].tolist() == mixed.high[4:6].tolist()  # Z: a zero-width box
    assert mixed.low[6] == mixed.high[6] == gaopt.EPSILON  # E: the price collapses to EPSILON


def test_import_loads_no_other_freshplan_module():
    """The plan takes plain columns, so the GA loads none of the training stack."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = "import sys, freshplan.gaopt; print(*sorted(m for m in sys.modules if 'freshplan' in m))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["freshplan", "freshplan.errors", "freshplan.gaopt"]


def test_ga_convergence_script_writes_its_trace(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    out = tmp_path / "trace.csv"
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.run([sys.executable, str(repo / "scripts" / "ga_convergence.py"), str(out), "3"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["generation", "max", "min", "avg"]
    assert [row[0] for row in rows[1:]] == [str(g) for g in range(200)]
