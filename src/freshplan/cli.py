"""Command-line pipeline: synth, forecast, intervals, rank, optimize, evaluate.

Every stage reads/writes CSV artifacts under the output directory and is
deterministic given the top-level seed.  `forecast` and `intervals` build one
`forecaster.FitTask` per model (product, or product and replica) and map
`forecaster.fit_and_forecast` over them in a pool of worker processes, one per
CPU this process may use.  A task's series is a first day and a view of the
product's values, so all of a run's tasks fit in this process at once; a worker
sends back the task's 7 forecasts and loss curve, never a model.  Every task
draws only from its own seeds and results come back in task order, so the
artifacts are the same bytes at any worker count.
Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import functools
import gc
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import demand as demand_mod
from . import forecaster, gaopt, intervals as intervals_mod, mcdm, pipeline
from .config import RunConfig, RunManifest, derive_seed, load_config
from .errors import InputError, InvariantError
from .pipeline import HORIZON_DAYS, INPUT_DAYS, fmt
from .solarterms import TermBoundaryTable

log = logging.getLogger("freshplan")

INTERVALS_DAILY_HEADER = ["product_id", "level", "day_offset", "mean", "std", "lower", "upper"]
DEMAND_HEADER = ["product_id", "intercept", "slope", "r_squared", "anomalous_slope"]
PLAN_HEADER = ["product_id", "price", "allocation", "expected_sales", "expected_profit"]
GA_TRACE_HEADER = ["generation", "max", "min", "avg"]


def _check_artifact_dirs(config: RunConfig, out_dir: Path) -> None:
    """Every `paths.*` artifact's directory is `out_dir`, which `run` creates,
    or exists, so that no stage does its work only to fail at the write."""
    for key, name in vars(config.paths).items():
        directory = (out_dir / name).parent
        if key != "boundaries" and directory != out_dir and not directory.is_dir():
            raise InputError(f"paths.{key}: directory {directory} does not exist")


def _boundary_table(config: RunConfig, out_dir: Path, manifest: RunManifest) -> TermBoundaryTable:
    """The built-in table, or the override `paths.boundaries` names under `out_dir`."""
    if config.paths.boundaries:
        path = out_dir / config.paths.boundaries
        table = pipeline.load_boundaries(path)
        manifest.note_input("boundaries", path)
        return table
    return TermBoundaryTable()


# -- stages -------------------------------------------------------------------


def cmd_synth(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = time.perf_counter()
    table = _boundary_table(config, out_dir, manifest)
    costs, sales, prices = pipeline.generate_synthetic(
        config.synth.products, config.synth.days, derive_seed(config.seed, "synth"), table)
    costs_path = out_dir / config.paths.costs
    sales_path = out_dir / config.paths.sales
    pipeline.write_costs(str(costs_path), costs)
    pipeline.write_sales(str(sales_path), sales, prices)
    manifest.end_stage("synth", started, [str(costs_path), str(sales_path)],
                       products=len(costs))
    log.info("synth: %d products x %d days", config.synth.products, config.synth.days)


@contextlib.contextmanager
def _task_map(n_tasks: int):
    """A map over `n_tasks` tasks that yields results lazily in task order, and
    the number of workers it uses: min(CPUs this process may use, n_tasks).

    At one worker the map is the builtin `map` in this process; above that it
    is the pool's `map` over forked worker processes, which takes every task at
    once and sends them out in chunks of a quarter of each worker's share,
    which keeps the workers evenly loaded, and of at most 8 tasks.  A task's
    exception is raised where its result is read, as in a serial run, and on
    leaving the block the tasks still queued are dropped.
    """
    workers = min(len(os.sched_getaffinity(0)), n_tasks)
    if workers <= 1:
        yield map, 1
        return
    # Imported here, not at the top: they add about 8 ms to the start of every
    # CLI process, and only the stages that train need them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Forked workers start with numpy and freshplan already imported.  The CLI
    # runs no other thread, and a fork-context pool forks all its workers
    # before it starts its own manager thread.
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    chunksize = min(8, max(1, n_tasks // (4 * workers)))
    try:
        yield functools.partial(pool.map, chunksize=chunksize), workers
    finally:
        pool.shutdown(cancel_futures=True)


def _usable_frames(frames: dict[str, pipeline.SeriesFrame], need: int,
                   stage: str) -> tuple[list[pipeline.SeriesFrame], int]:
    """The frames with at least `need` days, in product order, and the skip count."""
    usable = []
    for pid in sorted(frames):
        if len(frames[pid]) < need:
            log.warning("%s: skipping %s (%d days < %d)", stage, pid, len(frames[pid]), need)
        else:
            usable.append(frames[pid])
    if not usable:
        raise InputError(f"{stage}: no product has the {need} days a window needs "
                         f"({len(frames)} skipped)")
    return usable, len(frames) - len(usable)


def _training_totals(reports: list[forecaster.TrainReport]) -> dict:
    """Manifest fields of a training stage: seconds spent in `forecaster.train`
    (in the workers, when pooled) and Adam updates, summed over its tasks."""
    return {"train_s": round(sum(r.train_s for r in reports), 3),
            "steps": sum(r.steps for r in reports)}


def cmd_forecast(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = time.perf_counter()
    table = _boundary_table(config, out_dir, manifest)
    costs_path = out_dir / config.paths.costs
    frames = pipeline.load_costs(str(costs_path))
    manifest.note_input("costs", costs_path)

    usable, skipped = _usable_frames(frames, INPUT_DAYS + HORIZON_DAYS, "forecast")
    tasks = []
    for frame in usable:
        seed = derive_seed(config.seed, "forecast", frame.product_id)
        history, terms = forecaster.next_week(frame, table)
        tasks.append(forecaster.FitTask(frame, table, config.tcn, seed, derive_seed(seed, "order"),
                                        config.train, history, terms))
    with _task_map(len(tasks)) as (task_map, jobs):
        results = list(task_map(forecaster.fit_and_forecast, tasks))
    rows, curve_rows = [], []
    for frame, (predicted, report) in zip(usable, results):
        pid, first_day = frame.product_id, frame.start + dt.timedelta(days=len(frame))
        for i, value in enumerate(predicted):
            day = first_day + dt.timedelta(days=i)
            rows.append([pid, day.isoformat(), fmt(value)])
        for epoch, loss in enumerate(report.loss_curve):
            curve_rows.append([pid, str(epoch), fmt(loss)])

    forecast_path = out_dir / config.paths.forecast
    pipeline.write_csv(forecast_path, pipeline.FORECAST.header, rows)
    curves_path = out_dir / "loss_curves.csv"
    pipeline.write_csv(curves_path, ["product_id", "epoch", "loss"], curve_rows)
    manifest.end_stage("forecast", started, [str(forecast_path), str(curves_path)],
                       skipped=skipped, forecast_rows=len(rows), jobs=jobs,
                       **_training_totals([report for _, report in results]))
    log.info("forecast: %d rows, %d products skipped", len(rows), skipped)


def cmd_intervals(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = time.perf_counter()
    table = _boundary_table(config, out_dir, manifest)
    sales_path = out_dir / config.paths.sales
    qty_frames, _ = pipeline.load_sales(str(sales_path))
    manifest.note_input("sales", sales_path)

    model = config.bootstrap.model(config.tcn.kernel)
    usable, skipped = _usable_frames(qty_frames, INPUT_DAYS + HORIZON_DAYS, "intervals")
    # One flat task stream, so that one product's replicas also spread over the workers.
    tasks = (task for frame in usable for task in intervals_mod.replica_tasks(
        frame, config.bootstrap, model, derive_seed(config.seed, "intervals", frame.product_id),
        table))
    with _task_map(len(usable) * config.bootstrap.replicas) as (task_map, jobs):
        results = list(task_map(forecaster.fit_and_forecast, tasks))
    weeks = [week for week, _ in results]
    level = config.bootstrap.level
    z = intervals_mod.z_for_level(level)
    rows, daily_rows = [], []
    for frame, daily in zip(usable, np.reshape(
            weeks, (len(usable), config.bootstrap.replicas, HORIZON_DAYS))):
        pid = frame.product_id
        interval = intervals_mod.fit_interval(daily, level)
        rows.append([pid, fmt(level), *map(fmt, (interval.mean, interval.std,
                                                 interval.lower, interval.upper))])
        for day in range(interval.daily.shape[1]):
            day_fit = intervals_mod.normal_fit(interval.daily[:, day], z)
            daily_rows.append([pid, fmt(level), str(day), *map(fmt, day_fit)])

    intervals_path = out_dir / config.paths.intervals
    pipeline.write_csv(intervals_path, pipeline.INTERVALS.header, rows)
    daily_path = out_dir / config.paths.intervals_daily
    pipeline.write_csv(daily_path, INTERVALS_DAILY_HEADER, daily_rows)
    manifest.end_stage("intervals", started, [str(intervals_path), str(daily_path)],
                       skipped=skipped, jobs=jobs,
                       **_training_totals([report for _, report in results]))
    log.info("intervals: %d products, %d skipped", len(rows), skipped)


def _build_criteria(qty: dict[str, pipeline.SeriesFrame],
                    price: dict[str, pipeline.SeriesFrame],
                    costs: dict[str, pipeline.SeriesFrame]) -> tuple[list[str], np.ndarray]:
    """The product ids present in sales and costs, and per id the total
    realized profit and total sales volume (`mcdm.DEFAULT_CRITERIA`), joined
    by date."""
    ids = sorted(set(qty) & set(costs))
    if len(ids) < 2:
        raise InputError("ranking needs at least 2 products present in sales and costs")
    x = np.zeros((len(ids), 2))
    for row, pid in enumerate(ids):
        cost = costs[pid].values.tolist()
        profit = volume = 0.0
        # Sales day i is cost day i + shift; the sums run day by day, in order.
        shift = (qty[pid].start - costs[pid].start).days
        for day, (q, p) in enumerate(zip(qty[pid].values.tolist(), price[pid].values.tolist()),
                                     start=shift):
            volume += q
            if 0 <= day < len(cost):
                profit += q * (p - cost[day])
        x[row] = (profit, volume)
    return ids, x


def cmd_rank(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = time.perf_counter()
    sales_path = out_dir / config.paths.sales
    costs_path = out_dir / config.paths.costs
    qty_frames, price_frames = pipeline.load_sales(str(sales_path))
    cost_frames = pipeline.load_costs(str(costs_path))
    manifest.note_input("sales", sales_path)
    manifest.note_input("costs", costs_path)
    weights, result = mcdm.rank_products(*_build_criteria(qty_frames, price_frames, cost_frames))

    scores_by_id = dict(zip(result.product_ids, zip(result.scores, result.d_plus, result.d_minus)))
    rows = [[str(rank), pid, *map(fmt, scores_by_id[pid])]
            for rank, pid in enumerate(result.ranking, start=1)]
    ranking_path = out_dir / config.paths.ranking
    pipeline.write_csv(ranking_path, pipeline.RANKING.header, rows)

    manifest.end_stage("rank", started, [str(ranking_path)],
                       entropy_weights=[round(v, 6) for v in weights.w],
                       selected=result.ranking[:config.topsis.top_k])
    log.info("rank: %d products, weights=%s", len(rows),
             ", ".join(f"{name}={w:.4f}" for name, w in zip(mcdm.DEFAULT_CRITERIA, weights.w)))


def cmd_optimize(config: RunConfig, out_dir: Path, manifest: RunManifest,
                 baseline: str | None = None) -> None:
    started = time.perf_counter()
    intervals_path = out_dir / config.paths.intervals
    ranking = pipeline.read_csv(out_dir / config.paths.ranking, pipeline.RANKING)  # in rank order
    forecasts = pipeline.read_csv(out_dir / config.paths.forecast, pipeline.FORECAST)
    interval_rows = pipeline.read_csv(intervals_path, pipeline.INTERVALS)
    qty_frames, price_frames = pipeline.load_sales(str(out_dir / config.paths.sales))
    for name in ("ranking", "forecast", "intervals", "sales"):
        manifest.note_input(name, out_dir / getattr(config.paths, name))

    unit_costs: dict[str, list[float]] = {}
    for _, (pid, _, cost) in forecasts:  # a negative cost is skipped below, not rejected
        unit_costs.setdefault(pid, []).append(cost)
    bounds_by_id: dict[str, tuple[float, float]] = {}
    for line, (pid, _, _, _, lower, upper) in interval_rows:
        if not upper >= lower:
            raise InputError(f"{intervals_path}:{line}: upper must be a finite number >= {lower:g}, "
                             f"got {upper!r}")
        bounds_by_id[pid] = (lower, upper)
    selected = [pid for _, (_, pid, *_) in ranking[:config.topsis.top_k]]

    planned, columns, demand_rows, skipped = [], [], [], []

    def skip(pid: str, reason: str) -> None:
        log.warning("optimize: skipping %s (%s)", pid, reason)
        skipped.append({"product_id": pid, "reason": reason})

    for pid in selected:
        if pid not in unit_costs or pid not in bounds_by_id or pid not in qty_frames:
            skip(pid, "missing forecast, interval, or sales")
            continue
        unit_cost = float(np.mean(unit_costs[pid]))
        if not unit_cost > 0.0:
            skip(pid, f"forecast unit cost {unit_cost:.6f} is not positive")
            continue
        try:
            curve = demand_mod.fit_demand(price_frames[pid].values, qty_frames[pid].values, pid)
        except InputError as exc:  # a constant price or too few days: no curve to plan on
            skip(pid, str(exc))
            continue
        demand_rows.append([pid, fmt(curve.intercept), fmt(curve.slope),
                            fmt(curve.r_squared), "true" if curve.anomalous_slope else "false"])
        planned.append(pid)
        columns.append((unit_cost, curve.intercept, curve.slope, curve.mean_volume,
                        *bounds_by_id[pid]))
    if not planned:
        raise InputError("optimize: no usable products after joining artifacts")
    unit_cost, intercept, slope, mean_volume, lower, upper = np.array(columns).T
    problem = gaopt.PlanProblem(planned, unit_cost=unit_cost, intercept=intercept, slope=slope,
                                mean_volume=mean_volume, lower=lower, upper=upper)

    demand_path = out_dir / config.paths.demand
    pipeline.write_csv(demand_path, DEMAND_HEADER, demand_rows)

    evolve_started = time.perf_counter()
    result = gaopt.evolve(problem, config.ga, seed=derive_seed(config.seed, "optimize"))
    evolve_s = time.perf_counter() - evolve_started

    plan_rows = [[r["product_id"], fmt(r["price"]), fmt(r["allocation"]),
                  fmt(r["expected_sales"]), fmt(r["expected_profit"])]
                 for r in gaopt.decode_plan(result.best, problem)]
    plan_path = out_dir / config.paths.plan
    pipeline.write_csv(plan_path, PLAN_HEADER, plan_rows)

    trace_rows = [[str(s.generation), fmt(s.max_fitness), fmt(s.min_fitness),
                   fmt(s.avg_fitness)] for s in result.trace]
    trace_path = out_dir / config.paths.ga_trace
    pipeline.write_csv(trace_path, GA_TRACE_HEADER, trace_rows)

    extra = {"best_profit": round(result.best_fitness, 6),
             "evaluations": result.evaluations,
             "evaluations_per_s": round(result.evaluations / evolve_s, 1),
             "last_improving_generation": result.last_improvement,
             "products": len(planned), "skipped": skipped}
    if baseline == "random":
        _, random_best = gaopt.random_search(
            problem, result.evaluations, seed=derive_seed(config.seed, "optimize", "baseline"))
        extra["random_search_profit"] = round(random_best, 6)
        log.info("optimize: GA profit %.3f vs random-search %.3f",
                 result.best_fitness, random_best)
    manifest.end_stage("optimize", started,
                       [str(demand_path), str(plan_path), str(trace_path)], **extra)
    log.info("optimize: best weekly profit %.3f over %d products",
             result.best_fitness, len(planned))


def cmd_evaluate(pred_path: Path, truth_path: Path) -> forecaster.MetricsReport:
    """Join predictions with realized costs on (product_id, date) and score them."""
    predictions = pipeline.read_csv(pred_path, pipeline.FORECAST)
    # The realized costs as read: a date missing from the truth is not filled.
    truth = {(pid, day): cost
             for _, (day, pid, cost) in pipeline.read_csv(truth_path, pipeline.COSTS)}
    y, y_hat = [], []
    for _, (pid, day, predicted) in predictions:
        if (pid, day) in truth:
            y.append(truth[pid, day])
            y_hat.append(predicted)
    if not y:
        raise InputError("no overlapping (product_id, date) pairs between predictions and truth")
    report = forecaster.evaluate(y, y_hat)
    print(f"n={len(y)} MSE={report.mse:.6f} MAE={report.mae:.6f} RMSE={report.rmse:.6f}")
    return report


# -- entry point ---------------------------------------------------------------


STAGES = {
    "synth": cmd_synth,
    "forecast": cmd_forecast,
    "intervals": cmd_intervals,
    "rank": cmd_rank,
    "optimize": cmd_optimize,
}

RUN_ALL_ORDER = ["synth", "forecast", "intervals", "rank", "optimize"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors (exit 1), so
    that exit 2 keeps its one meaning, an invariant violation."""

    def error(self, message: str):
        raise InputError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="freshplan",
        description="Cost forecasting and price/allocation planning for fresh produce",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the top-level seed")
    parser.add_argument("--out", default=".", help="directory for all artifacts")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "forecast", "intervals", "rank"):
        sub.add_parser(name)
    optimize = sub.add_parser("optimize")
    optimize.add_argument("--baseline", choices=["random"],
                          help="also run an equal-budget baseline for comparison")
    evaluate = sub.add_parser("evaluate")
    evaluate.add_argument("--pred", required=True, help="predictions CSV (forecast schema)")
    evaluate.add_argument("--truth", required=True, help="realized costs CSV (costs schema)")
    run_all = sub.add_parser("run-all")
    run_all.add_argument("--baseline", choices=["random"])
    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = load_config(args.config, args.set)
    if args.seed is not None:
        config.seed = args.seed
    if args.command == "evaluate":
        cmd_evaluate(Path(args.pred), Path(args.truth))
        return 0

    out_dir = Path(args.out)
    _check_artifact_dirs(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(config, out_dir)
    for name in RUN_ALL_ORDER if args.command == "run-all" else [args.command]:
        baseline = {"baseline": args.baseline} if name == "optimize" else {}
        STAGES[name](config, out_dir, manifest, **baseline)
    manifest.write()
    return 0


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    # The objects made at start-up (modules, numpy's tables) live until exit.
    # Frozen, no collection scans them again, the exit one included, and the
    # collections of forked workers do not write to their pages.
    gc.freeze()
    try:
        sys.exit(run())
    except InputError as exc:
        log.error("%s", exc)
        sys.exit(1)
    except InvariantError as exc:
        log.error("internal invariant violated: %s", exc)
        sys.exit(2)


if __name__ == "__main__":
    main()
