"""Command-line pipeline: synth, forecast, intervals, rank, optimize, evaluate.

Every stage reads/writes CSV artifacts under the output directory and is
deterministic given the top-level seed.  `forecast` and `intervals` train one
model per task (product, or product and replica) in a pool of worker
processes, one per CPU this process may use; every task draws only from its
own seed and results come back in task order, so the artifacts are the same
bytes at any worker count.
Exit codes: 0 success, 1 input error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import functools
import itertools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import demand as demand_mod
from . import forecaster, gaopt, intervals as intervals_mod, mcdm, pipeline
from .config import RunConfig, RunManifest, derive_seed, load_config
from .errors import InputError, InvariantError
from .forecaster import ModelConfig
from .solarterms import TermBoundaryTable, encode_date_range

log = logging.getLogger("freshplan")

FORECAST_HEADER = ["product_id", "date", "predicted_cost"]
INTERVALS_HEADER = ["product_id", "level", "mean", "std", "lower", "upper"]
INTERVALS_DAILY_HEADER = ["product_id", "level", "day_offset", "mean", "std", "lower", "upper"]
DEMAND_HEADER = ["product_id", "intercept", "slope", "r_squared", "anomalous_slope"]
RANKING_HEADER = ["rank", "product_id", "score", "d_plus", "d_minus"]
PLAN_HEADER = ["product_id", "price", "allocation", "expected_sales", "expected_profit"]
GA_TRACE_HEADER = ["generation", "max", "min", "avg"]


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _boundary_table(config: RunConfig) -> TermBoundaryTable:
    if config.paths.boundaries:
        return pipeline.load_boundaries(config.paths.boundaries)
    return TermBoundaryTable()


# -- stages -------------------------------------------------------------------


def cmd_synth(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = manifest.start_stage("synth")
    table = _boundary_table(config)
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
    runs the tasks in forked worker processes.  Tasks go out in chunks of a
    quarter of each worker's share, which keeps the workers evenly loaded, and
    of at most 8 tasks, so that few finished results wait in this process for
    the caller to read them.  A task's exception is raised where its result is
    read, as in a serial run, and on leaving the block the tasks still queued
    are dropped.
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
    try:
        chunksize = min(8, max(1, n_tasks // (4 * workers)))
        yield functools.partial(pool.map, chunksize=chunksize), workers
    finally:
        pool.shutdown(cancel_futures=True)


def _deploy_forecast(task: tuple[pipeline.SeriesFrame, TermBoundaryTable, RunConfig]
                     ) -> tuple[np.ndarray, list[float]]:
    """Train one product's deploy forecaster; its next-week costs and loss curve."""
    frame, table, config = task
    seed = derive_seed(config.seed, "forecast", frame.product_id)
    normalizer = pipeline.fit_normalizer(frame.values)
    windows = pipeline.make_windows(frame, table, config.window.input_days,
                                    config.window.horizon_days, normalizer)
    model_cfg = ModelConfig(channels=config.tcn.channels, kernel_size=config.tcn.kernel,
                            dilations=list(config.tcn.dilations))
    model = forecaster.ForecasterModel.create(normalizer, frame.product_id, seed, model_cfg)
    batch_size = config.train.batch_size if config.train.batch_size > 0 else None
    report = forecaster.train(model, windows, epochs=config.train.epochs,
                              lr=config.train.lr, seed=derive_seed(seed, "order"),
                              batch_size=batch_size)
    first_day = frame.dates[-1] + dt.timedelta(days=1)
    terms = encode_date_range(first_day, config.window.horizon_days, table)
    history = frame.values[-config.window.input_days:]
    return (forecaster.predict(model, history, terms, config.window.input_days),
            report.loss_curve)


def _usable_frames(frames: dict[str, pipeline.SeriesFrame], need: int,
                   stage: str) -> tuple[list[pipeline.SeriesFrame], int]:
    """The frames with at least `need` days, in product order, and the skip count."""
    usable = []
    for pid in sorted(frames):
        if len(frames[pid]) < need:
            log.warning("%s: skipping %s (%d days < %d)", stage, pid, len(frames[pid]), need)
        else:
            usable.append(frames[pid])
    return usable, len(frames) - len(usable)


def cmd_forecast(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = manifest.start_stage("forecast")
    table = _boundary_table(config)
    costs_path = out_dir / config.paths.costs
    frames = pipeline.load_costs(str(costs_path))
    manifest.note_input("costs", costs_path)

    usable, skipped = _usable_frames(
        frames, config.window.input_days + config.window.horizon_days, "forecast")
    with _task_map(len(usable)) as (task_map, jobs):
        results = list(task_map(_deploy_forecast, [(frame, table, config) for frame in usable]))
    rows, curve_rows = [], []
    for frame, (predicted, loss_curve) in zip(usable, results):
        pid, first_day = frame.product_id, frame.dates[-1] + dt.timedelta(days=1)
        for i, value in enumerate(predicted):
            day = first_day + dt.timedelta(days=i)
            rows.append([pid, day.isoformat(), _fmt(value)])
        for epoch, loss in enumerate(loss_curve):
            curve_rows.append([pid, str(epoch), _fmt(loss)])

    forecast_path = out_dir / config.paths.forecast
    _write_csv(forecast_path, FORECAST_HEADER, rows)
    curves_path = out_dir / "loss_curves.csv"
    _write_csv(curves_path, ["product_id", "epoch", "loss"], curve_rows)
    manifest.end_stage("forecast", started, [str(forecast_path), str(curves_path)],
                       skipped=skipped, forecast_rows=len(rows), jobs=jobs)
    log.info("forecast: %d rows, %d products skipped", len(rows), skipped)


def cmd_intervals(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = manifest.start_stage("intervals")
    table = _boundary_table(config)
    sales_path = out_dir / config.paths.sales
    qty_frames, _ = pipeline.load_sales(str(sales_path))
    manifest.note_input("sales", sales_path)

    base_cfg = ModelConfig(channels=config.bootstrap.channels, kernel_size=config.tcn.kernel,
                           dilations=list(config.bootstrap.dilations))
    usable, skipped = _usable_frames(
        qty_frames, config.window.input_days + config.window.horizon_days, "intervals")
    # One flat task list, so that one product's replicas also spread over the workers.
    tasks = [task for frame in usable for task in intervals_mod.replica_tasks(
        frame,
        replicas=config.bootstrap.replicas,
        min_fraction=config.bootstrap.min_fraction,
        seed=derive_seed(config.seed, "intervals", frame.product_id),
        table=table,
        config=base_cfg,
        epochs=config.bootstrap.epochs,
        lr=config.bootstrap.lr,
        input_days=config.window.input_days,
    )]

    rows, daily_rows = [], []
    z = intervals_mod.z_for_level(config.bootstrap.level)
    with _task_map(len(tasks)) as (task_map, jobs):
        trained = task_map(intervals_mod.train_replica, tasks)
        for frame in usable:
            # Read one product's models at a time and drop them after use.
            pid = frame.product_id
            ensemble = intervals_mod.ensemble_of(
                pid, list(itertools.islice(trained, config.bootstrap.replicas)),
                config.window.input_days)
            history = frame.values[-config.window.input_days:]
            first_day = frame.dates[-1] + dt.timedelta(days=1)
            terms = encode_date_range(first_day, config.window.horizon_days, table)
            interval = intervals_mod.predict_interval(ensemble, history, terms,
                                                      level=config.bootstrap.level)
            rows.append([pid, _fmt(interval.level), _fmt(interval.mean), _fmt(interval.std),
                         _fmt(interval.lower), _fmt(interval.upper)])
            for day in range(interval.daily.shape[1]):
                day_mean = float(interval.daily[:, day].mean())
                day_std = float(interval.daily[:, day].std())
                daily_rows.append([pid, _fmt(interval.level), str(day),
                                   _fmt(day_mean), _fmt(day_std),
                                   _fmt(max(0.0, day_mean - z * day_std)),
                                   _fmt(day_mean + z * day_std)])

    intervals_path = out_dir / config.paths.intervals
    _write_csv(intervals_path, INTERVALS_HEADER, rows)
    daily_path = out_dir / config.paths.intervals_daily
    _write_csv(daily_path, INTERVALS_DAILY_HEADER, daily_rows)
    manifest.end_stage("intervals", started, [str(intervals_path), str(daily_path)],
                       skipped=skipped, jobs=jobs)
    log.info("intervals: %d products, %d skipped", len(rows), skipped)


def _build_criteria(qty: dict[str, pipeline.SeriesFrame],
                    price: dict[str, pipeline.SeriesFrame],
                    costs: dict[str, pipeline.SeriesFrame]) -> mcdm.CriteriaMatrix:
    """Total realized profit and total sales volume per product, joined by date."""
    ids = sorted(set(qty) & set(costs))
    if len(ids) < 2:
        raise InputError("ranking needs at least 2 products present in sales and costs")
    x = np.zeros((len(ids), 2))
    for row, pid in enumerate(ids):
        cost_by_date = dict(zip(costs[pid].dates, costs[pid].values))
        profit = 0.0
        volume = 0.0
        for day, q, p in zip(qty[pid].dates, qty[pid].values, price[pid].values):
            volume += q
            if day in cost_by_date:
                profit += q * (p - cost_by_date[day])
        x[row] = (profit, volume)
    return mcdm.CriteriaMatrix(ids, list(mcdm.DEFAULT_CRITERIA), x)


def cmd_rank(config: RunConfig, out_dir: Path, manifest: RunManifest) -> None:
    started = manifest.start_stage("rank")
    sales_path = out_dir / config.paths.sales
    costs_path = out_dir / config.paths.costs
    qty_frames, price_frames = pipeline.load_sales(str(sales_path))
    cost_frames = pipeline.load_costs(str(costs_path))
    matrix = _build_criteria(qty_frames, price_frames, cost_frames)
    weights, result = mcdm.rank_products(matrix)

    score_by_id = dict(zip(result.product_ids, result.scores))
    d_plus_by_id = dict(zip(result.product_ids, result.d_plus))
    d_minus_by_id = dict(zip(result.product_ids, result.d_minus))
    rows = [[str(rank), pid, _fmt(score_by_id[pid]), _fmt(d_plus_by_id[pid]),
             _fmt(d_minus_by_id[pid])]
            for rank, pid in enumerate(result.ranking, start=1)]
    ranking_path = out_dir / config.paths.ranking
    _write_csv(ranking_path, RANKING_HEADER, rows)

    k = min(config.topsis.top_k, len(result.ranking))
    manifest.end_stage("rank", started, [str(ranking_path)],
                       entropy_weights=[round(v, 6) for v in weights.w],
                       selected=mcdm.select_top(result, k))
    log.info("rank: %d products, weights=%s", len(rows),
             ", ".join(f"{name}={w:.4f}" for name, w in zip(matrix.criteria, weights.w)))


def cmd_optimize(config: RunConfig, out_dir: Path, manifest: RunManifest,
                 baseline: str | None = None) -> None:
    started = manifest.start_stage("optimize")
    forecast_path, intervals_path = out_dir / config.paths.forecast, out_dir / config.paths.intervals
    ranking_rows = pipeline.read_rows(out_dir / config.paths.ranking, RANKING_HEADER)
    forecast_rows = pipeline.read_rows(forecast_path, FORECAST_HEADER)
    interval_rows = pipeline.read_rows(intervals_path, INTERVALS_HEADER)
    qty_frames, price_frames = pipeline.load_sales(str(out_dir / config.paths.sales))

    unit_costs: dict[str, list[float]] = {}
    forecast_lines: dict[tuple[str, dt.date], int] = {}
    for line, row in forecast_rows:  # a negative cost is skipped below, not rejected
        pid, day = row["product_id"], pipeline.read_date(forecast_path, line, row)
        pipeline.check_first(forecast_lines, (pid, day), forecast_path, line, f"{pid} on {day}")
        unit_costs.setdefault(pid, []).append(
            pipeline.read_number(forecast_path, line, row, "predicted_cost"))
    intervals_by_id: dict[str, intervals_mod.SalesInterval] = {}
    interval_lines: dict[str, int] = {}
    for line, row in interval_rows:
        pid = row["product_id"]
        pipeline.check_first(interval_lines, pid, intervals_path, line, pid)
        number = functools.partial(pipeline.read_number, intervals_path, line, row)
        lower = number("lower", 0.0)
        intervals_by_id[pid] = intervals_mod.SalesInterval(
            product_id=pid, mean=number("mean"), std=number("std"),
            lower=lower, upper=number("upper", lower), level=number("level"))

    ranked_ids = [row["product_id"] for _, row in ranking_rows]
    selected = ranked_ids[:min(config.topsis.top_k, len(ranked_ids))]

    contexts, demand_rows, skipped = [], [], []

    def skip(pid: str, reason: str) -> None:
        log.warning("optimize: skipping %s (%s)", pid, reason)
        skipped.append({"product_id": pid, "reason": reason})

    for pid in selected:
        if pid not in unit_costs or pid not in intervals_by_id or pid not in qty_frames:
            skip(pid, "missing forecast, interval, or sales")
            continue
        unit_cost = float(np.mean(unit_costs[pid]))
        if not unit_cost > 0.0:
            skip(pid, f"forecast unit cost {unit_cost:.6f} is not positive")
            continue
        curve = demand_mod.fit_demand(price_frames[pid].values, qty_frames[pid].values, pid)
        demand_rows.append([pid, _fmt(curve.intercept), _fmt(curve.slope),
                            _fmt(curve.r_squared), "true" if curve.anomalous_slope else "false"])
        contexts.append(gaopt.ProductContext(
            product_id=pid,
            unit_cost=unit_cost,
            demand=curve,
            interval=intervals_by_id[pid],
        ))
    if not contexts:
        raise InputError("optimize: no usable products after joining artifacts")

    demand_path = out_dir / config.paths.demand
    _write_csv(demand_path, DEMAND_HEADER, demand_rows)

    ga_config = gaopt.GaConfig(
        pop=config.ga.pop,
        gens=config.ga.gens,
        tournament=config.ga.tournament,
        elitism=config.ga.elitism,
        crossover_rate=config.ga.crossover_rate,
        mutation=gaopt.MutationConfig(prob=config.ga.mutation_prob,
                                      sigma_fraction=config.ga.sigma_fraction,
                                      decay=config.ga.sigma_decay),
        seed=derive_seed(config.seed, "optimize"),
    )
    result = gaopt.evolve(contexts, ga_config)

    plan_rows = [[r["product_id"], _fmt(r["price"]), _fmt(r["allocation"]),
                  _fmt(r["expected_sales"]), _fmt(r["expected_profit"])]
                 for r in gaopt.decode_plan(result.best, contexts)]
    plan_path = out_dir / config.paths.plan
    _write_csv(plan_path, PLAN_HEADER, plan_rows)

    trace_rows = [[str(s.generation), _fmt(s.max_fitness), _fmt(s.min_fitness),
                   _fmt(s.avg_fitness)] for s in result.trace]
    trace_path = out_dir / config.paths.ga_trace
    _write_csv(trace_path, GA_TRACE_HEADER, trace_rows)

    extra = {"best_profit": round(result.best_fitness, 6),
             "evaluations": result.evaluations, "products": len(contexts), "skipped": skipped}
    if baseline == "random":
        _, random_best = gaopt.random_search(
            contexts, result.evaluations, seed=derive_seed(config.seed, "optimize", "baseline"))
        extra["random_search_profit"] = round(random_best, 6)
        log.info("optimize: GA profit %.3f vs random-search %.3f",
                 result.best_fitness, random_best)
    manifest.end_stage("optimize", started,
                       [str(demand_path), str(plan_path), str(trace_path)], **extra)
    log.info("optimize: best weekly profit %.3f over %d products",
             result.best_fitness, len(contexts))


def cmd_evaluate(pred_path: Path, truth_path: Path) -> forecaster.MetricsReport:
    """Join predictions with realized costs on (product_id, date) and score them."""
    pred_rows = pipeline.read_rows(pred_path, FORECAST_HEADER)
    truth = pipeline.load_costs(str(truth_path))
    y, y_hat = [], []
    pred_lines: dict[tuple[str, dt.date], int] = {}
    for line, row in pred_rows:
        predicted = pipeline.read_number(pred_path, line, row, "predicted_cost")
        pid, day = row["product_id"], pipeline.read_date(pred_path, line, row)
        pipeline.check_first(pred_lines, (pid, day), pred_path, line, f"{pid} on {day}")
        if pid not in truth:
            continue
        frame = truth[pid]
        if frame.dates[0] <= day <= frame.dates[-1]:
            y.append(frame.values[(day - frame.dates[0]).days])
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
}

RUN_ALL_ORDER = ["synth", "forecast", "intervals", "rank", "optimize"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.command == "evaluate":
        cmd_evaluate(Path(args.pred), Path(args.truth))
        return 0

    manifest = RunManifest(config, out_dir)
    if args.command == "run-all":
        for name in RUN_ALL_ORDER:
            if name == "optimize":
                cmd_optimize(config, out_dir, manifest, baseline=args.baseline)
            else:
                STAGES[name](config, out_dir, manifest)
    elif args.command == "optimize":
        cmd_optimize(config, out_dir, manifest, baseline=args.baseline)
    else:
        STAGES[args.command](config, out_dir, manifest)
    manifest.write()
    return 0


def main() -> None:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
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
