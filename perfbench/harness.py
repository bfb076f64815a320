"""Set-up, timed iterations, output checks and quality metrics of one run.

Every timed stage is a separate `freshplan` CLI process, as a user runs it,
with BLAS pinned to one thread.  One run generates its inputs once per set-up
repetition, then repeats the workload's stages on copies of the same inputs
until its time is spent; the reported figures are medians over iterations.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from spec import BLAS_ENV, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

from freshplan import autodiff as ad  # noqa: E402
from freshplan import pipeline  # noqa: E402
from freshplan.config import load_config  # noqa: E402
from freshplan.forecaster import ForecasterModel, ModelConfig  # noqa: E402
from freshplan.solarterms import TermBoundaryTable  # noqa: E402

STAGE_TIMEOUT_S = 150
HELD_OUT_DAYS = 7
# plan.csv values carry 6 decimals, so bounds are checked to that precision.
PLAN_TOLERANCE = 2e-6

HEADERS = {
    "forecast.csv": "product_id,date,predicted_cost",
    "loss_curves.csv": "product_id,epoch,loss",
    "intervals.csv": "product_id,level,mean,std,lower,upper",
    "intervals_daily.csv": "product_id,level,day_offset,mean,std,lower,upper",
    "demand.csv": "product_id,intercept,slope,r_squared,anomalous_slope",
    "ranking.csv": "rank,product_id,score,d_plus,d_minus",
    "plan.csv": "product_id,price,allocation,expected_sales,expected_profit",
    "ga_trace.csv": "generation,max,min,avg",
}


class SetupError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)


@dataclass
class Proc:
    code: int
    seconds: float
    rss_mb: float


def run_process(cmd: list[str], log_path: Path, timeout: float = STAGE_TIMEOUT_S) -> Proc:
    """Run to completion; wall time and peak RSS come from this child alone."""
    with open(log_path, "ab") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        reaped: dict = {}

        def reap() -> None:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped.update(end=time.perf_counter(), status=status, usage=usage)

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
    return Proc(proc.returncode, reaped["end"] - started, reaped["usage"].ru_maxrss / 1024.0)


def cli_args(seed: int, out: Path, overrides, stage: str) -> list[str]:
    flags = [f for item in overrides for f in ("--set", item)]
    return ["--seed", str(seed), "--out", str(out), *flags, stage]


# -- set-up ----------------------------------------------------------------------


@dataclass
class Inputs:
    dir: Path
    held_costs: dict[str, np.ndarray]   # product -> the 7 held-out daily costs
    held_sales: dict[str, np.ndarray]   # product -> the 7 held-out daily sales
    mean_sales: dict[str, float]        # product -> mean daily sales the program saw
    first_held_out: dt.date


def set_up(workload: Workload, seed: int, out: Path) -> Inputs:
    """Generate `days + 7` days, hand the program the first `days`, and build
    the upstream artifacts the timed stages read."""
    out.mkdir(parents=True)
    days = workload.days
    costs, sales, prices = pipeline.generate_synthetic(
        workload.products, days + HELD_OUT_DAYS, seed, TermBoundaryTable())

    def history(frames):
        return {pid: frame.slice(0, days) for pid, frame in frames.items()}

    pipeline.write_costs(str(out / "costs.csv"), history(costs))
    pipeline.write_sales(str(out / "sales.csv"), history(sales), history(prices))
    for stage in workload.setup_stages:
        proc = run_process([sys.executable, "-m", "freshplan.cli",
                            *cli_args(seed, out, workload.setup_overrides, stage)],
                           out / "setup.log")
        if proc.code != 0:
            raise SetupError(f"set-up stage {stage} exited with {proc.code}; see {out}/setup.log")
    return Inputs(
        dir=out,
        held_costs={pid: f.values[days:] for pid, f in costs.items()},
        held_sales={pid: f.values[days:] for pid, f in sales.items()},
        mean_sales={pid: float(f.values[:days].mean()) for pid, f in sales.items()},
        first_held_out=next(iter(costs.values())).dates[days],
    )


# -- one timed iteration -----------------------------------------------------------


@dataclass
class Iteration:
    traced: bool
    plan_s: float
    rss_mb: float
    stages: dict[str, dict]
    failures: list[str]
    digests: dict[str, str]
    spans: list[list] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # trace targets not found


def run_iteration(workload: Workload, seed: int, inputs: Inputs, out: Path,
                  traced: bool) -> Iteration:
    shutil.copytree(inputs.dir, out, ignore=shutil.ignore_patterns("*.log", "manifest.json"))
    stages, failures, spans, missing = {}, [], [], []
    for stage in workload.stages:
        args = cli_args(seed, out, workload.overrides, stage)
        spans_path = out / f"spans-{stage}.json"
        if traced:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), "--", *args]
        else:
            cmd = [sys.executable, "-m", "freshplan.cli", *args]
        proc = run_process(cmd, out / "stages.log")
        manifest = _read_json(out / "manifest.json").get("stages", {}).get(stage, {})
        stages[stage] = {"s": proc.seconds, "rss_mb": proc.rss_mb, "code": proc.code,
                         "manifest_s": manifest.get("seconds", 0.0)}
        if proc.code != 0:
            failures.append(f"{stage} exited with code {proc.code}")
            break
        if manifest.get("skipped"):
            failures.append(f"{stage} skipped {manifest['skipped']} products")
        if traced:
            offset, traced_run = len(spans), _read_json(spans_path)
            missing += traced_run.get("missing", [])
            for name, start, end, parent, count in traced_run.get("spans", []):
                spans.append([name, start, end, parent + offset if parent >= 0 else -1, count])
    failures += check_outputs(workload, out) if not failures else []
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in workload.artifacts if (out / name).exists()}
    return Iteration(traced=traced, plan_s=sum(s["s"] for s in stages.values()),
                     rss_mb=max(s["rss_mb"] for s in stages.values()),
                     stages=stages, failures=failures, digests=digests, spans=spans,
                     missing=missing)


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# -- output checks --------------------------------------------------------------------


def check_outputs(workload: Workload, out: Path) -> list[str]:
    """Headers, row counts and plan feasibility of one iteration's artifacts."""
    failures = []
    for name in workload.artifacts:
        path = out / name
        if not path.exists():
            failures.append(f"{name} missing")
            continue
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != HEADERS[name]:
            failures.append(f"{name} header {header!r} != {HEADERS[name]!r}")
    if failures:
        return failures
    products = workload.products
    config = load_config(None, list(workload.overrides))
    expected_rows = {
        "forecast.csv": HELD_OUT_DAYS * products,
        "intervals.csv": products,
        "intervals_daily.csv": HELD_OUT_DAYS * products,
        "ranking.csv": products,
        "plan.csv": min(config.topsis.top_k, products),
        "ga_trace.csv": config.ga.gens,
    }
    for name in workload.artifacts:
        if name in expected_rows:
            rows = len(read_csv(out / name))
            if rows != expected_rows[name]:
                failures.append(f"{name} has {rows} rows, expected {expected_rows[name]}")
    if "plan.csv" in workload.artifacts:
        bounds = {r["product_id"]: (float(r["lower"]), float(r["upper"]))
                  for r in read_csv(out / "intervals.csv")}
        for row in read_csv(out / "plan.csv"):
            pid, price, alloc = row["product_id"], float(row["price"]), float(row["allocation"])
            lower, upper = bounds.get(pid, (np.nan, np.nan))
            if not price > 0.0:
                failures.append(f"plan {pid}: price {price} is not positive")
            if not lower - PLAN_TOLERANCE <= alloc <= upper + PLAN_TOLERANCE:
                failures.append(f"plan {pid}: allocation {alloc} outside [{lower}, {upper}]")
    return failures


# -- quality metrics ------------------------------------------------------------------


def quality(workload: Workload, out: Path, inputs: Inputs, scored: bool) -> dict[str, float]:
    """Plan quality, GA progress, and forecast and interval quality against
    the held-out week, for the artifacts the timed stages write.

    End-to-end scores a workload does not apply (`workload.scored`) read 1.0,
    per-layer scores read 0.0 where there is nothing to score, and everything
    reads 0.0 when the iteration failed (`scored` false).
    """
    result = {"plan_profit": 1.0, "forecast_mae": 1.0, "interval_coverage": 1.0,
              "gaopt.improving_gen_frac": 0.0, "intervals.winkler": 0.0}
    if not scored:
        return dict.fromkeys(result, 0.0)
    if "plan_profit" in workload.scored:
        result["plan_profit"] = plan_profit(out, inputs)
    if "forecast_mae" in workload.scored:
        errors, truths = [], []
        for row in read_csv(out / "forecast.csv"):
            day = (dt.date.fromisoformat(row["date"]) - inputs.first_held_out).days
            truths.append(inputs.held_costs[row["product_id"]][day])
            errors.append(abs(float(row["predicted_cost"]) - truths[-1]))
        result["forecast_mae"] = float(np.mean(errors) / np.mean(truths))
    if "interval_coverage" in workload.scored:
        # Daily: seven held-out days per product vary less from seed to seed
        # than one weekly total per product.
        inside = [float(r["lower"]) <= inputs.held_sales[r["product_id"]][int(r["day_offset"])]
                  <= float(r["upper"]) for r in read_csv(out / "intervals_daily.csv")]
        result["interval_coverage"] = float(np.mean(inside))
    if "ga_trace.csv" in workload.artifacts:
        best = [float(r["max"]) for r in read_csv(out / "ga_trace.csv")]
        result["gaopt.improving_gen_frac"] = sum(b > a for a, b in zip(best, best[1:])) / len(best)
    if "intervals.csv" in workload.artifacts:
        scores = []
        for row in read_csv(out / "intervals.csv"):
            truth = float(inputs.held_sales[row["product_id"]].sum())
            scores.append(winkler(float(row["lower"]), float(row["upper"]), truth,
                                  1.0 - float(row["level"])) / truth)
        result["intervals.winkler"] = float(np.mean(scores))
    return result


def winkler(lower: float, upper: float, y: float, alpha: float) -> float:
    """Interval width plus 2/alpha times the distance by which y misses it."""
    return (upper - lower) + (2.0 / alpha) * (max(0.0, lower - y) + max(0.0, y - upper))


def plan_profit(out: Path, inputs: Inputs) -> float:
    """plan.csv's expected profit over the exact optimum of the same problem.

    Products are independent in the objective, so the optimum is the sum of
    per-product optima, each found on a fine price grid with the best
    allocation for each price.  The problem is rebuilt from the documented
    artifacts: the mean forecast cost, the demand line and the weekly interval.
    """
    cost = {}
    for row in read_csv(out / "forecast.csv"):
        cost.setdefault(row["product_id"], []).append(float(row["predicted_cost"]))
    demand = {r["product_id"]: (float(r["intercept"]), float(r["slope"]))
              for r in read_csv(out / "demand.csv")}
    interval = {r["product_id"]: (float(r["lower"]), float(r["upper"]))
                for r in read_csv(out / "intervals.csv")}
    plan = read_csv(out / "plan.csv")
    optimum = 0.0
    eps = 1e-6
    for row in plan:
        pid = row["product_id"]
        c = float(np.mean(cost[pid]))
        intercept, slope = demand[pid]
        lower, upper = interval[pid]
        a_hi = max(upper, eps)
        a_lo = min(max(lower, eps), a_hi)
        if slope < 0.0:
            p_lo = max(eps, (upper / 7.0 - intercept) / slope)
            p_hi = max(p_lo, (lower / 7.0 - intercept) / slope)
            prices = np.linspace(p_lo, p_hi, 200001)
            weekly = 7.0 * np.maximum(0.0, intercept + slope * prices)
        else:
            prices = np.linspace(eps, max(5.0 * c, 2.0 * eps), 200001)
            weekly = np.full_like(prices, np.clip(7.0 * max(0.0, inputs.mean_sales[pid]),
                                                  lower, upper))
        alloc = np.where(prices > c, np.clip(weekly, a_lo, a_hi), a_lo)
        optimum += float(np.max(prices * np.minimum(alloc, weekly) - c * alloc))
    return sum(float(r["expected_profit"]) for r in plan) / optimum


# -- traced runs -----------------------------------------------------------------------


def traced_metrics(workload: Workload, done: list[Iteration]) -> dict[str, float]:
    """Per-layer medians over the traced iterations of one run."""
    traced = [it for it in done if it.traced]
    plan_s_untraced = median(it.plan_s for it in done if not it.traced)
    layers = [tracing.per_layer(it.spans) for it in traced]
    metrics = {name: median(layer[name] for layer in layers) for name in layers[0]}
    for stage in ("forecast", "intervals", "rank", "optimize"):
        metrics[f"cli.{stage}_s"] = median(
            it.stages.get(stage, {}).get("manifest_s", 0.0) for it in traced)
    plan_s_traced = median(it.plan_s for it in traced)
    roots = median(sum(end - start for _, start, end, parent, _ in it.spans if parent < 0)
                   for it in traced)
    metrics.update({
        "autodiff.graph_nodes_deploy": graph_nodes(workload.overrides, "deploy"),
        "autodiff.graph_nodes_replica": graph_nodes(workload.overrides, "replica"),
        "trace.plan_s_untraced": plan_s_untraced,
        "trace.plan_s_traced": plan_s_traced,
        "trace.overhead_s": plan_s_traced - plan_s_untraced,
        "trace.unattributed_s": plan_s_traced - roots,
    })
    return metrics


# -- graph size -------------------------------------------------------------------------


def graph_nodes(overrides, shape: str) -> int:
    """Nodes in one training loss graph (batch 64) at the deploy or replica shape."""
    config = load_config(None, list(overrides))
    if shape == "deploy":
        model_cfg = ModelConfig(config.tcn.channels, config.tcn.kernel, list(config.tcn.dilations))
    else:
        model_cfg = ModelConfig(config.bootstrap.channels, config.tcn.kernel,
                                list(config.bootstrap.dilations))
    model = ForecasterModel.create(pipeline.Normalizer(0.0, 1.0), "graph", 0, model_cfg)
    batch = 64
    history = ad.Tensor(np.zeros((batch, config.window.input_days, 1)))
    terms = ad.Tensor(np.zeros((batch, config.window.horizon_days, 10)))
    target = ad.Tensor(np.zeros((batch, config.window.horizon_days)))
    loss = ad.mean((model.forward(history, terms) - target) ** 2)
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


# -- machine facts -------------------------------------------------------------------------


def machine_facts() -> dict[str, str | int]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, check=False)
        commit = probe.stdout.strip() or commit
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count() or 0,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": ",".join(f"{k}={v}" for k, v in BLAS_ENV.items()),
        "commit": commit,
    }


def median(values) -> float:
    return float(statistics.median(values))
