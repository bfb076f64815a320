import csv
import datetime as dt
import gc
import hashlib
import json
import multiprocessing
import os
import shlex
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from freshplan import cli, forecaster, intervals, pipeline
from freshplan.config import RunConfig, RunManifest, derive_seed, file_digest, load_config
from freshplan.errors import InputError, InvariantError
from freshplan.forecaster import ModelConfig
from freshplan.solarterms import DEFAULT_BOUNDARIES, encode_date_range


def tiny_config(**extra) -> RunConfig:
    cfg = RunConfig()
    cfg.synth.products = 6
    cfg.synth.days = 70
    cfg.tcn.channels = 4
    cfg.train.epochs = 3
    cfg.bootstrap.replicas = 2
    cfg.bootstrap.epochs = 2
    cfg.bootstrap.channels = 4
    cfg.topsis.top_k = 4
    cfg.ga.pop = 20
    cfg.ga.gens = 25
    for key, value in extra.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_rows(path: Path) -> list[list[str]]:
    """The rows of a CSV file after its header, as strings."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_config()
    manifest = RunManifest(cfg, out)
    cli.cmd_synth(cfg, out, manifest)
    cli.cmd_forecast(cfg, out, manifest)
    cli.cmd_intervals(cfg, out, manifest)
    cli.cmd_rank(cfg, out, manifest)
    cli.cmd_optimize(cfg, out, manifest, baseline="random")
    manifest.write()
    return cfg, out, manifest


class TestStages:
    def test_synth_files_parse_and_match_headers(self, full_run):
        _, out, _ = full_run
        costs = read_table(out / "costs.csv")
        sales = read_table(out / "sales.csv")
        assert set(costs[0]) == {"date", "product_id", "wholesale_cost"}
        assert set(sales[0]) == {"date", "product_id", "quantity_kg", "unit_price"}
        assert len({r["product_id"] for r in costs}) == 6

    def test_forecast_seven_rows_per_product(self, full_run):
        _, out, _ = full_run
        rows = read_table(out / "forecast.csv")
        by_pid = {}
        for r in rows:
            by_pid.setdefault(r["product_id"], []).append(r)
        assert len(rows) == 6 * 7
        assert all(len(v) == 7 for v in by_pid.values())

    def test_intervals_rows_ordered(self, full_run):
        _, out, _ = full_run
        rows = read_table(out / "intervals.csv")
        assert len(rows) == 6
        for r in rows:
            lower, mean, upper = float(r["lower"]), float(r["mean"]), float(r["upper"])
            assert 0.0 <= lower <= mean <= upper

    def test_ranking_has_exact_header_and_unit_scores(self, full_run):
        _, out, _ = full_run
        with open(out / "ranking.csv") as fh:
            header = fh.readline().strip()
        assert header == "rank,product_id,score,d_plus,d_minus"
        rows = read_table(out / "ranking.csv")
        assert [r["rank"] for r in rows] == [str(i) for i in range(1, 7)]
        assert all(0.0 <= float(r["score"]) <= 1.0 for r in rows)

    def test_plan_rows_and_positivity(self, full_run):
        cfg, out, _ = full_run
        rows = read_table(out / "plan.csv")
        assert len(rows) == cfg.topsis.top_k
        assert all(float(r["price"]) > 0 and float(r["allocation"]) > 0 for r in rows)

    def test_plan_products_are_top_ranked(self, full_run):
        cfg, out, _ = full_run
        ranked = [r["product_id"] for r in read_table(out / "ranking.csv")]
        planned = [r["product_id"] for r in read_table(out / "plan.csv")]
        assert planned == ranked[:cfg.topsis.top_k]

    def test_ga_trace_max_non_decreasing(self, full_run):
        _, out, _ = full_run
        maxima = [float(r["max"]) for r in read_table(out / "ga_trace.csv")]
        assert all(b >= a for a, b in zip(maxima, maxima[1:]))

    def test_manifest_records_stages_and_baseline(self, full_run):
        cfg, out, manifest = full_run
        stages = manifest.data["stages"]
        assert set(stages) == {"synth", "forecast", "intervals", "rank", "optimize"}
        assert stages["forecast"]["skipped"] == 0
        # One worker per usable CPU, capped by the task count: 6 products to
        # forecast, 6 x 2 replicas to train for intervals.
        cpus = len(os.sched_getaffinity(0))
        assert stages["forecast"]["jobs"] == min(cpus, 6)
        assert stages["intervals"]["jobs"] == min(cpus, 12)
        assert "random_search_profit" in stages["optimize"]
        assert stages["optimize"]["skipped"] == []
        # GA convergence: the trace's best is final from the last improving generation on.
        last = stages["optimize"]["last_improving_generation"]
        maxima = [r["max"] for r in read_table(out / "ga_trace.csv")]
        assert 0 <= last < cfg.ga.gens
        assert set(maxima[last:]) == {maxima[-1]}
        assert stages["optimize"]["evaluations_per_s"] > 0
        # Training cost per stage: one Adam step per mini-batch of every epoch.
        windows = cfg.synth.days - cfg.window.input_days - pipeline.HORIZON_DAYS + 1
        batches = -(-windows // forecaster.BATCH_SIZE)
        assert stages["forecast"]["steps"] == 6 * cfg.train.epochs * batches
        assert stages["intervals"]["steps"] >= 6 * 2 * cfg.bootstrap.epochs
        for stage in ("forecast", "intervals"):
            assert 0 < stages[stage]["train_s"] <= stages[stage]["seconds"] * stages[stage]["jobs"]
        assert (out / "manifest.json").exists()

    def test_demand_csv_schema(self, full_run):
        _, out, _ = full_run
        rows = read_table(out / "demand.csv")
        assert set(rows[0]) == {"product_id", "intercept", "slope", "r_squared",
                                "anomalous_slope"}
        assert all(r["anomalous_slope"] in ("true", "false") for r in rows)


class TestForecastScale:
    def test_61_products_give_427_rows(self, tmp_path):
        cfg = tiny_config()
        cfg.synth.products = 61
        cfg.synth.days = 40
        cfg.train.epochs = 2
        manifest = RunManifest(cfg, tmp_path)
        cli.cmd_synth(cfg, tmp_path, manifest)
        cli.cmd_forecast(cfg, tmp_path, manifest)
        rows = read_table(tmp_path / "forecast.csv")
        assert len(rows) == 61 * 7 == 427
        assert len({r["product_id"] for r in rows}) == 61


class TestForecastSkips:
    def test_short_product_skipped_with_warning(self, tmp_path, caplog):
        cfg = tiny_config()
        out = tmp_path
        manifest = RunManifest(cfg, out)
        cli.cmd_synth(cfg, out, manifest)
        # truncate one product to 21 days
        rows = read_table(out / "costs.csv")
        keep = [r for r in rows if r["product_id"] != "P0"]
        keep += [r for r in rows if r["product_id"] == "P0"][:21]
        keep.sort(key=lambda r: (r["product_id"], r["date"]))
        with open(out / "costs.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["date", "product_id", "wholesale_cost"],
                                    lineterminator="\n")
            writer.writeheader()
            writer.writerows(keep)
        cli.cmd_forecast(cfg, out, manifest)
        forecast = read_table(out / "forecast.csv")
        assert "P0" not in {r["product_id"] for r in forecast}
        assert manifest.data["stages"]["forecast"]["skipped"] == 1

    @pytest.mark.parametrize("stage", ["forecast", "intervals"])
    def test_no_usable_product_is_input_error(self, tmp_path, monkeypatch, caplog, stage):
        # A has 2 days and B 1: a header-only artifact would fail every later reader.
        name, header, rows = {
            "forecast": ("costs.csv", "date,product_id,wholesale_cost", COSTS_OK),
            "intervals": ("sales.csv", "date,product_id,quantity_kg,unit_price", SALES_OK)}[stage]
        (tmp_path / name).write_text(header + "\n" + "\n".join(rows) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), stage]) == 1
        assert f"{stage}: no product has the 22 days a window needs (2 skipped)" in caplog.text
        assert [path.name for path in tmp_path.iterdir()] == [name]


class TestOptimizeSkips:
    def test_nonpositive_forecast_cost_is_skipped(self, full_run, tmp_path):
        cfg, src, _ = full_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        top = read_table(out / "ranking.csv")[0]["product_id"]
        rows = read_table(out / "forecast.csv")
        first = next(r for r in rows if r["product_id"] == top)
        first["predicted_cost"] = "-1000000.0"  # one row drags the weekly mean below zero
        with open(out / "forecast.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=pipeline.FORECAST.header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        manifest = RunManifest(cfg, out)
        cli.cmd_optimize(cfg, out, manifest)
        planned = [r["product_id"] for r in read_table(out / "plan.csv")]
        assert top not in planned
        assert len(planned) == cfg.topsis.top_k - 1
        [entry] = manifest.data["stages"]["optimize"]["skipped"]
        assert entry["product_id"] == top
        assert "not positive" in entry["reason"]

    @pytest.mark.parametrize("change,reason", [("constant price", "price is 5.000000 on all"),
                                               ("two days", "at least 3 days")])
    def test_unfittable_demand_curve_is_skipped(self, full_run, tmp_path, change, reason):
        cfg, src, _ = full_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        top = read_table(out / "ranking.csv")[0]["product_id"]
        rows = read_table(out / "sales.csv")
        if change == "constant price":
            for r in rows:
                if r["product_id"] == top:
                    r["unit_price"] = "5.000000"
        else:
            kept = [r for r in rows if r["product_id"] == top][:2]
            rows = [r for r in rows if r["product_id"] != top or r in kept]
        with open(out / "sales.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        manifest = RunManifest(cfg, out)
        cli.cmd_optimize(cfg, out, manifest)
        planned = [r["product_id"] for r in read_table(out / "plan.csv")]
        assert top not in planned and len(planned) == cfg.topsis.top_k - 1
        assert top not in [r["product_id"] for r in read_table(out / "demand.csv")]
        [entry] = manifest.data["stages"]["optimize"]["skipped"]
        assert entry["product_id"] == top
        assert top in entry["reason"] and reason in entry["reason"]

class TestOptimizeAtGaEdges:
    """The GA bounds the library accepts (pop 1, no generations) run end to end."""

    def optimize(self, full_run, tmp_path, monkeypatch, *settings):
        cfg, src, _ = full_run
        out = tmp_path / "run"
        shutil.copytree(src, out)
        decoded = []

        def recording_decode(chromosome, problem):
            decoded.append((chromosome, problem))
            return decode_plan(chromosome, problem)

        decode_plan = cli.gaopt.decode_plan
        monkeypatch.setattr(cli.gaopt, "decode_plan", recording_decode)
        flags = [f for key in (f"topsis.top_k={cfg.topsis.top_k}", *settings) for f in ("--set", key)]
        assert cli.run([*flags, "--out", str(out), "optimize"]) == 0
        [(best, problem)] = decoded
        return out, best, problem

    def test_no_generations(self, full_run, tmp_path, monkeypatch):
        out, best, problem = self.optimize(full_run, tmp_path, monkeypatch, "ga.gens=0")
        assert (out / "ga_trace.csv").read_text() == ",".join(cli.GA_TRACE_HEADER) + "\n"
        stage = json.loads((out / "manifest.json").read_text())["stages"]["optimize"]
        assert stage["last_improving_generation"] == -1
        assert np.all(problem.low <= best) and np.all(best <= problem.high)
        plan = read_table(out / "plan.csv")
        assert [r["product_id"] for r in plan] == problem.product_ids
        genes = np.array([[float(r["price"]), float(r["allocation"])] for r in plan]).ravel()
        rounding = 5e-7  # the CSV keeps 6 decimals
        assert np.all(problem.low - rounding <= genes) and np.all(genes <= problem.high + rounding)

    def test_population_of_one(self, full_run, tmp_path, monkeypatch):
        out, _, _ = self.optimize(full_run, tmp_path, monkeypatch, "ga.pop=1", "ga.gens=5")
        assert len(read_rows(out / "ga_trace.csv")) == 5


class TestIntervalLevels:
    def test_higher_level_never_narrower(self, tmp_path):
        out_lo, out_hi = tmp_path / "lo", tmp_path / "hi"
        for out, level in ((out_lo, 0.90), (out_hi, 0.99)):
            out.mkdir()
            cfg = tiny_config()
            cfg.bootstrap.level = level
            manifest = RunManifest(cfg, out)
            cli.cmd_synth(cfg, out, manifest)
            cli.cmd_intervals(cfg, out, manifest)
        lo = {r["product_id"]: r for r in read_table(out_lo / "intervals.csv")}
        hi = {r["product_id"]: r for r in read_table(out_hi / "intervals.csv")}
        for pid in lo:
            width_lo = float(lo[pid]["upper"]) - float(lo[pid]["lower"])
            width_hi = float(hi[pid]["upper"]) - float(hi[pid]["lower"])
            assert width_hi >= width_lo


class TestRankScaling:
    def test_doubling_profit_keeps_permutation(self, tmp_path):
        base, scaled = tmp_path / "base", tmp_path / "scaled"
        for out in (base, scaled):
            out.mkdir()
            cfg = tiny_config()
            manifest = RunManifest(cfg, out)
            cli.cmd_synth(cfg, out, manifest)
            if out is scaled:
                # double every margin: price' = 2p - c doubles profit rows,
                # leaves volumes unchanged
                costs = {(r["date"], r["product_id"]): float(r["wholesale_cost"])
                         for r in read_table(out / "costs.csv")}
                rows = read_table(out / "sales.csv")
                for r in rows:
                    c = costs[(r["date"], r["product_id"])]
                    r["unit_price"] = f"{2 * float(r['unit_price']) - c:.6f}"
                with open(out / "sales.csv", "w", newline="") as fh:
                    writer = csv.DictWriter(
                        fh, fieldnames=["date", "product_id", "quantity_kg", "unit_price"],
                        lineterminator="\n")
                    writer.writeheader()
                    writer.writerows(rows)
            cli.cmd_rank(cfg, out, manifest)
        base_order = [r["product_id"] for r in read_table(base / "ranking.csv")]
        scaled_order = [r["product_id"] for r in read_table(scaled / "ranking.csv")]
        assert base_order == scaled_order


def exit_code(monkeypatch, argv: list[str]) -> int:
    """Exit code of the `freshplan` entry point (cli.main over cli.run) for argv."""
    monkeypatch.setattr(sys, "argv", ["freshplan", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


COSTS_OK = ["2023-01-01,A,1.0", "2023-01-02,A,2.0", "2023-01-01,B,3.0"]
SALES_OK = ["2023-01-01,A,10.0,2.0", "2023-01-02,A,12.0,2.5", "2023-01-01,B,8.0,4.0"]


class TestBadInputRows:
    """Malformed rows fail at load with exit 1 and a file:line message."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_costs_value_rejected(self, tmp_path, monkeypatch, caplog, value):
        rows = [*COSTS_OK[:2], f"2023-01-01,B,{value}"]
        (tmp_path / "costs.csv").write_text(
            "date,product_id,wholesale_cost\n" + "\n".join(rows) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), "forecast"]) == 1
        assert "costs.csv:4: wholesale_cost must be a finite number >= 0" in caplog.text

    @pytest.mark.parametrize("column,row", [
        ("quantity_kg", "2023-01-01,B,nan,4.0"),
        ("quantity_kg", "2023-01-01,B,-1.0,4.0"),
        ("unit_price", "2023-01-01,B,8.0,inf"),
        ("unit_price", "2023-01-01,B,8.0,-inf"),
    ])
    def test_sales_value_rejected(self, tmp_path, monkeypatch, caplog, column, row):
        (tmp_path / "sales.csv").write_text(
            "date,product_id,quantity_kg,unit_price\n" + "\n".join([*SALES_OK[:2], row]) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), "intervals"]) == 1
        assert f"sales.csv:4: {column} must be a finite number >= 0" in caplog.text

    def test_duplicate_costs_row_rejected(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "costs.csv").write_text(
            "date,product_id,wholesale_cost\n" + "\n".join([*COSTS_OK, "2023-01-02,A,2.5"]) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), "forecast"]) == 1
        assert "costs.csv:5: duplicate row for A on 2023-01-02 (first at line 3)" in caplog.text

    def test_duplicate_sales_row_rejected(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "sales.csv").write_text(
            "date,product_id,quantity_kg,unit_price\n"
            + "\n".join([*SALES_OK, "2023-01-01,A,11.0,2.0"]) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), "intervals"]) == 1
        assert "sales.csv:5: duplicate row for A on 2023-01-01 (first at line 2)" in caplog.text

    def test_unparseable_value_rejected(self, tmp_path, monkeypatch, caplog):
        (tmp_path / "costs.csv").write_text(
            "date,product_id,wholesale_cost\n" + "\n".join([*COSTS_OK, "2023-01-03,A,cheap"]) + "\n")
        assert exit_code(monkeypatch, ["--out", str(tmp_path), "forecast"]) == 1
        assert "costs.csv:5: wholesale_cost must be a finite number >= 0, got 'cheap'" in caplog.text

    @pytest.mark.parametrize("artifact,column,value,message", [
        ("forecast.csv", "predicted_cost", "abc", "predicted_cost must be a finite number, got 'abc'"),
        ("intervals.csv", "lower", "nan", "lower must be a finite number >= 0, got 'nan'"),
        ("intervals.csv", "lower", "1e9", "upper must be a finite number >= 1e+09"),  # lower > upper
    ])
    def test_optimize_artifact_value_rejected(self, full_run, tmp_path, monkeypatch, caplog,
                                              artifact, column, value, message):
        out = tmp_path / "run"
        shutil.copytree(full_run[1], out)
        rows = read_table(out / artifact)
        rows[1][column] = value
        with open(out / artifact, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert exit_code(monkeypatch, ["--out", str(out), "optimize"]) == 1
        assert f"{artifact}:3: {message}" in caplog.text

    @pytest.mark.parametrize("artifact", ["forecast.csv", "intervals.csv", "ranking.csv"])
    def test_optimize_duplicate_artifact_row_rejected(self, full_run, tmp_path, monkeypatch,
                                                      caplog, artifact):
        out = tmp_path / "run"
        shutil.copytree(full_run[1], out)
        rows = read_table(out / artifact)
        with open(out / artifact, "a", newline="") as fh:
            csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n").writerow(rows[0])
        first = rows[0]
        label = (f"{first['product_id']} on {first['date']}" if artifact == "forecast.csv"
                 else first["product_id"])
        assert exit_code(monkeypatch, ["--out", str(out), "optimize"]) == 1
        assert (f"{artifact}:{len(rows) + 2}: duplicate row for {label} (first at line 2)"
                in caplog.text)

    def test_evaluate_bad_prediction_rejected(self, tmp_path, monkeypatch, caplog):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n" + "\n".join(COSTS_OK) + "\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\nA,2023-01-01,2.0\nA,2023-01-02,inf\n")
        assert exit_code(monkeypatch, ["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 1
        assert "forecast.csv:3: predicted_cost must be a finite number, got 'inf'" in caplog.text

    def test_evaluate_bad_date_rejected(self, tmp_path, monkeypatch, caplog):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n" + "\n".join(COSTS_OK) + "\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\nA,2023-01-01,2.0\nA,2023-13-01,2.0\n")
        assert exit_code(monkeypatch, ["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 1
        assert ("forecast.csv:3: date must be an ISO date (YYYY-MM-DD), got '2023-13-01'"
                in caplog.text)

    def test_evaluate_duplicate_prediction_rejected(self, tmp_path, monkeypatch, caplog):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n" + "\n".join(COSTS_OK) + "\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\n"
                        "A,2023-01-01,1.0\nA,2023-01-02,2.0\nA,2023-01-02,9.0\n")
        assert exit_code(monkeypatch, ["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 1
        assert ("forecast.csv:4: duplicate row for A on 2023-01-02 (first at line 3)"
                in caplog.text)

    def test_evaluate_header_mismatch_message(self, tmp_path, monkeypatch, caplog):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n" + "\n".join(COSTS_OK) + "\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product,date,cost\nA,2023-01-01,2.0\n")
        assert exit_code(monkeypatch, ["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 1
        assert (f"{pred}: expected header product_id,date,predicted_cost, "
                f"got ['product', 'date', 'cost']") in caplog.text


A12_FLAGS = [f for key in ("synth.products=10", "synth.days=130", "tcn.channels=6",
                            "train.epochs=5", "bootstrap.replicas=3", "bootstrap.epochs=3",
                            "bootstrap.channels=4", "topsis.top_k=6", "ga.pop=30", "ga.gens=40")
             for f in ("--set", key)]
RUN_ALL_CSVS = ("forecast.csv", "loss_curves.csv", "intervals.csv", "intervals_daily.csv",
                "ranking.csv", "demand.csv", "plan.csv", "ga_trace.csv")


def stage_argv(source: str, out: Path) -> list[str]:
    """The command line of a stage that reads the input `source` from `out`."""
    return {"costs": ["--out", str(out), "forecast"],
            "sales": ["--out", str(out), "intervals"],
            "boundaries": ["--out", str(out), "--set", f"paths.boundaries={out / 'boundaries.csv'}",
                           "synth"],
            "forecast": ["--out", str(out), "optimize"],
            "intervals": ["--out", str(out), "optimize"],
            "ranking": ["--out", str(out), "optimize"],
            "predictions": ["evaluate", "--pred", str(out / "forecast.csv"),
                            "--truth", str(out / "costs.csv")]}[source]


def corruptions(schema: pipeline.Schema) -> list[tuple[str, str | None]]:
    """(corruption, column) pairs that apply to an input of `schema`."""
    cases: list[tuple[str, str | None]] = [("duplicate key", None), ("wrong header", None),
                                           ("header only", None)]
    for column, kind in zip(schema.header, schema.kinds):
        if kind == pipeline.DATE:
            cases.append(("2023-13-01", column))
        elif kind != pipeline.TEXT:
            cases += [(value, column) for value in ("nan", "inf", "1e308")]
            if kind == pipeline.NONNEGATIVE:
                cases.append(("-1.5", column))
    return cases


SCHEMA_CASES = [
    pytest.param(source, name, corruption, column, id=f"{source}-{corruption}-{column or 'file'}")
    for source, name, schema in [*((name.removesuffix(".csv"), name, schema)
                                   for name, schema in pipeline.SCHEMAS.items()),
                                 ("predictions", "forecast.csv", pipeline.FORECAST)]
    for corruption, column in corruptions(schema)] + [
    # A ranked product with no forecast, interval or sales row.
    pytest.param("ranking", "ranking.csv", "P999", "product_id", id="ranking-unknown id-product_id")]


class TestInputSchemas:
    """Every input goes through `pipeline.read_csv`: a bad file is exit 1 with a
    `<file>:<line>` message (`<file>:` for its header or an empty body).  A
    ranked product unknown to the other inputs is a documented skip, exit 0."""

    @pytest.mark.parametrize("source,name,corruption,column", SCHEMA_CASES)
    def test_corrupt_input_rejected(self, full_run, tmp_path, monkeypatch, capsys, caplog,
                                    source, name, corruption, column):
        out = tmp_path / "run"
        shutil.copytree(full_run[1], out)
        boundaries = [f"{i},{m},{d}" for i, (m, d) in enumerate(DEFAULT_BOUNDARIES)]
        (out / "boundaries.csv").write_text("term_index,month,day\n" + "\n".join(boundaries) + "\n")
        header, *rows = (out / name).read_text().splitlines()
        if corruption == "duplicate key":
            rows.append(rows[0])
            where = f"{name}:{len(rows) + 1}: duplicate row for"
        elif corruption == "wrong header":
            header = header.rsplit(",", 1)[0] + ",x"
            where = f"{name}: expected header"
        elif corruption == "header only":
            rows = []
            where = f"{name}: no rows"
        else:
            at = header.split(",").index(column)
            fields = rows[1].split(",")
            fields[at] = corruption
            rows[1] = ",".join(fields)
            where = f"{name}:3: {column} must be"
        (out / name).write_text("\n".join([header, *rows]) + "\n")
        if column == "product_id":
            assert exit_code(monkeypatch, stage_argv(source, out)) == 0
            stage = json.loads((out / "manifest.json").read_text())["stages"]["optimize"]
            assert stage["skipped"] == [{"product_id": corruption,
                                         "reason": "missing forecast, interval, or sales"}]
            return
        assert exit_code(monkeypatch, stage_argv(source, out)) == 1
        assert where in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err

    def test_manifest_names_every_input_with_its_digest(self, full_run, tmp_path):
        """A stage run on its own records each file it read, and its sha256."""
        out = tmp_path / "run"
        shutil.copytree(full_run[1], out)
        boundaries = [f"{i},{m},{d}" for i, (m, d) in enumerate(DEFAULT_BOUNDARIES)]
        (out / "boundaries.csv").write_text("term_index,month,day\n" + "\n".join(boundaries) + "\n")
        # synth last: it rewrites the costs and sales the other two read
        for argv, names in [(["rank"], ["costs", "sales"]),
                            (["optimize"], ["ranking", "forecast", "intervals", "sales"]),
                            (stage_argv("boundaries", out)[2:], ["boundaries"])]:
            (out / "manifest.json").unlink(missing_ok=True)  # else it adds to the last stage's
            assert cli.run(["--out", str(out), *argv]) == 0
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            paths = {name: out / f"{name}.csv" for name in names}
            assert inputs == {name: {"path": str(path),
                                     "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                              for name, path in paths.items()}

    def test_boundaries_path_is_relative_to_out(self, tmp_path, monkeypatch):
        """Like every `paths.*` key, a relative `paths.boundaries` names a file
        under `--out`, not under the working directory."""
        out = tmp_path / "out"
        out.mkdir()
        boundaries = [f"{i},{m},{d}" for i, (m, d) in enumerate(DEFAULT_BOUNDARIES)]
        (out / "b.csv").write_text("term_index,month,day\n" + "\n".join(boundaries) + "\n")
        monkeypatch.chdir(tmp_path)
        settings = ["paths.boundaries=b.csv", "synth.products=2", "synth.days=40"]
        argv = ["--out", "out", *(f for s in settings for f in ("--set", s)), "synth"]
        assert exit_code(monkeypatch, argv) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs["boundaries"]["path"] == str(Path("out", "b.csv"))

    @pytest.mark.parametrize("change,message", [
        ("score", "ranking.csv:3: score must be a finite number, got 'abc'"),
        ("reorder", "ranking.csv:2: rank must be 1 (ranks count 1..n in file order), got '2'"),
        ("gap", "ranking.csv:3: rank must be 2 (ranks count 1..n in file order), got '3'"),
    ], ids=["score", "reorder", "gap"])
    def test_ranking_checked_not_trusted(self, full_run, tmp_path, monkeypatch, caplog,
                                         change, message):
        out = tmp_path / "run"
        shutil.copytree(full_run[1], out)
        rows = read_table(out / "ranking.csv")
        if change == "score":
            rows[1]["score"] = "abc"
        elif change == "reorder":
            rows[0], rows[1] = rows[1], rows[0]
        else:
            del rows[1]
        with open(out / "ranking.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert exit_code(monkeypatch, ["--out", str(out), "optimize"]) == 1
        assert message in caplog.text

    def test_interval_bound_beyond_magnitude_rejected(self, tmp_path, monkeypatch, caplog):
        # At 1e308 the GA's fitness overflowed to -inf in every ga_trace.csv row.
        for stage in ("synth", "forecast", "intervals", "rank"):
            assert cli.run([*A12_FLAGS, "--out", str(tmp_path), stage]) == 0
        rows = read_table(tmp_path / "intervals.csv")
        line = 2 + next(i for i, row in enumerate(rows) if row["product_id"] == "P0")
        rows[line - 2]["upper"] = "1e308"
        with open(tmp_path / "intervals.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        assert exit_code(monkeypatch, [*A12_FLAGS, "--out", str(tmp_path), "optimize"]) == 1
        assert (f"intervals.csv:{line}: upper must be at most 1e+12 in magnitude, got '1e308'"
                in caplog.text)
        assert not (tmp_path / "ga_trace.csv").exists()


def use_cpus(monkeypatch, n: int) -> None:
    """Make the CLI see an affinity mask of `n` CPUs, as `taskset` would."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkerPool:
    """The number of training workers changes how many processes train, never
    the bytes written."""

    def test_run_all_same_bytes_at_one_and_two_workers(self, tmp_path, monkeypatch):
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            assert cli.run([*A12_FLAGS, "--seed", "42", "--out", str(tmp_path / str(cpus)),
                            "run-all"]) == 0
        for artifact in RUN_ALL_CSVS:
            assert (tmp_path / "1" / artifact).read_bytes() == \
                   (tmp_path / "2" / artifact).read_bytes(), artifact

    def test_one_product_replicas_same_bytes_across_workers(self, tmp_path, monkeypatch):
        flags = ["--set", "synth.products=1", "--set", "synth.days=90",
                 "--set", "bootstrap.replicas=5", "--set", "bootstrap.epochs=2",
                 "--set", "bootstrap.channels=4"]
        assert cli.run([*flags, "--out", str(tmp_path / "1"), "synth"]) == 0
        shutil.copytree(tmp_path / "1", tmp_path / "2")
        manifests = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            out = tmp_path / str(cpus)
            assert cli.run([*flags, "--out", str(out), "intervals"]) == 0
            manifests[cpus] = (out / "manifest.json").read_text()
        for artifact in ("intervals.csv", "intervals_daily.csv"):
            assert (tmp_path / "1" / artifact).read_bytes() == \
                   (tmp_path / "2" / artifact).read_bytes(), artifact
        assert '"jobs": 1' in manifests[1] and '"jobs": 2' in manifests[2]

    def test_intervals_holds_no_model_while_fitting_intervals(self, tmp_path, monkeypatch):
        flags = ["--set", "synth.products=6", "--set", "synth.days=60",
                 "--set", "bootstrap.replicas=2", "--set", "bootstrap.epochs=1",
                 "--set", "bootstrap.channels=4", "--out", str(tmp_path)]
        assert cli.run([*flags, "synth"]) == 0
        refs, held = [], []
        fit, fit_interval = forecaster.fit, intervals.fit_interval

        def tracked_fit(task):
            model, report = fit(task)
            refs.append(weakref.ref(model))
            return model, report

        def counting_fit_interval(*args, **kwargs):
            gc.collect()
            held.append(sum(ref() is not None for ref in refs))
            return fit_interval(*args, **kwargs)

        monkeypatch.setattr(forecaster, "fit", tracked_fit)
        monkeypatch.setattr(intervals, "fit_interval", counting_fit_interval)
        use_cpus(monkeypatch, 1)
        assert cli.run([*flags, "intervals"]) == 0
        # Workers send back forecasts, so every model dies in its worker task.
        assert len(refs) == 12 and held == [0] * 6

    def test_intervals_match_library_path(self, tmp_path):
        overrides = ["synth.products=1", "synth.days=60", "bootstrap.replicas=3",
                     "bootstrap.epochs=2", "bootstrap.channels=4", "bootstrap.level=0.9"]
        flags = [f for key in overrides for f in ("--set", key)] + ["--out", str(tmp_path)]
        assert cli.run([*flags, "synth"]) == 0
        assert cli.run([*flags, "intervals"]) == 0

        config = load_config(None, overrides)
        (frame,) = pipeline.load_sales(str(tmp_path / "sales.csv"))[0].values()
        ensemble = intervals.bootstrap_train(
            frame, intervals.BootstrapConfig(replicas=3, min_fraction=config.bootstrap.min_fraction,
                                             epochs=2, lr=config.bootstrap.lr),
            ModelConfig(channels=4, kernel=config.tcn.kernel,
                        dilations=config.bootstrap.dilations),
            seed=derive_seed(config.seed, "intervals", frame.product_id))
        interval = intervals.predict_interval(
            ensemble, frame.values[-15:],
            encode_date_range(frame.dates[-1] + dt.timedelta(days=1), 7), level=0.9)
        z = intervals.z_for_level(0.9)
        pid, level = frame.product_id, pipeline.fmt(0.9)
        weekly = [[pid, level, *map(pipeline.fmt, (interval.mean, interval.std,
                                                   interval.lower, interval.upper))]]
        daily = []
        for day in range(7):
            mean, std = interval.daily[:, day].mean(), interval.daily[:, day].std()
            daily.append([pid, level, str(day), *map(pipeline.fmt, (
                mean, std, max(0.0, mean - z * std), mean + z * std))])
        assert read_rows(tmp_path / "intervals.csv") == weekly
        assert read_rows(tmp_path / "intervals_daily.csv") == daily

    def test_replica_task_series_is_a_start_day_and_a_values_view(self):
        """The pool takes every replica task at once, so a task must stay
        light: its series shares the product frame's values and holds no
        per-day list."""
        _, sales, _ = pipeline.generate_synthetic(1, 90, seed=3)
        (frame,) = sales.values()
        tasks = intervals.replica_tasks(frame, intervals.BootstrapConfig(replicas=6),
                                        ModelConfig(channels=4, kernel=2, dilations=[1]))
        for task in tasks:
            assert np.shares_memory(task.series.values, frame.values)
            assert [type(v) for v in vars(task.series).values()] == [str, dt.date, np.ndarray]

    @pytest.mark.parametrize("stage", ["forecast", "intervals"])
    @pytest.mark.parametrize("error,code", [(InvariantError, 2), (InputError, 1)])
    def test_worker_failure_surfaces_as_in_serial_run(self, tmp_path, monkeypatch, caplog,
                                                      stage, error, code):
        flags = ["--set", "synth.products=4", "--set", "synth.days=60",
                 "--set", "tcn.channels=4", "--set", "train.epochs=1",
                 "--set", "bootstrap.replicas=2", "--set", "bootstrap.epochs=1",
                 "--set", "bootstrap.channels=4", "--out", str(tmp_path)]
        assert cli.run([*flags, "synth"]) == 0
        train = forecaster.train

        def failing_train(model, *args, **kwargs):
            if model.product_id == "P2":
                raise error(f"{model.product_id}: planted failure")
            return train(model, *args, **kwargs)

        # A forked worker inherits the patched module attribute.
        monkeypatch.setattr(forecaster, "train", failing_train)
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            caplog.clear()
            assert exit_code(monkeypatch, [*flags, stage]) == code
            assert "P2: planted failure" in caplog.text
            assert multiprocessing.active_children() == []


class TestCommandLine:
    def test_run_all_byte_identical_outputs(self, tmp_path):
        args = ["--set", "synth.products=4", "--set", "synth.days=60",
                "--set", "tcn.channels=4", "--set", "train.epochs=2",
                "--set", "bootstrap.replicas=2", "--set", "bootstrap.epochs=1",
                "--set", "bootstrap.channels=4",
                "--set", "topsis.top_k=3", "--set", "ga.pop=10", "--set", "ga.gens=10"]
        for name in ("a", "b"):
            assert cli.run([*args, "--seed", "11", "--out", str(tmp_path / name), "run-all"]) == 0
        for artifact in ("forecast.csv", "intervals.csv", "ranking.csv",
                         "plan.csv", "ga_trace.csv"):
            assert (tmp_path / "a" / artifact).read_bytes() == \
                   (tmp_path / "b" / artifact).read_bytes()

    def test_evaluate_prints_metrics(self, tmp_path, capsys):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n"
                         "2023-01-01,A,1.0\n2023-01-02,A,2.0\n2023-01-03,A,3.0\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\n"
                        "A,2023-01-01,2.0\nA,2023-01-02,2.0\nA,2023-01-03,2.0\n")
        assert cli.run(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
        out = capsys.readouterr().out
        assert "MSE=0.666667" in out
        assert "RMSE=0.816497" in out

    def test_evaluate_scores_only_dates_the_truth_has(self, tmp_path, capsys):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n"
                         "2024-01-01,A,1.0\n2024-01-03,A,3.0\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\n"
                        "A,2024-01-01,1.0\nA,2024-01-02,5.0\nA,2024-01-03,3.0\n")
        assert cli.run(["evaluate", "--pred", str(pred), "--truth", str(truth)]) == 0
        assert capsys.readouterr().out.startswith("n=2 MSE=0.000000 ")

    def test_evaluate_without_overlap_is_input_error(self, tmp_path):
        truth = tmp_path / "costs.csv"
        truth.write_text("date,product_id,wholesale_cost\n2023-01-01,A,1.0\n")
        pred = tmp_path / "forecast.csv"
        pred.write_text("product_id,date,predicted_cost\nB,2023-01-01,2.0\n")
        with pytest.raises(InputError):
            cli.run(["evaluate", "--pred", str(pred), "--truth", str(truth)])

    def test_exit_codes(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda: (_ for _ in ()).throw(InputError("bad")))
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        monkeypatch.setattr(cli, "run", lambda: (_ for _ in ()).throw(InvariantError("bug")))
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 2

    def test_bad_config_value_exits_1_without_traceback(self, tmp_path, monkeypatch, caplog):
        out = ["--out", str(tmp_path)]
        assert cli.run([*out, "--set", "synth.products=2", "--set", "synth.days=40", "synth"]) == 0
        assert exit_code(monkeypatch, [*out, "--set", "tcn.dilations=", "forecast"]) == 1
        assert "tcn.dilations must be non-empty" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("argv", [
        ["run-all", "--seed", "42"],  # a global flag after the subcommand
        ["--seed", "x", "synth"],
        ["optimize", "--baseline", "grid"],
        [],
    ])
    def test_usage_error_exits_1_without_traceback(self, tmp_path, monkeypatch, capsys, caplog,
                                                   argv):
        assert exit_code(monkeypatch, ["--out", str(tmp_path / "out"), *argv]) == 1
        assert "--help" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, monkeypatch, capsys):
        assert exit_code(monkeypatch, ["--help"]) == 0
        assert "usage: freshplan" in capsys.readouterr().out

    def test_readme_usage_lines_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("freshplan ")]
        assert len(lines) == 7
        for line in lines:
            cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])

    def test_demo_script_plans_its_top_k(self, tmp_path):
        repo = Path(__file__).resolve().parents[1]
        out = tmp_path / "demo"
        env = {**os.environ, "PYTHONPATH": str(repo / "src")}
        proc = subprocess.run([sys.executable, str(repo / "scripts" / "demo_pipeline.py"),
                               str(out)], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(read_rows(out / "plan.csv")) == 6  # topsis.top_k=6 of its 12 products

    @pytest.mark.parametrize("key", [key for key, _ in RunConfig().flat_items()
                                     if key.startswith("paths.") and key != "paths.boundaries"])
    def test_artifact_in_missing_directory_exits_1_before_any_stage(
            self, tmp_path, monkeypatch, capsys, caplog, key):
        settings = [f for setting in (*SMALL_RUN, f"{key}=nodir/artifact.csv")
                    for f in ("--set", setting)]
        assert exit_code(monkeypatch, ["--out", str(tmp_path), *settings, "run-all"]) == 1
        assert f"{key}: directory" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not (tmp_path / "costs.csv").exists()
        assert exit_code(monkeypatch, ["--out", str(tmp_path / "new"), *settings, "synth"]) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("setting,keys", [
        ("paths.sales=costs.csv", "paths.sales and paths.costs"),
        ("paths.intervals=forecast.csv", "paths.intervals and paths.forecast"),
        ("paths.ga_trace=./loss_curves.csv", "paths.ga_trace and loss_curves.csv"),
        ("paths.plan=sub/../manifest.json", "paths.plan and manifest.json"),
        ("paths.boundaries=ranking.csv", "paths.boundaries and paths.ranking"),
        ("paths.forecast={out}/costs.csv", "paths.forecast and paths.costs"),
    ])
    def test_two_paths_naming_one_file_exit_1_before_any_stage(
            self, tmp_path, monkeypatch, capsys, caplog, setting, keys):
        for command in ("synth", "run-all"):
            out = tmp_path / command
            settings = [f for s in (*SMALL_RUN, setting.format(out=out)) for f in ("--set", s)]
            assert exit_code(monkeypatch, ["--out", str(out), *settings, command]) == 1
            assert f"{keys} name the same file" in caplog.text
            assert "Traceback" not in caplog.text + capsys.readouterr().err
            assert not out.exists()

    def test_out_that_is_a_file_exits_1(self, tmp_path, monkeypatch, capsys, caplog):
        (tmp_path / "file").write_text("")
        settings = [f for s in SMALL_RUN for f in ("--set", s)]
        for out, reason in [(tmp_path / "file", "File exists"),
                            (tmp_path / "file" / "sub", "Not a directory")]:
            assert exit_code(monkeypatch, ["--out", str(out), *settings, "synth"]) == 1
            assert f"--out {out}: {reason}" in caplog.text
            assert "Traceback" not in caplog.text + capsys.readouterr().err

    def test_cli_import_leaves_pool_and_statistics_modules_out(self):
        """Only the stages that need them import these, so that no stage
        process pays for them at start-up."""
        lazy = ["multiprocessing", "concurrent.futures", "statistics"]
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (f"import sys, freshplan.cli; "
                 f"print([m for m in {lazy!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_missing_input_is_input_error(self, tmp_path):
        with pytest.raises(InputError):
            cli.run(["--out", str(tmp_path), "forecast"])

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("seed=1\nsynth.products=2\nsynth.days=40\n")
        assert cli.run(["--config", str(cfg_file), "--seed", "9",
                        "--out", str(tmp_path), "synth"]) == 0
        # same as running with seed=9 directly
        other = tmp_path / "direct"
        assert cli.run(["--set", "synth.products=2", "--set", "synth.days=40",
                        "--seed", "9", "--out", str(other), "synth"]) == 0
        assert (tmp_path / "costs.csv").read_bytes() == (other / "costs.csv").read_bytes()


# One bad value per config key, through `cli.main`: (key, value, exit code).  The
# config check rejects all but one before any stage runs (exit 1, the key named);
# train.lr=1e300 passes it, and the model it trains diverges (exit 2).
BAD_CONFIG_VALUES = [
    ("tcn.channels", "0", 1), ("tcn.kernel", "0", 1), ("tcn.dilations", "1,0", 1),
    ("train.epochs", "-1", 1), ("train.lr", "0", 1), ("train.lr", "1e300", 2),
    ("bootstrap.replicas", "0", 1), ("bootstrap.min_fraction", "0", 1),
    ("bootstrap.level", "1", 1), ("bootstrap.channels", "0", 1),
    ("bootstrap.dilations", "0", 1), ("bootstrap.epochs", "-1", 1), ("bootstrap.lr", "inf", 1),
    ("topsis.top_k", "0", 1),
    ("ga.pop", "0", 1), ("ga.gens", "-1", 1), ("ga.tournament", "0", 1),
    ("ga.crossover_rate", "1.5", 1), ("ga.mutation_prob", "-0.1", 1),
    ("ga.sigma_fraction", "nan", 1), ("ga.sigma_decay", "0", 1),
    ("synth.products", "0", 1), ("synth.days", "29", 1),
    *((f"paths.{name}", "", 1) for name in ("costs", "sales", "forecast", "intervals",
                                            "intervals_daily", "demand", "ranking", "plan",
                                            "ga_trace")),
]
NO_BAD_VALUE = {
    "seed": "every integer is a seed",
    "paths.boundaries": "empty means the built-in table, and any other value names a file "
                        "that TestInputSchemas checks as the boundaries input",
}
SMALL_RUN = ["synth.products=2", "synth.days=40", "tcn.channels=4", "train.epochs=3"]


class TestConfigValues:
    @pytest.mark.parametrize("key,value,code", BAD_CONFIG_VALUES,
                             ids=[f"{key}={value}" for key, value, _ in BAD_CONFIG_VALUES])
    def test_bad_value_through_main(self, tmp_path, monkeypatch, capsys, caplog, key, value, code):
        out = tmp_path / "out"
        settings = [f for setting in (*SMALL_RUN, f"{key}={value}") for f in ("--set", setting)]
        assert exit_code(monkeypatch, ["--out", str(out), *settings, "run-all"]) == code
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        if code == 1:
            assert f"{key} must be " in caplog.text and ", got " in caplog.text
            assert not out.exists()
        else:
            assert "training loss diverged" in caplog.text

    @pytest.mark.parametrize("key,value", [("window.input_days", "15"),
                                           ("train.batch_size", "64"), ("ga.elitism", "1")])
    def test_fixed_setting_in_config_file_exits_1(self, tmp_path, monkeypatch, capsys, caplog,
                                                  key, value):
        """The window, the batch size and elitism are constants, not keys: a
        config file that still sets one is refused before any stage runs."""
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key}={value}\n")
        out = tmp_path / "out"
        settings = [f for setting in SMALL_RUN for f in ("--set", setting)]
        argv = ["--config", str(cfg_file), "--out", str(out), *settings, "synth"]
        assert exit_code(monkeypatch, argv) == 1
        assert f"unknown config key: {key}" in caplog.text
        assert "Traceback" not in caplog.text + capsys.readouterr().err
        assert not out.exists()

    def test_every_key_has_a_case_or_a_reason(self):
        covered = {key for key, _, _ in BAD_CONFIG_VALUES} | set(NO_BAD_VALUE)
        assert covered == {key for key, _ in RunConfig().flat_items()}


QUICK_RUN = [f for key in ("synth.products=4", "synth.days=60", "tcn.channels=4",
                           "train.epochs=2", "bootstrap.replicas=2", "bootstrap.epochs=1",
                           "bootstrap.channels=4", "topsis.top_k=3", "ga.pop=10", "ga.gens=10")
             for f in ("--set", key)]


class TestManifestAcrossRuns:
    """One `manifest.json` per output directory: a run adds its stages to the
    record of earlier runs of the same config over the same inputs."""

    @staticmethod
    def manifest(out: Path) -> dict:
        return json.loads((out / "manifest.json").read_text())

    def test_one_stage_runs_add_up_to_one_record(self, tmp_path):
        for stage in cli.RUN_ALL_ORDER:
            assert cli.run([*QUICK_RUN, "--out", str(tmp_path), stage]) == 0
        record = self.manifest(tmp_path)
        assert set(record["stages"]) == set(cli.RUN_ALL_ORDER)
        assert set(record["inputs"]) == {"costs", "sales", "forecast", "intervals", "ranking"}
        assert record["inputs"]["costs"]["sha256"] == file_digest(tmp_path / "costs.csv")

        # Another seed is another run: its record starts fresh.
        assert cli.run([*QUICK_RUN, "--seed", "7", "--out", str(tmp_path), "rank"]) == 0
        assert set(self.manifest(tmp_path)["stages"]) == {"rank"}
        for stage in ("forecast", "intervals"):
            assert cli.run([*QUICK_RUN, "--seed", "7", "--out", str(tmp_path), stage]) == 0
        assert set(self.manifest(tmp_path)["stages"]) == {"rank", "forecast", "intervals"}

        # Other costs start it fresh too: what was carried over goes.
        costs = (tmp_path / "costs.csv").read_text().splitlines()
        costs[1] = costs[1].rsplit(",", 1)[0] + ",1.000000"
        (tmp_path / "costs.csv").write_text("\n".join(costs) + "\n")
        assert cli.run([*QUICK_RUN, "--seed", "7", "--out", str(tmp_path), "rank"]) == 0
        record = self.manifest(tmp_path)
        assert set(record["stages"]) == {"rank"} and set(record["inputs"]) == {"costs", "sales"}

    def test_failed_stage_keeps_the_earlier_ones(self, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise InvariantError("no plan")

        monkeypatch.setattr(cli.gaopt, "evolve", fail)
        with pytest.raises(InvariantError):
            cli.run([*QUICK_RUN, "--out", str(tmp_path), "run-all"])
        assert set(self.manifest(tmp_path)["stages"]) == {"synth", "forecast", "intervals", "rank"}
