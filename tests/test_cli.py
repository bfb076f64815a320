import csv
import gc
import multiprocessing
import os
import shutil
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from freshplan import cli, forecaster, intervals
from freshplan.config import RunConfig, RunManifest, load_config
from freshplan.errors import InputError, InvariantError


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
            writer = csv.DictWriter(fh, fieldnames=cli.FORECAST_HEADER, lineterminator="\n")
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
        assert "costs.csv:5: malformed row" in caplog.text

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

    @pytest.mark.parametrize("artifact", ["forecast.csv", "intervals.csv"])
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

    def test_intervals_holds_one_product_of_models_at_a_time(self, tmp_path, monkeypatch):
        flags = ["--set", "synth.products=6", "--set", "synth.days=60",
                 "--set", "bootstrap.replicas=2", "--set", "bootstrap.epochs=1",
                 "--set", "bootstrap.channels=4", "--out", str(tmp_path)]
        assert cli.run([*flags, "synth"]) == 0
        refs, held = [], []
        train_replica, ensemble_of = intervals.train_replica, intervals.ensemble_of

        def tracked_train(task):
            model, piece = train_replica(task)
            refs.append(weakref.ref(model))
            return model, piece

        def counting_ensemble(*args, **kwargs):
            gc.collect()
            held.append(sum(ref() is not None for ref in refs))
            return ensemble_of(*args, **kwargs)

        monkeypatch.setattr(intervals, "train_replica", tracked_train)
        monkeypatch.setattr(intervals, "ensemble_of", counting_ensemble)
        use_cpus(monkeypatch, 1)
        assert cli.run([*flags, "intervals"]) == 0
        # This product's replicas, plus the previous product's ensemble until
        # the loop rebinds it; never all 6 x 2 models.
        assert len(held) == 6 and max(held) <= 4

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
