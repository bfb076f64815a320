"""Smoke test of the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import spec
import tracing

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "market-week": dict(products=3, days=40, overrides=(
        "tcn.channels=4", "train.epochs=1", "bootstrap.replicas=2", "bootstrap.epochs=1",
        "topsis.top_k=2", "ga.pop=10", "ga.gens=3")),
    "deep-ensemble": dict(days=40, overrides=("bootstrap.replicas=2", "bootstrap.epochs=1")),
    "ga-plan": dict(products=4, days=30, overrides=("topsis.top_k=3", "ga.pop=10", "ga.gens=3")),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(spec.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(monkeypatch, capsys, name, trace):
    workload = spec.WORKLOADS[name]
    tiny = TINY[name]
    monkeypatch.setitem(spec.WORKLOADS, name, dataclasses.replace(
        workload, **{**tiny, "overrides": workload.overrides + tiny["overrides"]}))
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = spec.PER_LAYER if trace else spec.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m.name: m.unit for m in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ga-plan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_children():
    spans = [["cli.forecast", 0.0, 10.0, -1, None],
             ["forecaster.train", 1.0, 9.0, 0, None],
             ["autodiff.backward", 2.0, 5.0, 1, None],
             ["autodiff.adam_step", 5.0, 6.0, 1, None]]
    layer = tracing.per_layer(spans)
    assert layer["cli.io_s"] == 2.0
    assert layer["forecaster.self_s"] == 4.0
    assert layer["autodiff.self_s"] == 4.0
    assert layer["forecaster.ms_per_step_deploy"] == 8000.0


@pytest.mark.parametrize("base, change, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0, 10.1] * 5, [13.0, 13.1] * 5, "worse"),
    ([10.0, 10.1] * 5, [10.05, 10.0] * 5, "unchanged"),
    ([5.0, 10.0, 15.0, 20.0] * 2, [10.0, 12.0, 14.0, 16.0] * 2, "unresolved"),
])
def test_verdict(base, change, expected):
    metric = spec.Metric("plan_s", "s", "lower", 0.25)
    assert compare.verdict(metric, base, change, list(zip(base, change)))["verdict"] == expected


@pytest.mark.parametrize("scale, expected", [(0.9, "improved"), (1.0, "unchanged"), (1.3, "worse")])
def test_quality_is_judged_seed_by_seed(tmp_path, scale, expected):
    def record(seed, mae):
        metrics = {m.name: {"value": 1.0, "unit": m.unit} for m in spec.END_TO_END}
        metrics["forecast_mae"]["value"] = mae
        return {"workload": "market-week", "seed": seed, "trace": 0, "metrics": metrics}

    maes = [0.1 + 0.05 * seed for seed in range(10)]  # spread across seeds beyond the bound
    for side, factor in (("base", 1.0), ("change", scale)):
        (tmp_path / f"{side}.jsonl").write_text(
            "".join(json.dumps(record(seed, mae * factor)) + "\n" for seed, mae in enumerate(maes)))
    rows = compare.report(tmp_path / "base.jsonl", tmp_path / "change.jsonl")
    assert {r["metric"]: r["verdict"] for r in rows}["forecast_mae"] == expected
