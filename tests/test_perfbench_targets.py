"""The functions the benchmark traces and the loss graph it counts still exist.

`perfbench/tracing.py` wraps freshplan functions by name and reports a target
it cannot find only at run time, and `perfbench/harness.graph_nodes` builds a
training loss from `autodiff` ops.  A rename in freshplan would leave a traced
metric reading 0; these tests fail instead.  `harness.set_up` reads a series'
dates and slices it to split off the held-out week.
"""

import dataclasses
import datetime as dt
import importlib
from pathlib import Path

import pytest

from freshplan import pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, imported as its scripts import them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return {name: importlib.import_module(name) for name in ("tracing", "harness", "spec")}


def test_every_traced_target_resolves(perfbench):
    missing = []
    for _, module, path, _ in perfbench["tracing"].TARGETS:
        owner = importlib.import_module(f"freshplan.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{path}")
    assert missing == []


@pytest.mark.parametrize("shape", ["deploy", "replica"])
def test_graph_node_loss_builds(perfbench, shape):
    """`graph_nodes` builds `ad.mean((model.forward(...) - target) ** 2)`."""
    for workload in perfbench["spec"].WORKLOADS.values():
        nodes = perfbench["harness"].graph_nodes(workload.overrides, shape)
        assert isinstance(nodes, int) and nodes > 0


def test_set_up_splits_off_the_held_out_week(perfbench, tmp_path):
    """The program gets each series' first `days` days; the next 7 are held out."""
    workload = dataclasses.replace(perfbench["spec"].WORKLOADS["deep-ensemble"],
                                   products=2, days=40)
    assert workload.setup_stages == ()  # no set-up stage, so no subprocess
    inputs = perfbench["harness"].set_up(workload, 5, tmp_path / "in")
    costs, sales, _ = pipeline.generate_synthetic(2, 47, 5)
    first_held_out = pipeline.SyntheticParams().start_date + dt.timedelta(days=40)
    assert inputs.first_held_out == first_held_out
    given = pipeline.load_costs(str(tmp_path / "in" / "costs.csv"))
    for pid in costs:
        assert inputs.held_costs[pid].tolist() == costs[pid].values[40:].tolist()
        assert inputs.held_sales[pid].tolist() == sales[pid].values[40:].tolist()
        assert given[pid].dates[-1] + dt.timedelta(days=1) == first_held_out
        assert given[pid].values.tolist() == costs[pid].values[:40].tolist()
