"""The functions the benchmark traces and the loss graph it counts still exist.

`perfbench/tracing.py` wraps freshplan functions by name and reports a target
it cannot find only at run time, and `perfbench/harness.graph_nodes` builds a
training loss from `autodiff` ops.  A rename in freshplan would leave a traced
metric reading 0; these tests fail instead.
"""

import importlib
from pathlib import Path

import pytest

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
