"""Spans around calls into freshplan's public functions, recorded from outside.

`install` replaces each traced function with a wrapper, in every freshplan
module that holds it, so calls through any import style are seen.  Spans live
in memory as [name, start, end, parent, count] and are written out once, at
the end of the traced process.  `per_layer` turns the spans of one iteration
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute path, count of work in the result)
TARGETS = [
    ("autodiff.backward", "autodiff", "backward", None),
    ("autodiff.adam_step", "autodiff", "Adam.step", None),
    ("layers.tcn_forward", "layers", "TcnBranch.apply", None),
    ("layers.attention", "layers", "attention_fuse_graph", None),
    ("layers.dense", "layers", "DenseLayer.apply", None),
    ("forecaster.train", "forecaster", "train", None),
    ("forecaster.predict", "forecaster", "predict", None),
    ("intervals.bootstrap", "intervals", "bootstrap_train", lambda r: len(r.models)),
    ("intervals.predict", "intervals", "predict_interval", None),
    ("gaopt.evolve", "gaopt", "evolve", lambda r: r.evaluations),
    ("gaopt.fitness", "gaopt", "fitness", None),
    ("demand.fit", "demand", "fit_demand", None),
    ("mcdm.rank", "mcdm", "rank_products", None),
    ("pipeline.load", "pipeline", "load_costs", None),
    ("pipeline.load", "pipeline", "load_sales", None),
    ("pipeline.make_windows", "pipeline", "make_windows", len),
    ("solarterms.encode", "solarterms", "encode_date_range", None),
]

MODULES = sorted({module for _, module, _, _ in TARGETS})

# The stage a span runs under fixes the model shape it trains.
SHAPE_OF_STAGE = {"forecast": "deploy", "intervals": "replica"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def span(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    missing = []
    modules = {name: mod for name, mod in sys.modules.items()
               if name.startswith("freshplan.") and mod is not None}
    for span_name, module, path, count in TARGETS:
        owner = modules.get(f"freshplan.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module}.{path}")
            continue
        wrapped = tracer.wrap(span_name, original, count)
        if outer:  # a method: patch the class, which every caller shares
            setattr(owner, attr, wrapped)
            continue
        for mod in modules.values():  # a function: patch every module that imported it
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return missing


# -- aggregation ---------------------------------------------------------------


def _root(spans: list[list], index: int) -> int:
    while spans[index][3] >= 0:
        index = spans[index][3]
    return index


def per_layer(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one iteration's spans (several stage processes,
    each rooted at a `cli.<stage>` span)."""
    total = defaultdict(float)        # name -> seconds
    calls = defaultdict(int)          # name -> spans
    counted = defaultdict(int)        # name -> summed result counts
    by_shape = defaultdict(float)     # (name, shape) -> seconds
    steps_by_shape = defaultdict(int)
    child_time = defaultdict(float)   # span index -> seconds covered by children
    for i, (name, start, end, parent, count) in enumerate(spans):
        seconds = end - start
        if parent >= 0:
            child_time[parent] += seconds
        total[name] += seconds
        calls[name] += 1
        if count is not None:
            counted[name] += count
        shape = SHAPE_OF_STAGE.get(spans[_root(spans, i)][0].removeprefix("cli."))
        if shape:
            by_shape[name, shape] += seconds
            if name == "autodiff.adam_step":
                steps_by_shape[shape] += 1
    self_time = defaultdict(float)
    for i, (name, start, end, _parent, _count) in enumerate(spans):
        self_time[name.split(".")[0]] += end - start - child_time[i]

    def per(numerator, denominator, scale=1.0):
        return scale * numerator / denominator if denominator else 0.0

    out = {
        "autodiff.backward_s": total["autodiff.backward"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.adam_step_s": total["autodiff.adam_step"],
        "forecaster.train_s": total["forecaster.train"],
        "forecaster.steps": calls["autodiff.adam_step"],
        "forecaster.predict_s": total["forecaster.predict"],
        "intervals.bootstrap_s": total["intervals.bootstrap"],
        "intervals.s_per_replica": per(total["intervals.bootstrap"], counted["intervals.bootstrap"]),
        "intervals.predict_s": total["intervals.predict"],
        "gaopt.evolve_s": total["gaopt.evolve"],
        "gaopt.evaluations": counted["gaopt.evolve"],
        "gaopt.us_per_eval": per(total["gaopt.evolve"], counted["gaopt.evolve"], 1e6),
        "gaopt.fitness_share": per(total["gaopt.fitness"], total["gaopt.evolve"]),
        "demand.fit_s": total["demand.fit"],
        "mcdm.rank_s": total["mcdm.rank"],
        "pipeline.load_s": total["pipeline.load"],
        "pipeline.make_windows_s": total["pipeline.make_windows"],
        "pipeline.windows": counted["pipeline.make_windows"],
        "solarterms.encode_s": total["solarterms.encode"],
        "cli.io_s": self_time["cli"],
        "trace.spans": len(spans),
    }
    for shape in ("deploy", "replica"):
        for layer in ("tcn_forward", "attention", "dense"):
            out[f"layers.{layer}_{shape}_s"] = by_shape[f"layers.{layer}", shape]
        out[f"forecaster.ms_per_step_{shape}"] = per(
            by_shape["forecaster.train", shape], steps_by_shape[shape], 1e3)
    for module in MODULES:
        out[f"{module}.self_s"] = self_time[module]
    return out
