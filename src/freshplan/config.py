"""Run configuration, seed derivation, and the run manifest.

Configuration lives in a flat key=value text file; command-line flags override
file values.  The sections (`tcn`, `train`, `bootstrap`, `ga`, ...) are plain
dataclasses of defaults; `RULES` is the one table of the values each key
accepts, and `load_config` checks every key against it once, after the last
override, so a bad value fails there, naming its key, its bound and the value.
All stage randomness derives from the single top-level seed by hashing the
stage name and task identifiers (product id, replica index) into per-task
seeds, so stages are reproducible in isolation and insensitive to scheduling
order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from . import __version__
from .errors import InputError
from .forecaster import ModelConfig, TrainConfig
from .gaopt import GaConfig
from .intervals import BootstrapConfig
from .pipeline import HORIZON_DAYS, INPUT_DAYS


@dataclass
class WindowConfig:
    """The fixed window, 15 days in and 7 out, and no keys: the model reads
    one history length, and its head and the weekly plan are built for 7 days.
    The section stays because `perfbench/harness.py` (`graph_nodes`) reads
    `config.window.input_days`."""

    input_days: ClassVar[int] = INPUT_DAYS
    horizon_days: ClassVar[int] = HORIZON_DAYS


@dataclass
class TopsisConfig:
    top_k: int = 32


@dataclass
class SynthConfig:
    products: int = 61
    days: int = 730


@dataclass
class PathsConfig:
    costs: str = "costs.csv"
    sales: str = "sales.csv"
    forecast: str = "forecast.csv"
    intervals: str = "intervals.csv"
    intervals_daily: str = "intervals_daily.csv"
    demand: str = "demand.csv"
    ranking: str = "ranking.csv"
    plan: str = "plan.csv"
    ga_trace: str = "ga_trace.csv"
    boundaries: str = ""   # optional solar-term boundary override CSV


def _at_least(low: int) -> tuple:
    return (lambda v: v >= low), f">= {low}"


_LR = (lambda v: 0.0 < v < math.inf), "finite and > 0"  # NaN fails every comparison
_DILATIONS = (lambda v: min(v, default=0) >= 1), "non-empty, each >= 1"
_PROBABILITY = (lambda v: 0.0 <= v <= 1.0), "in [0, 1]"

# The values every key accepts: (flat key, test of the typed value, bound text).
# `seed` takes any integer, and an empty `paths.boundaries` means the built-in table.
RULES = [
    ("tcn.channels", *_at_least(1)),
    ("tcn.kernel", *_at_least(1)),
    ("tcn.dilations", *_DILATIONS),
    ("train.epochs", *_at_least(0)),
    ("train.lr", *_LR),
    ("bootstrap.replicas", *_at_least(1)),
    ("bootstrap.min_fraction", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("bootstrap.level", lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("bootstrap.channels", *_at_least(1)),
    ("bootstrap.dilations", *_DILATIONS),
    ("bootstrap.epochs", *_at_least(0)),
    ("bootstrap.lr", *_LR),
    ("topsis.top_k", *_at_least(1)),
    ("ga.pop", *_at_least(1)),
    ("ga.gens", *_at_least(0)),
    ("ga.tournament", *_at_least(1)),
    ("ga.crossover_rate", *_PROBABILITY),
    ("ga.mutation_prob", *_PROBABILITY),
    ("ga.sigma_fraction", lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    ("ga.sigma_decay", lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("synth.products", *_at_least(1)),
    ("synth.days", *_at_least(30)),
    *((f"paths.{f.name}", bool, "non-empty") for f in dataclasses.fields(PathsConfig)
      if f.name != "boundaries"),
]


@dataclass
class RunConfig:
    seed: int = 42
    window: WindowConfig = field(default_factory=WindowConfig)
    tcn: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)
    topsis: TopsisConfig = field(default_factory=TopsisConfig)
    ga: GaConfig = field(default_factory=GaConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    def validate(self) -> None:
        """Raise `InputError` for the first key, in `RULES` order, whose value
        its rule rejects."""
        values = dict(self._items())
        for key, ok, bound in RULES:
            if not ok(values[key]):
                raise InputError(f"{key} must be {bound}, got {values[key]!r}")

    def flat_items(self) -> list[tuple[str, str]]:
        return [(key, ",".join(map(str, value)) if isinstance(value, list) else str(value))
                for key, value in self._items()]

    def _items(self):
        """(flat key, typed value) of every key, `seed` first, then by section."""
        yield "seed", self.seed
        for section_name, section in self._sections().items():
            for f in dataclasses.fields(section):
                yield f"{section_name}.{f.name}", getattr(section, f.name)

    def _sections(self) -> dict[str, object]:
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.name != "seed"}


def _coerce(current, text: str, key: str):
    try:
        if isinstance(current, int):
            return int(text)
        if isinstance(current, float):
            return float(text)
        if isinstance(current, list):  # "" is the empty list, which its rule rejects
            return [int(v) for v in text.split(",")] if text else []
        return text
    except ValueError as exc:
        raise InputError(f"bad value for {key}: {text!r}") from exc


def apply_setting(config: RunConfig, key: str, text: str) -> None:
    """Set one flat key (e.g. 'ga.pop') on the config, coercing to its type.
    A key is `seed` or `section.field` for a dataclass field of a section."""
    if key == "seed":
        config.seed = _coerce(config.seed, text, key)
        return
    section_name, _, field_name = key.partition(".")
    section = config._sections().get(section_name)
    if section is None or field_name not in {f.name for f in dataclasses.fields(section)}:
        raise InputError(f"unknown config key: {key}")
    setattr(section, field_name, _coerce(getattr(section, field_name), text, key))


def load_config(path: str | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the key=value file, then 'key=value' override strings."""
    config = RunConfig()
    if path:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise InputError(f"cannot read config file {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, value = line.partition("=")
            apply_setting(config, key.strip(), value.strip())
    for item in overrides or []:
        if "=" not in item:
            raise InputError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        apply_setting(config, key.strip(), value.strip())
    config.validate()
    return config


def derive_seed(master: int, *parts) -> int:
    """Stable per-task seed from the master seed and task identifiers."""
    text = "|".join([str(master), *[str(p) for p in parts]])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class RunManifest:
    """Records the config, input digests, and per-stage outputs and timings.
    It starts from the `manifest.json` in `out_dir` when that has this run's
    tool version and config, so one-stage runs add up to one record, and drops
    what it carried over once a stage reads an input whose sha256 differs."""

    def __init__(self, config: RunConfig, out_dir: Path):
        self.out_dir = out_dir
        self.data = {"tool_version": __version__, "config": dict(config.flat_items()),
                     "inputs": {}, "stages": {}}
        try:
            earlier = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            earlier = None
        same_run = isinstance(earlier, dict) and all(
            earlier.get(key) == self.data[key] for key in ("tool_version", "config"))
        # The carried entries that this run's own have not replaced yet.
        self.carried = {key: dict(earlier[key]) if same_run else {} for key in ("inputs", "stages")}

    def note_input(self, name: str, path: str | Path) -> None:
        entry = {"path": str(path), "sha256": file_digest(path)}
        if self.carried["inputs"].get(name, entry)["sha256"] != entry["sha256"]:
            self.carried = {"inputs": {}, "stages": {}}
        self.carried["inputs"].pop(name, None)
        self.data["inputs"][name] = entry

    def end_stage(self, name: str, started: float, outputs: list[str], **extra) -> None:
        self.carried["stages"].pop(name, None)
        self.data["stages"][name] = {
            "outputs": outputs,
            "seconds": round(time.perf_counter() - started, 3),
            **extra,
        }

    def write(self) -> Path:
        record = {**self.data, **{key: {**self.carried[key], **self.data[key]}
                                  for key in ("inputs", "stages")}}
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path
