import re
from pathlib import Path

import pytest

from freshplan.config import RULES, RunConfig, apply_setting, derive_seed, load_config
from freshplan.errors import InputError


def test_defaults_match_documented_values():
    cfg = RunConfig()
    assert cfg.window.input_days == 15
    assert cfg.window.horizon_days == 7
    assert cfg.tcn.kernel == 3
    assert cfg.tcn.dilations == [1, 2]
    assert cfg.tcn.channels == 16
    assert cfg.train.epochs == 100
    assert cfg.train.lr == 1e-3
    assert cfg.bootstrap.replicas == 100
    assert cfg.bootstrap.min_fraction == 0.7
    assert cfg.bootstrap.level == 0.95
    assert cfg.topsis.top_k == 32
    assert cfg.ga.pop == 200
    assert cfg.ga.gens == 500
    assert cfg.ga.tournament == 3
    assert cfg.ga.crossover_rate == 0.9
    assert cfg.ga.mutation_prob == 0.1
    assert cfg.ga.sigma_fraction == 0.1
    assert cfg.ga.sigma_decay == 0.995


def test_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed=7\nga.pop=50\ntcn.dilations=1,2,4\n")
    cfg = load_config(str(path), overrides=["ga.pop=60", "paths.costs=c.csv"])
    assert cfg.seed == 7
    assert cfg.ga.pop == 60          # override beats file
    assert cfg.tcn.dilations == [1, 2, 4]
    assert cfg.paths.costs == "c.csv"


@pytest.mark.parametrize("key", ["ga.popsize", "ga.__doc__", "ga.__class__",
                                 "window.horizon_days", "window.input_days",
                                 "train.batch_size", "ga.elitism"])
def test_unknown_key_rejected(key):
    with pytest.raises(InputError, match="unknown config key"):
        apply_setting(RunConfig(), key, "10")


def test_bad_value_rejected():
    with pytest.raises(InputError, match="bad value"):
        apply_setting(RunConfig(), "ga.pop", "many")


@pytest.mark.parametrize("setting", [
    "bootstrap.level=1.5",
    "tcn.dilations=",
    "tcn.dilations=1,0",
    "tcn.dilations=1,,2",
    "bootstrap.dilations=,1",
    "bootstrap.dilations=",
    "bootstrap.dilations=-2",
    "bootstrap.channels=0",
    "bootstrap.epochs=-1",
    "bootstrap.replicas=0",
    "bootstrap.min_fraction=0",
    "bootstrap.min_fraction=1.5",
    "bootstrap.level=0",
    "train.epochs=-1",
    "train.lr=nan",
    "train.lr=-1",
    "train.lr=0",
    "bootstrap.lr=inf",
    "bootstrap.lr=0",
    "paths.costs=",
    "paths.plan=",
])
def test_invalid_combination_rejected(tmp_path, setting):
    path = tmp_path / "run.cfg"
    path.write_text(setting + "\n")
    key = setting.partition("=")[0]
    with pytest.raises(InputError, match=re.escape(key)):
        load_config(str(path))


@pytest.mark.parametrize("value,message", [
    ("1,,2", "bad value for tcn.dilations: '1,,2'"),
    (",1", "bad value for tcn.dilations: ',1'"),
])
def test_empty_list_item_is_a_bad_value(value, message):
    """An empty item is not dropped: it fails as a value, not by the key's rule."""
    with pytest.raises(InputError, match=re.escape(message)):
        load_config(None, [f"tcn.dilations={value}"])


def test_malformed_line_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 7\n")
    with pytest.raises(InputError, match="key=value"):
        load_config(str(path))


def test_flat_items_roundtrip():
    cfg = RunConfig()
    cfg.ga.pop = 123
    text_items = dict(cfg.flat_items())
    rebuilt = RunConfig()
    for key, value in text_items.items():
        apply_setting(rebuilt, key, value)
    assert rebuilt == cfg


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "forecast", "P01") == derive_seed(42, "forecast", "P01")
    assert derive_seed(42, "forecast", "P01") != derive_seed(42, "forecast", "P02")
    assert derive_seed(42, "forecast", "P01") != derive_seed(43, "forecast", "P01")
    assert derive_seed(42, "intervals", "P01") != derive_seed(42, "forecast", "P01")


def readme_config_keys() -> dict[str, tuple[str, str]]:
    """README's "Default config keys" block as {key: (default, accepted values)}."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Default config keys", 1)[1].split("```")[1]
    lines = [re.fullmatch(r"([a-z_.]+)=(\S*)\s*(.*)", line) for line in block.strip().splitlines()]
    return {m[1]: (m[2], m[3]) for m in lines}


def test_readme_default_keys_match_config():
    documented = {key: default for key, (default, _) in readme_config_keys().items()}
    assert documented == dict(RunConfig().flat_items())


def test_readme_config_bounds_match_rules():
    documented = {key: bound for key, (_, bound) in readme_config_keys().items()}
    assert {key: documented.get(key) for key, _, _ in RULES} == \
        {key: bound for key, _, bound in RULES}
