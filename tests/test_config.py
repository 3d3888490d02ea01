"""The config-file reader and AnalysisConfig.validate: every key kind and every error message."""

from __future__ import annotations

import pytest

from prtrust import AnalysisConfig, ConfigError, load_config
from prtrust.metrics import DIMENSIONS


def _conf(tmp_path, text):
    path = tmp_path / "prtrust.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_a_file_sets_integer_boolean_and_path_keys(tmp_path):
    lexicon = tmp_path / "vouch.txt"
    lexicon.write_text("# our phrases\nvouch for*\n\nknown contributor\n", encoding="utf-8")
    config = load_config(_conf(tmp_path, (
        "competence_window = 5\nper_repo_n = 40\nseed = -3\n"
        f"exclude_bots = yes\nlexicon_path = {lexicon}\n"
    )))
    assert (config.competence_window, config.per_repo_n, config.seed) == (5, 40, -3)
    assert config.exclude_bots is True
    assert config.lexicon_path == str(lexicon)
    assert config.load_lexicon().patterns == ("vouch for*", "known contributor")


@pytest.mark.parametrize("value, expected", [
    ("true", True), ("YES", True), ("1", True), ("on", True),
    ("false", False), ("No", False), ("0", False), ("off", False),
])
def test_every_boolean_spelling_reads(tmp_path, value, expected):
    assert load_config(_conf(tmp_path, f"exclude_bots = {value}\n")).exclude_bots is expected


@pytest.mark.parametrize("line, message", [
    ("exclude_bots = maybe", "{path}:1: exclude_bots: expected a boolean, got 'maybe'"),
    ("f_cap = big", "{path}:1: f_cap: expected a number, got 'big'"),
    ("weights.action = heavy", "{path}:1: weights.action: expected a number, got 'heavy'"),
    ("seed = 1.5", "{path}:1: seed: expected an integer, got '1.5'"),
    ("f_cap", "{path}:1: expected 'key = value', got 'f_cap'"),
    ("weights.trust = 1", "{path}:1: weights.trust: unknown dimension in weight key"),
    ("colour = blue", "{path}:1: unknown key 'colour'"),
    ("f_cap = 0", "f_cap must be positive and finite, got 0.0"),
    ("competence_window = 0", "competence_window must be >= 1, got 0"),
    ("accept_ratio = 1.5", "accept_ratio must be in [0, 1], got 1.5"),
    ("per_repo_n = 0", "per_repo_n must be >= 1, got 0"),
    ("weights.personality = -1", "weights.personality must be positive and finite, got -1.0"),
], ids=["bool", "float", "weight", "int", "no-equals", "dimension", "key", "f_cap", "competence_window",
        "accept_ratio", "per_repo_n", "weight-range"])
def test_each_config_file_error_is_named_whole(tmp_path, line, message):
    path = _conf(tmp_path, f"{line}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == message.format(path=path)


def test_an_unreadable_config_file_is_named(tmp_path):
    path = tmp_path / "missing.conf"
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == (
        f"cannot read config file {path}: [Errno 2] No such file or directory: '{path}'"
    )


def test_weights_must_cover_exactly_the_dimensions():
    with pytest.raises(ConfigError) as err:
        AnalysisConfig(weights={"action": 1.0}).validate()
    assert str(err.value) == f"weights must cover exactly the dimensions {DIMENSIONS}"
