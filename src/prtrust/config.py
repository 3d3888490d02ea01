"""Analysis configuration and the key=value config-file format.

Config files are UTF-8 text, one ``key = value`` pair per line; blank
lines and lines starting with ``#`` are ignored. The keys are the fields
of ``AnalysisConfig``.

Command-line flags always override config-file values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import inf
from pathlib import Path

from .errors import ConfigError
from .metrics import (
    DEFAULT_COMPETENCE_WINDOW,
    DEFAULT_F_CAP,
    DIMENSIONS,
    VouchLexicon,
    default_lexicon,
    left_sum,
)


def _uniform_weights() -> dict[str, float]:
    return {dimension: 1.0 / len(DIMENSIONS) for dimension in DIMENSIONS}


@dataclass
class AnalysisConfig:
    """Every knob that affects an analysis or sampling run.

    Weights must be strictly positive, with a finite sum; they are
    renormalized over the available dimensions when combining scores, so
    only ratios matter.
    Each field is a config-file key (``weights`` as ``weights.<dimension>``),
    and the field order is the key order of the config echo in reports.
    """

    f_cap: float = DEFAULT_F_CAP
    competence_window: int = DEFAULT_COMPETENCE_WINDOW
    accept_ratio: float = 0.75
    per_repo_n: int = 25
    seed: int = 0
    weights: dict[str, float] = field(default_factory=_uniform_weights)
    exclude_bots: bool = True
    lexicon_path: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f.name, getattr(self, f.name), f.type)
        for dimension, weight in self.weights.items():
            _check_type(f"weights.{dimension}", weight, "float")
        for key, out_of_range, requirement in _RANGES:
            value = getattr(self, key)
            if out_of_range(value):
                raise ConfigError(f"{key} {requirement}, got {value}")
        if set(self.weights) != set(DIMENSIONS):
            raise ConfigError(f"weights must cover exactly the dimensions {DIMENSIONS}")
        for dimension, weight in self.weights.items():
            if not 0 < weight < inf:
                raise ConfigError(f"weights.{dimension} must be positive and finite, got {weight}")
        total = left_sum(self.weights[d] for d in DIMENSIONS)  # in the order combine_scores adds them
        if total == inf:
            raise ConfigError(f"weights must have a finite sum, got {total}")

    def load_lexicon(self) -> VouchLexicon:
        """Resolve the vouch lexicon: the configured file or the built-in one."""
        if self.lexicon_path is not None:
            return VouchLexicon.from_file(self.lexicon_path)
        return default_lexicon()


# (key, test that rejects the value, requirement named in the error)
_RANGES = (
    ("f_cap", lambda v: not 0 < v < inf, "must be positive and finite"),
    ("competence_window", lambda v: v < 1, "must be >= 1"),
    ("accept_ratio", lambda v: not 0.0 <= v <= 1.0, "must be in [0, 1]"),
    ("per_repo_n", lambda v: v < 1, "must be >= 1"),
    ("per_repo_n", lambda v: v > 2**53, "must be <= 2**53"),  # so that it is exact as a float
)


def _parse_bool(value: str, where: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {value!r}")


def _parse_float(value: str, where: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from exc


def _parse_int(value: str, where: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {value!r}") from exc


# Per field annotation: the config-file parser of a scalar key (weights are read per
# dimension), the types a config built in code may hold, and their name in errors; a
# bool, though an int, is accepted only where the annotation is "bool".
_KINDS = {
    "float": (_parse_float, (int, float), "a number"),
    "int": (_parse_int, int, "an integer"),
    "bool": (_parse_bool, bool, "a boolean"),
    "str | None": (lambda value, where: value, (str, type(None)), "a string or None"),
    "dict[str, float]": (None, dict, "a dict"),
}
_SCALAR_KEYS = {f.name: _KINDS[f.type][0] for f in fields(AnalysisConfig) if f.name != "weights"}


def _check_type(key: str, value: object, annotation: str) -> None:
    _, accepted, name = _KINDS[annotation]
    if not isinstance(value, accepted) or type(value) is bool and annotation != "bool":
        raise ConfigError(f"{key} must be {name}, got {type(value).__name__}")


def load_config(path: str | Path) -> AnalysisConfig:
    """Parse a key=value config file into a validated AnalysisConfig."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    config = AnalysisConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, raw_value = stripped.partition("=")
        key = key.strip()
        value = raw_value.strip()
        where = f"{path}:{lineno}: {key}"

        if key in _SCALAR_KEYS:
            setattr(config, key, _SCALAR_KEYS[key](value, where))
        elif key.startswith("weights."):
            dimension = key[len("weights."):]
            if dimension not in DIMENSIONS:
                raise ConfigError(f"{where}: unknown dimension in weight key")
            config.weights[dimension] = _parse_float(value, where)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")

    config.validate()
    return config


def config_echo(config: AnalysisConfig, lexicon: VouchLexicon) -> dict:
    """The config record embedded in reports.

    Includes the resolved lexicon patterns so a report plus the snapshot
    it was computed from reproduces the run exactly.
    """
    echo = {f.name: getattr(config, f.name) for f in fields(config)}
    echo["weights"] = {d: config.weights[d] for d in DIMENSIONS}
    echo["lexicon_patterns"] = list(lexicon.patterns)
    return echo
