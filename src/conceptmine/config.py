"""Pipeline configuration: one INI-style file plus command-line overrides.

Every option is one row of ``_OPTIONS``: its default, written as the text
a file would hold, and the one parser that turns text into a checked
value. An override from ``OVERRIDES`` is written over the file as text, so
file values, overrides and defaults all pass the same parser, and a bad
value fails as ``<path>: <section>.<option>: <reason>``. An unknown
section or option is an error, a ``[DEFAULT]`` section is not supported,
and values are literal (no ``%`` interpolation).

Relative paths in the file are resolved against the directory containing
the config file, so a checked-in config stays runnable from anywhere. A
relative ``output`` override, as given on the command line, is kept as
given and so resolves against the working directory.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .ner import FilterRules
from .selflabel import ThresholdSweep

# The encoder activations the autoencoder implements.
ACTIVATIONS = ("identity", "sigmoid")

DEFAULT_NEGATION_CUES = ("no", "not", "never", "without", "denies", "denied")


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@dataclass(frozen=True)
class AESettings:
    encoded_dim: int | None  # None means m // 4, floor 1
    learning_rate: float
    epochs: int
    batch_size: int
    activation: str


@dataclass(frozen=True)
class PipelineConfig:
    lexicon_path: Path
    corpus_path: Path
    gold_path: Path
    output_dir: Path
    expand_groups: tuple[str, ...]
    rules: FilterRules
    normalized: bool
    ae: AESettings
    sweep: ThresholdSweep
    seed: int
    threads: int  # accepted for compatibility; NER runs in one process


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _bool(raw: str) -> bool:
    folded = raw.lower()
    if folded in ("true", "1", "yes", "on"):
        return True
    if folded in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _int(low: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value

    return parse


def _rate(raw: str) -> float:
    value = float(raw)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"expected a finite number >= 0, got {raw!r}")
    return value


def _encoded_dim(raw: str) -> int | None:
    return None if raw.lower() == "auto" else _int(1)(raw)


def _thresholds(raw: str) -> ThresholdSweep:
    thresholds = tuple(float(x) for x in _split_list(raw))
    if len(thresholds) < 2:  # a PR-AUC needs two points
        raise ValueError(f"expected at least 2 thresholds, got {len(thresholds)}")
    return ThresholdSweep(thresholds)


def _activation(raw: str) -> str:
    if raw not in ACTIVATIONS:
        raise ValueError(f"expected one of {ACTIVATIONS}, got {raw!r}")
    return raw


# (section, option) -> (default as file text, or None if required; parser)
_OPTIONS: dict[tuple[str, str], tuple[str | None, Callable[[str], object]]] = {
    ("paths", "lexicon"): (None, Path),
    ("paths", "corpus"): (None, Path),
    ("paths", "gold"): (None, Path),
    ("paths", "output"): ("out", Path),
    ("lexicon", "expand_groups"): ("mental_disorder, adverse_event", _split_list),
    # Compiling the cues rejects one with no tokens.
    ("ner", "negation_cues"): (
        ", ".join(DEFAULT_NEGATION_CUES),
        lambda raw: FilterRules(_split_list(raw)).negation_cues,
    ),
    ("ner", "negation_window"): ("3", _int(0)),
    ("ner", "stop_surfaces"): (
        "", lambda raw: frozenset(s.lower() for s in _split_list(raw))
    ),
    ("matrix", "normalized"): ("true", _bool),
    ("autoencoder", "encoded_dim"): ("auto", _encoded_dim),
    ("autoencoder", "learning_rate"): ("0.05", _rate),
    ("autoencoder", "epochs"): ("500", _int(1)),
    ("autoencoder", "batch_size"): ("16", _int(1)),
    ("autoencoder", "activation"): ("identity", _activation),
    ("selflabel", "thresholds"): (
        ", ".join(map(repr, ThresholdSweep().thresholds)), _thresholds
    ),
    ("run", "seed"): ("7", _int(0)),
    ("run", "threads"): ("1", _int(1)),
}

# Override keys (command-line dests) other than ``output``.
OVERRIDES = {
    "seed": ("run", "seed"),
    "threads": ("run", "threads"),
    "encoded_dim": ("autoencoder", "encoded_dim"),
    "epochs": ("autoencoder", "epochs"),
    "learning_rate": ("autoencoder", "learning_rate"),
    "normalized": ("matrix", "normalized"),
}


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> PipelineConfig:
    """Parse the config file and the overrides (``output`` plus the keys
    of ``OVERRIDES``; ``None`` values are skipped), check every value,
    check that the input files exist and create the output directory."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    known = {section for section, _ in _OPTIONS}
    for section in parser:  # [DEFAULT] first, then the file's sections
        if section not in known and section != parser.default_section:
            raise ConfigError(f"{path}: [{section}]: unknown section")
        for option in parser[section]:
            if (section, option) not in _OPTIONS:
                reason = "unknown option" if section in known else "[DEFAULT] is not supported"
                raise ConfigError(f"{path}: {section}.{option}: {reason}")

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    output = overrides.pop("output", None)
    for key, value in overrides.items():
        section, option = OVERRIDES[key]
        parser.read_dict({section: {option: str(value)}})

    v: dict[str, object] = {}
    for (section, option), (default, parse) in _OPTIONS.items():
        raw = parser.get(section, option, fallback=default)
        try:
            if raw is None:
                raise ValueError("missing required option")
            v[option] = parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: {section}.{option}: {exc}") from exc

    for option in ("lexicon", "corpus", "gold"):
        v[option] = path.parent / v[option]  # an absolute value stays as is
        if not v[option].is_file():
            raise ConfigError(f"{path}: paths.{option}: file not found: {v[option]}")
    output_dir = Path(str(output)) if output else path.parent / v["output"]
    try:
        output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output dir not creatable: {exc}") from exc

    return PipelineConfig(
        lexicon_path=v["lexicon"],
        corpus_path=v["corpus"],
        gold_path=v["gold"],
        output_dir=output_dir,
        expand_groups=v["expand_groups"],
        rules=FilterRules(
            negation_cues=v["negation_cues"],
            negation_window=v["negation_window"],
            stop_surfaces=v["stop_surfaces"],
        ),
        normalized=v["normalized"],
        ae=AESettings(
            encoded_dim=v["encoded_dim"],
            learning_rate=v["learning_rate"],
            epochs=v["epochs"],
            batch_size=v["batch_size"],
            activation=v["activation"],
        ),
        sweep=v["thresholds"],
        seed=v["seed"],
        threads=v["threads"],
    )
