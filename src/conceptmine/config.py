"""Pipeline configuration: one INI-style file plus command-line overrides.

Relative paths in the file are resolved against the directory containing
the config file, so a checked-in config stays runnable from anywhere. A
relative ``output`` override, as given on the command line, is resolved
against the working directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .autoencoder import ACTIVATIONS
from .ner import FilterRules
from .selflabel import ThresholdSweep

DEFAULT_NEGATION_CUES = ("no", "not", "never", "without", "denies", "denied")


class ConfigError(ValueError):
    """Invalid or incomplete pipeline configuration."""


@dataclass(frozen=True)
class AESettings:
    encoded_dim: int | None = None  # None means m // 4, floor 1
    learning_rate: float = 0.05
    epochs: int = 500
    batch_size: int = 16
    activation: str = "identity"


@dataclass(frozen=True)
class PipelineConfig:
    lexicon_path: Path
    corpus_path: Path
    gold_path: Path
    output_dir: Path
    expand_groups: tuple[str, ...] = ("mental_disorder", "adverse_event")
    rules: FilterRules = field(default_factory=FilterRules)
    normalized: bool = True
    ae: AESettings = field(default_factory=AESettings)
    sweep: ThresholdSweep = field(default_factory=ThresholdSweep)
    seed: int = 7
    threads: int = 1

    def validate(self) -> None:
        for label, path in (
            ("lexicon", self.lexicon_path),
            ("corpus", self.corpus_path),
            ("gold", self.gold_path),
        ):
            if not path.is_file():
                raise ConfigError(f"{label} file not found: {path}")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        try:
            self.output_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output dir not creatable: {exc}") from exc


def _split_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _get_bool(raw: str, option: str) -> bool:
    folded = raw.strip().lower()
    if folded in ("true", "1", "yes", "on"):
        return True
    if folded in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"option {option}: expected a boolean, got {raw!r}")


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> PipelineConfig:
    """Parse the config file, apply overrides, resolve and validate paths.

    Recognized overrides: output, seed, threads, encoded_dim, epochs,
    learning_rate, normalized.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    overrides = overrides or {}
    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else (base / p)

    try:
        paths = parser["paths"]
        lexicon_path = resolve(paths["lexicon"])
        corpus_path = resolve(paths["corpus"])
        gold_path = resolve(paths["gold"])
        output_override = overrides.get("output")
        if output_override:
            output_dir = Path(str(output_override))
        else:
            output_dir = resolve(paths.get("output", "out"))
    except KeyError as exc:
        raise ConfigError(f"{path}: missing required [paths] option {exc}") from exc

    expand_groups = _split_list(
        parser.get("lexicon", "expand_groups", fallback="mental_disorder, adverse_event")
    )

    cues_raw = parser.get("ner", "negation_cues", fallback=None)
    cues = _split_list(cues_raw) if cues_raw is not None else DEFAULT_NEGATION_CUES
    try:
        window = parser.getint("ner", "negation_window", fallback=3)
    except ValueError as exc:
        raise ConfigError(f"{path}: ner.negation_window: {exc}") from exc
    stop = frozenset(
        s.lower() for s in _split_list(parser.get("ner", "stop_surfaces", fallback=""))
    )
    rules = FilterRules(
        negation_cues=cues, negation_window=window, stop_surfaces=stop
    )

    normalized_raw = overrides.get("normalized")
    if normalized_raw is None:
        normalized = _get_bool(
            parser.get("matrix", "normalized", fallback="true"), "matrix.normalized"
        )
    else:
        normalized = bool(normalized_raw)

    def _num(section: str, option: str, fallback: float, cast=float):
        raw = parser.get(section, option, fallback=None)
        if raw is None:
            return fallback
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: {section}.{option}: {exc}") from exc

    def _override(key: str, fallback, cast):
        value = overrides.get(key)
        return fallback if value is None else cast(value)

    enc_raw = overrides.get("encoded_dim")
    if enc_raw is None:
        enc_str = parser.get("autoencoder", "encoded_dim", fallback="auto").strip()
        if enc_str.lower() == "auto":
            encoded_dim = None
        else:
            encoded_dim = _num("autoencoder", "encoded_dim", None, int)
    else:
        encoded_dim = int(enc_raw)  # type: ignore[arg-type]
    ae = AESettings(
        encoded_dim=encoded_dim,
        learning_rate=_override(
            "learning_rate",
            _num("autoencoder", "learning_rate", AESettings.learning_rate),
            float,
        ),
        epochs=_override(
            "epochs", _num("autoencoder", "epochs", AESettings.epochs, int), int
        ),
        batch_size=_num("autoencoder", "batch_size", AESettings.batch_size, int),
        activation=parser.get(
            "autoencoder", "activation", fallback=AESettings.activation
        ).strip(),
    )
    if ae.activation not in ACTIVATIONS:
        raise ConfigError(
            f"{path}: autoencoder.activation: expected one of {ACTIVATIONS}, "
            f"got {ae.activation!r}"
        )

    sweep_raw = parser.get("selflabel", "thresholds", fallback=None)
    if sweep_raw is None:
        sweep = ThresholdSweep()
    else:
        try:
            sweep = ThresholdSweep(
                thresholds=tuple(float(x) for x in _split_list(sweep_raw))
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: selflabel.thresholds: {exc}") from exc

    seed = _override("seed", _num("run", "seed", 7, int), int)
    threads = _override("threads", _num("run", "threads", 1, int), int)

    config = PipelineConfig(
        lexicon_path=lexicon_path,
        corpus_path=corpus_path,
        gold_path=gold_path,
        output_dir=output_dir,
        expand_groups=expand_groups,
        rules=rules,
        normalized=normalized,
        ae=ae,
        sweep=sweep,
        seed=seed,
        threads=threads,
    )
    config.validate()
    return config
