"""End-to-end pipeline: NER, matrices, autoencoder, scoring, evaluation.

The pipeline is one table of stages in run order. Each entry names the
stage, the files it writes under the output directory, ``compute`` (a
pure computation plus the writers of those files) and ``read`` (the
cached load; ``eval`` has none). :func:`run_pipeline` walks the table
once. A stage is read from its files only when ``upto`` names a later
stage, all of its files exist, every stage before it was read too and
``fingerprint.json`` equals this run's :func:`fingerprint`; otherwise it
is computed. Any exception inside a stage becomes a
:class:`PipelineError` naming it. All outputs are canonically ordered;
reruns with the same config and seed are byte-identical.
"""

from __future__ import annotations

import json
import shutil
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from . import autoencoder as ae
from . import evaluate as ev
from .config import PipelineConfig
from .ingest import Corpus, load_corpus
from .lexicon import (
    ConceptId,
    Lexicon,
    LexiconError,
    Vocabulary,
    build_vocabulary,
    expand_descendants,
    extract_leaf_concepts,
    load_lexicon,
)
from .matrix import (
    CoocMatrix,
    DocConceptMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embeddings,
    read_id_file,
    read_sparse_counts,
    write_id_file,
    write_sparse_matrix,
)
from .ner import Mention, find_corpus_mentions, read_mentions, write_mentions
from .selflabel import (
    ScoredMention,
    label_file_name,
    read_scored,
    score_mentions,
    write_label_files,
    write_scored,
)

SELECTED_CONCEPTS = "selected_concepts.txt"
FINGERPRINT = "fingerprint.json"
# Outputs do not depend on these: eval is never read back, threads change no byte.
_UNFINGERPRINTED = ("output_dir", "gold_path", "threads")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class RunResult:
    n_docs: int
    n_mentions: int
    n_unfiltered: int
    m_concepts: int
    encoded_dim: int | None
    auc_raw: float | None
    auc_encoded: float | None

    @property
    def auc_gap(self) -> float | None:
        if self.auc_raw is None or self.auc_encoded is None:
            return None
        return abs(self.auc_raw - self.auc_encoded)


@dataclass
class _Run:
    """The inputs every stage sees, plus the result of each stage so far."""

    config: PipelineConfig
    lexicon: Lexicon
    corpus: Corpus
    vocab: Vocabulary
    mentions: list[Mention] = field(default_factory=list)
    X: DocConceptMatrix | None = None
    C: CoocMatrix | None = None
    model: ae.AEModel | None = None
    scored: dict[str, list[ScoredMention]] = field(default_factory=dict)
    aucs: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class _Stage:
    """One table entry. ``compute`` and ``read`` take the run and the
    paths of ``files``, in order."""

    name: str
    files: tuple[str, ...]
    compute: Callable[..., None]
    read: Callable[..., None] | None = None


def select_concepts(
    lexicon: Lexicon, expand_groups: tuple[str, ...]
) -> set[ConceptId]:
    """Matching vocabulary selection: every leaf concept, plus the full
    descendant closure of the concepts in the expansion groups. A group
    that no concept carries is an error."""
    groups = {c.group for c in lexicon.concepts}
    for group in expand_groups:
        if group not in groups:
            raise LexiconError(f"expand group {group!r} names no concept of the lexicon")
    roots = {c.id for c in lexicon.concepts if c.group in expand_groups}
    return extract_leaf_concepts(lexicon) | expand_descendants(lexicon, roots)


def _ner(run: _Run, path: Path) -> None:
    run.mentions = find_corpus_mentions(
        run.corpus, run.vocab, rules=run.config.rules, threads=run.config.threads
    )
    write_mentions(run.mentions, path)


def _read_ner(run: _Run, path: Path) -> None:
    run.mentions = read_mentions(path)


def _matrix(
    run: _Run, doc_matrix: Path, doc_order: Path, concept_order: Path, cooc: Path
) -> None:
    run.X = build_doc_concept_matrix(run.corpus, run.mentions, run.lexicon)
    run.C = build_cooc_matrix(run.X)
    write_sparse_matrix(run.X, doc_matrix)
    write_id_file(run.X.doc_ids, doc_order)
    write_id_file(run.X.concept_ids, concept_order)
    write_sparse_matrix(run.C, cooc)


def _read_matrix(
    run: _Run, doc_matrix: Path, doc_order: Path, concept_order: Path, cooc: Path
) -> None:
    concept_ids = read_id_file(concept_order)
    run.X = DocConceptMatrix(
        doc_ids=read_id_file(doc_order),
        concept_ids=concept_ids,
        counts=read_sparse_counts(doc_matrix),
    )
    run.C = CoocMatrix(concept_ids=concept_ids, counts=read_sparse_counts(cooc))


def _autoencoder(run: _Run, model_path: Path, report_path: Path) -> None:
    config = run.config
    m = run.C.m_concepts
    if m < 2:
        raise ValueError(f"need at least 2 observed concepts to train, got {m}")
    encoded_dim = config.ae.encoded_dim
    ae_config = ae.AEConfig(
        input_dim=m,
        encoded_dim=max(1, m // 4) if encoded_dim is None else encoded_dim,
        learning_rate=config.ae.learning_rate,
        epochs=config.ae.epochs,
        batch_size=config.ae.batch_size,
        seed=config.seed,
        activation=config.ae.activation,
    )
    data = concept_embeddings(run.C, normalized=config.normalized)
    run.model, report = ae.train(ae.init_model(ae_config), data, ae_config)
    ae.save_model(run.model, model_path, seed=config.seed)
    report_doc = {
        "seed": report.seed,
        "final_loss": report.final_loss,
        "loss_per_epoch": list(report.loss_per_epoch),
    }
    report_path.write_text(json.dumps(report_doc, indent=1) + "\n", encoding="utf-8")


def _read_autoencoder(run: _Run, model_path: Path, report_path: Path) -> None:
    run.model = ae.load_model(model_path)


def _score(
    run: _Run, raw: Path, encoded: Path, raw_labels: Path, encoded_labels: Path
) -> None:
    embeddings = {
        "raw": concept_embeddings(run.C, normalized=run.config.normalized),
        "encoded": ae.encode_all(run.model, run.C, normalized=run.config.normalized),
    }
    outputs = {"raw": (raw, raw_labels), "encoded": (encoded, encoded_labels)}
    for space, (scored_path, labels_dir) in outputs.items():
        scored = score_mentions(run.mentions, run.X, embeddings[space])
        run.scored[space] = scored
        write_scored(scored, scored_path)
        write_label_files(scored, run.config.sweep, labels_dir)


def _read_score(run: _Run, raw: Path, encoded: Path, *labels: Path) -> None:
    names = sorted(label_file_name(tau) for tau in run.config.sweep.thresholds)
    for labels_dir in labels:
        if sorted(p.name for p in labels_dir.glob("threshold_*.csv")) != names:
            raise ValueError(
                f"cached {labels_dir.name} does not hold the label files of the sweep; "
                "rerun without --stage"
            )
    for space, path in (("raw", raw), ("encoded", encoded)):
        run.scored[space] = read_scored(path)
        if [s.mention for s in run.scored[space]] != run.mentions:
            raise ValueError(
                f"cached {path.name} does not hold the mentions of mentions.jsonl; "
                "rerun without --stage"
            )


def _eval(
    run: _Run, raw_pr: Path, encoded_pr: Path, metrics_path: Path, auc_path: Path
) -> None:
    gold = ev.load_gold(run.config.gold_path, run.corpus)
    baseline_predicted = [(m, not m.filtered) for m in run.mentions]
    baseline_counts = ev.match_to_gold(baseline_predicted, gold)
    baseline = ev.compute_metrics(baseline_counts)
    per_concept = ev.per_concept_metrics(baseline_predicted, gold, run.lexicon)

    aucs = run.aucs
    for space, pr_path in (("raw", raw_pr), ("encoded", encoded_pr)):
        points = ev.pr_sweep(run.scored[space], gold, run.config.sweep)
        ev.write_pr_csv(points, pr_path)
        aucs[space] = ev.pr_auc(points)
    gap = abs(aucs["raw"] - aucs["encoded"])

    metrics_doc = {
        "gold": {
            "total": len(gold),
            "true": sum(1 for g in gold if g.is_true),
            "not_aces": sum(1 for g in gold if not g.is_true),
        },
        "baseline": {**asdict(baseline_counts), **baseline._asdict()},
        "per_concept": {cid: m._asdict() for cid, m in per_concept.items()},
        "selflabel": {
            "raw": {"pr_auc": aucs["raw"]},
            "encoded": {"pr_auc": aucs["encoded"]},
            "auc_gap": gap,
        },
    }
    metrics_path.write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    auc_doc = {"raw": aucs["raw"], "encoded": aucs["encoded"], "gap": gap}
    auc_path.write_text(
        json.dumps(auc_doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


_TABLE = (
    _Stage("ner", ("mentions.jsonl",), _ner, _read_ner),
    _Stage(
        "matrix",
        ("doc_concept_matrix.txt", "doc_order.txt", "concept_order.txt", "cooc_matrix.txt"),
        _matrix,
        _read_matrix,
    ),
    _Stage(
        "autoencoder",
        ("autoencoder.json", "train_report.json"),
        _autoencoder,
        _read_autoencoder,
    ),
    _Stage(
        "score",
        ("scored_raw.jsonl", "scored_encoded.jsonl", "labels_raw", "labels_encoded"),
        _score,
        _read_score,
    ),
    _Stage(
        "eval",
        ("pr_raw.csv", "pr_encoded.csv", "metrics.json", "auc_summary.json"),
        _eval,
    ),
)

STAGES = tuple(stage.name for stage in _TABLE)


def stage_of(name: str) -> str:
    """The stage that writes the output file ``name``; "run" for any other."""
    return next((stage.name for stage in _TABLE if name in stage.files), "run")


def _plain(value: object) -> object:
    """JSON form of a config value: an input file is its size and CRC-32."""
    if isinstance(value, Path):
        crc = 0
        with value.open("rb") as handle:  # 64 KiB at a time, so peak RSS stays put
            while chunk := handle.read(1 << 16):
                crc = zlib.crc32(chunk, crc)
        return [value.stat().st_size, crc]
    if isinstance(value, frozenset):
        return sorted(value)
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def fingerprint(config: PipelineConfig) -> str:
    """The config as JSON less ``_UNFINGERPRINTED``, input files by content."""
    doc = asdict(config)
    for name in _UNFINGERPRINTED:
        del doc[name]
    return json.dumps(doc, sort_keys=True, default=_plain) + "\n"


@contextmanager
def _failing_as(stage: str) -> Iterator[None]:
    try:
        yield
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(config: PipelineConfig, upto: str | None = None) -> RunResult:
    """Run the pipeline.

    With ``upto=None`` every stage is computed fresh. With a stage name,
    the stages before it are read back by the module's rule, the named
    stage is computed, the run stops after it and every later stage's
    files are removed. ``fingerprint.json`` is removed before a stage
    that can be read back is computed and rewritten after it, so it
    never vouches for a half-written stage.
    """
    if upto is not None and upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}, expected one of {STAGES}")
    root = config.output_dir
    root.mkdir(parents=True, exist_ok=True)
    with _failing_as("run"):
        lexicon = load_lexicon(config.lexicon_path)
        corpus = load_corpus(config.corpus_path)
        selected = select_concepts(lexicon, config.expand_groups)
        vocab = build_vocabulary(lexicon, selected)
        write_id_file(sorted(selected), root / SELECTED_CONCEPTS)
        built_from, stamp = fingerprint(config), root / FINGERPRINT
        reuse = upto is not None and stamp.is_file()
        reuse = reuse and stamp.read_bytes() == built_from.encode()

    last = STAGES.index(upto or STAGES[-1])
    # Later stages' artifacts no longer follow from this run's; drop them.
    for path in (root / name for stage in _TABLE[last + 1 :] for name in stage.files):
        if path.is_dir():
            shutil.rmtree(path)
        path.unlink(missing_ok=True)

    run = _Run(config, lexicon, corpus, vocab)
    for stage in _TABLE[: last + 1]:
        paths = [root / name for name in stage.files]
        # Once a stage is computed, every later stage is computed too.
        reuse = reuse and stage.name != upto and all(p.exists() for p in paths)
        # eval's files are never read back, so it leaves the fingerprint be.
        renew = not reuse and stage.read is not None
        with _failing_as(stage.name):
            if renew:
                stamp.unlink(missing_ok=True)
            (stage.read if reuse else stage.compute)(run, *paths)
            if renew:
                stamp.write_text(built_from, encoding="utf-8")

    return RunResult(
        n_docs=len(corpus),
        n_mentions=len(run.mentions),
        n_unfiltered=sum(1 for m in run.mentions if not m.filtered),
        m_concepts=run.X.m_concepts if run.X is not None else 0,
        encoded_dim=run.model.encoded_dim if run.model is not None else None,
        auc_raw=run.aucs.get("raw"),
        auc_encoded=run.aucs.get("encoded"),
    )


def lexicon_summary(config: PipelineConfig) -> dict[str, object]:
    """Counts for the lexicon subcommand; also writes the resolved
    concept list."""
    lexicon = load_lexicon(config.lexicon_path)
    leaves = extract_leaf_concepts(lexicon)
    roots = {c.id for c in lexicon.concepts if c.group in config.expand_groups}
    expanded = expand_descendants(lexicon, roots)
    selected = select_concepts(lexicon, config.expand_groups)
    vocab = build_vocabulary(lexicon, selected)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    selected_path = config.output_dir / SELECTED_CONCEPTS
    write_id_file(sorted(selected), selected_path)
    return {
        "concepts": len(lexicon),
        "terms": lexicon.n_terms(),
        "leaves": len(leaves),
        "expansion_roots": len(roots),
        "expanded": len(expanded),
        "selected": len(selected),
        "patterns": len(vocab),
        "selected_path": str(selected_path),
    }
