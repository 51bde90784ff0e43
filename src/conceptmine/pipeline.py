"""End-to-end pipeline: NER, matrices, autoencoder, scoring, evaluation.

The pipeline is one table of stages in run order. Each entry names the
stage, the files it writes under the output directory, ``compute`` (a
pure computation plus the writers of those files) and ``read`` (the
cached load; ``eval`` has none). :func:`run_pipeline` walks the table
once. A stage is read from its files only when ``upto`` names a later
stage, all of its files exist and every stage before it was read too;
otherwise it is computed. A cached mention list or matrix that does not
fit the corpus, a cached model whose dimensions or activation differ
from the config's, or a cached score file that does not hold exactly the
cached mentions is an error; other config changes are not detected. Any
exception inside a stage becomes a :class:`PipelineError` naming it. All
outputs are canonically ordered; reruns with the same config and seed
are byte-identical regardless of thread count.
"""

from __future__ import annotations

import json
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
    read_scored,
    score_mentions,
    write_label_files,
    write_scored,
)

SELECTED_CONCEPTS = "selected_concepts.txt"


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
    texts = {doc.doc_id: doc.text for doc in run.corpus.docs}
    for m in run.mentions:
        text = texts.get(m.doc_id)
        if text is None or text[m.start : m.end] != m.surface:
            raise ValueError(
                f"cached mention {m.surface!r} at {m.doc_id}:{m.start}-{m.end} "
                "does not fit the corpus; rerun without --stage"
            )


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
    if run.X.doc_ids != run.corpus.doc_ids():
        raise ValueError(
            f"cached {doc_order.name} does not list the corpus's documents; "
            "rerun without --stage"
        )


def _ae_config(run: _Run) -> ae.AEConfig:
    config = run.config
    m = run.C.m_concepts
    if m < 2:
        raise ValueError(f"need at least 2 observed concepts to train, got {m}")
    encoded_dim = config.ae.encoded_dim
    return ae.AEConfig(
        input_dim=m,
        encoded_dim=max(1, m // 4) if encoded_dim is None else encoded_dim,
        learning_rate=config.ae.learning_rate,
        epochs=config.ae.epochs,
        batch_size=config.ae.batch_size,
        seed=config.seed,
        activation=config.ae.activation,
    )


def _autoencoder(run: _Run, model_path: Path, report_path: Path) -> None:
    config = run.config
    ae_config = _ae_config(run)
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
    model, want = run.model, _ae_config(run)
    cached = (model.input_dim, model.encoded_dim, model.activation)
    wanted = (want.input_dim, want.encoded_dim, want.activation)
    if cached != wanted:
        raise ValueError(
            f"cached {model_path.name} has (input_dim, encoded_dim, activation) "
            f"{cached}, the config asks for {wanted}; rerun without --stage"
        )


def _score(
    run: _Run, raw: Path, encoded: Path, raw_labels: Path, encoded_labels: Path
) -> None:
    embeddings = {
        "raw": concept_embeddings(run.C, normalized=run.config.normalized),
        "encoded": ae.encode_all(run.model, run.C, normalized=run.config.normalized),
    }
    outputs = {"raw": (raw, raw_labels), "encoded": (encoded, encoded_labels)}
    scoreable = [m for m in run.mentions if run.X.has_concept(m.concept_id)]
    rest = [m for m in run.mentions if not run.X.has_concept(m.concept_id)]
    for space, (scored_path, labels_dir) in outputs.items():
        scored = score_mentions(scoreable, run.X, embeddings[space])
        # Concepts never seen unfiltered have no embedding row; their
        # mentions are all filtered, score them 0 so no record is lost.
        scored += [ScoredMention(mention=m, score=0.0) for m in rest]
        scored.sort(key=lambda s: s.mention.sort_key())
        run.scored[space] = scored
        write_scored(scored, scored_path)
        write_label_files(scored, run.config.sweep, labels_dir)


def _read_score(run: _Run, raw: Path, encoded: Path, *labels: Path) -> None:
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


@contextmanager
def _failing_as(stage: str) -> Iterator[None]:
    try:
        yield
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(config: PipelineConfig, upto: str | None = None) -> RunResult:
    """Run the pipeline.

    With ``upto=None`` every stage is computed fresh. With a stage name,
    stages before it reuse their cached artifacts when all are present
    and no earlier stage was recomputed; the named stage itself is
    recomputed and the run stops after it.
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

    run = _Run(config, lexicon, corpus, vocab)
    reuse = upto is not None
    for stage in _TABLE[: STAGES.index(upto or STAGES[-1]) + 1]:
        paths = [root / name for name in stage.files]
        # Once a stage is computed, every later stage is computed too.
        reuse = reuse and stage.name != upto and all(p.exists() for p in paths)
        with _failing_as(stage.name):
            (stage.read if reuse else stage.compute)(run, *paths)

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
