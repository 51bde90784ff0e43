"""End-to-end pipeline: NER, matrices, autoencoder, scoring, evaluation.

Stages write their artifacts under the configured output directory and
later stages can start from those cached files, so any prefix of the
pipeline reruns without recomputing what exists. All outputs are
canonically ordered; reruns with the same config and seed are
byte-identical regardless of thread count.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from . import autoencoder as ae
from . import evaluate as ev
from .config import PipelineConfig
from .ingest import Corpus, load_corpus
from .lexicon import (
    ConceptId,
    Lexicon,
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
from .selflabel import ScoredMention, score_mentions, write_label_files, write_scored

STAGES = ("ner", "matrix", "autoencoder", "score", "eval")


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class Artifacts:
    """Canonical artifact paths under one output directory."""

    root: Path

    @property
    def selected_concepts(self) -> Path:
        return self.root / "selected_concepts.txt"

    @property
    def mentions(self) -> Path:
        return self.root / "mentions.jsonl"

    @property
    def doc_matrix(self) -> Path:
        return self.root / "doc_concept_matrix.txt"

    @property
    def doc_order(self) -> Path:
        return self.root / "doc_order.txt"

    @property
    def concept_order(self) -> Path:
        return self.root / "concept_order.txt"

    @property
    def cooc_matrix(self) -> Path:
        return self.root / "cooc_matrix.txt"

    @property
    def model(self) -> Path:
        return self.root / "autoencoder.json"

    @property
    def train_report(self) -> Path:
        return self.root / "train_report.json"

    def scored(self, space: str) -> Path:
        return self.root / f"scored_{space}.jsonl"

    def labels_dir(self, space: str) -> Path:
        return self.root / f"labels_{space}"

    def pr_csv(self, space: str) -> Path:
        return self.root / f"pr_{space}.csv"

    @property
    def metrics(self) -> Path:
        return self.root / "metrics.json"

    @property
    def auc_summary(self) -> Path:
        return self.root / "auc_summary.json"

    def stage_of(self, path: Path) -> str:
        names = {
            self.mentions.name: "ner",
            self.doc_matrix.name: "matrix",
            self.doc_order.name: "matrix",
            self.concept_order.name: "matrix",
            self.cooc_matrix.name: "matrix",
            self.model.name: "autoencoder",
            self.train_report.name: "autoencoder",
            self.scored("raw").name: "score",
            self.scored("encoded").name: "score",
            self.pr_csv("raw").name: "eval",
            self.pr_csv("encoded").name: "eval",
            self.metrics.name: "eval",
            self.auc_summary.name: "eval",
        }
        return names.get(path.name, "run")


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


def select_concepts(
    lexicon: Lexicon, expand_groups: tuple[str, ...]
) -> set[ConceptId]:
    """Matching vocabulary selection: every leaf concept, plus the full
    descendant closure of the concepts in the expansion groups."""
    roots = {c.id for c in lexicon.concepts if c.group in expand_groups}
    return extract_leaf_concepts(lexicon) | expand_descendants(lexicon, roots)


def _guard(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(stage, str(exc)) from exc


def run_pipeline(config: PipelineConfig, upto: str | None = None) -> RunResult:
    """Run the pipeline.

    With ``upto=None`` every stage is computed fresh. With a stage name,
    stages before it reuse their cached artifacts when present and the
    named stage itself is recomputed; the run stops after it.
    """
    fresh = upto is None
    if fresh:
        limit = len(STAGES) - 1
    elif upto in STAGES:
        limit = STAGES.index(upto)
    else:
        raise ValueError(f"unknown stage {upto!r}, expected one of {STAGES}")
    art = Artifacts(config.output_dir)
    art.root.mkdir(parents=True, exist_ok=True)

    lexicon = _guard("run", load_lexicon, config.lexicon_path)
    corpus: Corpus = _guard("run", load_corpus, config.corpus_path)
    selected = _guard("run", select_concepts, lexicon, config.expand_groups)
    vocab: Vocabulary = _guard("run", build_vocabulary, lexicon, selected)
    write_id_file(sorted(selected), art.selected_concepts)

    mentions = _stage_ner(
        config, art, corpus, vocab, recompute=fresh or limit == 0
    )
    result = RunResult(
        n_docs=len(corpus),
        n_mentions=len(mentions),
        n_unfiltered=sum(1 for m in mentions if not m.filtered),
        m_concepts=0,
        encoded_dim=None,
        auc_raw=None,
        auc_encoded=None,
    )
    if limit == 0:
        return result

    X, C = _stage_matrix(
        config, art, corpus, mentions, lexicon, recompute=fresh or limit == 1
    )
    result = dataclasses.replace(result, m_concepts=X.m_concepts)
    if limit == 1:
        return result

    model = _stage_autoencoder(config, art, C, recompute=fresh or limit == 2)
    result = dataclasses.replace(result, encoded_dim=model.encoded_dim)
    if limit == 2:
        return result

    scored = _stage_score(
        config, art, mentions, X, C, model, recompute=fresh or limit == 3
    )
    if limit == 3:
        return result

    auc_raw, auc_encoded = _stage_eval(config, art, corpus, lexicon, mentions, scored)
    return dataclasses.replace(result, auc_raw=auc_raw, auc_encoded=auc_encoded)


def _stage_ner(
    config: PipelineConfig,
    art: Artifacts,
    corpus: Corpus,
    vocab: Vocabulary,
    recompute: bool,
) -> list[Mention]:
    if not recompute and art.mentions.is_file():
        return _guard("ner", read_mentions, art.mentions)
    mentions = _guard(
        "ner",
        find_corpus_mentions,
        corpus,
        vocab,
        rules=config.rules,
        threads=config.threads,
    )
    write_mentions(mentions, art.mentions)
    return mentions


def _stage_matrix(
    config: PipelineConfig,
    art: Artifacts,
    corpus: Corpus,
    mentions: list[Mention],
    lexicon: Lexicon,
    recompute: bool,
) -> tuple[DocConceptMatrix, CoocMatrix]:
    cached = (art.doc_matrix, art.doc_order, art.concept_order, art.cooc_matrix)
    if not recompute and all(p.is_file() for p in cached):
        doc_ids = read_id_file(art.doc_order)
        concept_ids = read_id_file(art.concept_order)
        X = _guard(
            "matrix",
            DocConceptMatrix,
            doc_ids=doc_ids,
            concept_ids=concept_ids,
            counts=_guard("matrix", read_sparse_counts, art.doc_matrix),
        )
        C = _guard(
            "matrix",
            CoocMatrix,
            concept_ids=concept_ids,
            counts=_guard("matrix", read_sparse_counts, art.cooc_matrix),
        )
        return X, C
    X = _guard("matrix", build_doc_concept_matrix, corpus, mentions, lexicon)
    C = _guard("matrix", build_cooc_matrix, X)
    write_sparse_matrix(X, art.doc_matrix)
    write_id_file(X.doc_ids, art.doc_order)
    write_id_file(X.concept_ids, art.concept_order)
    write_sparse_matrix(C, art.cooc_matrix)
    return X, C


def _auto_encoded_dim(m: int, configured: int | None) -> int:
    if configured is not None:
        return configured
    return max(1, m // 4)


def _stage_autoencoder(
    config: PipelineConfig, art: Artifacts, C: CoocMatrix, recompute: bool
) -> ae.AEModel:
    if not recompute and art.model.is_file():
        return _guard("autoencoder", ae.load_model, art.model)
    m = C.m_concepts
    if m < 2:
        raise PipelineError(
            "autoencoder",
            f"need at least 2 observed concepts to train, got {m}",
        )
    encoded_dim = _auto_encoded_dim(m, config.ae.encoded_dim)
    ae_config = ae.AEConfig(
        input_dim=m,
        encoded_dim=encoded_dim,
        learning_rate=config.ae.learning_rate,
        epochs=config.ae.epochs,
        batch_size=config.ae.batch_size,
        seed=config.seed,
        activation=config.ae.activation,
    )
    data = concept_embeddings(C, normalized=config.normalized)
    model = _guard("autoencoder", ae.init_model, ae_config)
    model, report = _guard("autoencoder", ae.train, model, data, ae_config)
    ae.save_model(model, art.model, seed=config.seed)
    art.train_report.write_text(
        json.dumps(
            {
                "seed": report.seed,
                "final_loss": report.final_loss,
                "loss_per_epoch": list(report.loss_per_epoch),
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    return model


def _split_scoreable(
    mentions: list[Mention], X: DocConceptMatrix
) -> tuple[list[Mention], list[Mention]]:
    scoreable = [m for m in mentions if X.has_concept(m.concept_id)]
    rest = [m for m in mentions if not X.has_concept(m.concept_id)]
    return scoreable, rest


def _stage_score(
    config: PipelineConfig,
    art: Artifacts,
    mentions: list[Mention],
    X: DocConceptMatrix,
    C: CoocMatrix,
    model: ae.AEModel,
    recompute: bool,
) -> dict[str, list[ScoredMention]]:
    from .selflabel import read_scored

    cached = (art.scored("raw"), art.scored("encoded"))
    if not recompute and all(p.is_file() for p in cached):
        return {
            "raw": _guard("score", read_scored, art.scored("raw")),
            "encoded": _guard("score", read_scored, art.scored("encoded")),
        }
    spaces = {
        "raw": concept_embeddings(C, normalized=config.normalized),
        "encoded": _guard(
            "score", ae.encode_all, model, C, normalized=config.normalized
        ),
    }
    scoreable, rest = _split_scoreable(mentions, X)
    out: dict[str, list[ScoredMention]] = {}
    for space, embeddings in spaces.items():
        scored = _guard("score", score_mentions, scoreable, X, embeddings)
        # Concepts never seen unfiltered have no embedding row; their
        # mentions are all filtered, score them 0 so no record is lost.
        scored += [ScoredMention(mention=m, score=0.0) for m in rest]
        scored.sort(key=lambda s: s.mention.sort_key())
        out[space] = scored
        write_scored(scored, art.scored(space))
        write_label_files(scored, config.sweep, art.labels_dir(space))
    return out


def _stage_eval(
    config: PipelineConfig,
    art: Artifacts,
    corpus: Corpus,
    lexicon: Lexicon,
    mentions: list[Mention],
    scored: dict[str, list[ScoredMention]],
) -> tuple[float, float]:
    gold = _guard("eval", ev.load_gold, config.gold_path, corpus)
    baseline_predicted = [(m, not m.filtered) for m in mentions]
    baseline_counts = _guard("eval", ev.match_to_gold, baseline_predicted, gold)
    baseline = ev.compute_metrics(baseline_counts)
    per_concept = _guard(
        "eval", ev.per_concept_metrics, baseline_predicted, gold, lexicon
    )

    aucs: dict[str, float] = {}
    for space in ("raw", "encoded"):
        points = _guard("eval", ev.pr_sweep, scored[space], gold, config.sweep)
        ev.write_pr_csv(points, art.pr_csv(space))
        aucs[space] = _guard("eval", ev.pr_auc, points)

    metrics_doc = {
        "gold": {
            "total": len(gold),
            "true": sum(1 for g in gold if g.is_true),
            "not_aces": sum(1 for g in gold if not g.is_true),
        },
        "baseline": {
            "tp": baseline_counts.tp,
            "fp": baseline_counts.fp,
            "fn": baseline_counts.fn,
            "precision": baseline.precision,
            "recall": baseline.recall,
            "f1": baseline.f1,
        },
        "per_concept": {
            cid: {
                "precision": m.precision,
                "recall": m.recall,
                "f1": m.f1,
                "support": m.support,
            }
            for cid, m in per_concept.items()
        },
        "selflabel": {
            "raw": {"pr_auc": aucs["raw"]},
            "encoded": {"pr_auc": aucs["encoded"]},
            "auc_gap": abs(aucs["raw"] - aucs["encoded"]),
        },
    }
    art.metrics.write_text(
        json.dumps(metrics_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    art.auc_summary.write_text(
        json.dumps(
            {
                "raw": aucs["raw"],
                "encoded": aucs["encoded"],
                "gap": abs(aucs["raw"] - aucs["encoded"]),
            },
            indent=1,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return aucs["raw"], aucs["encoded"]


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
    art = Artifacts(config.output_dir)
    write_id_file(sorted(selected), art.selected_concepts)
    return {
        "concepts": len(lexicon),
        "terms": lexicon.n_terms(),
        "leaves": len(leaves),
        "expansion_roots": len(roots),
        "expanded": len(expanded),
        "selected": len(selected),
        "patterns": len(vocab),
        "selected_path": str(art.selected_concepts),
    }
