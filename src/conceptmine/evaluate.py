"""Evaluation against gold annotations.

Gold files are JSONL records ``{doc_id, start, end, concept_id?, label}``
with label one of NLP_TRUE (system-found true positive span), Not_ACEs
(system false positive), Manual_ACEs (annotator-added span the system
missed). NLP_TRUE and Manual_ACEs are the gold-true spans. Offsets must
be JSON integers, ``doc_id`` a string and ``concept_id`` a string, null
or absent; :func:`load_gold` checks each record as it reads it.

Matching is exact-span: a predicted-positive span is a true positive iff
a gold-true annotation has the identical (doc_id, start, end). Predicted
spans are deduplicated, so several concepts on one span count once
globally; this keeps tp + fn equal to the number of gold-true
annotations. :func:`match_to_gold` and :func:`pr_sweep` count with one
:func:`_counts_at`, and the sweep labels with
:func:`selflabel.label_scores`, the rule the label files use, so each PR
point equals :func:`match_to_gold` on that threshold's label file; tests
check both against set-based references.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .ingest import Corpus, read_records, write_records
from .lexicon import ConceptId, Lexicon
from .ner import Mention
from .selflabel import ScoredMention, ThresholdSweep, label_scores

GOLD_LABELS = ("NLP_TRUE", "Not_ACEs", "Manual_ACEs")
GOLD_TRUE_LABELS = frozenset({"NLP_TRUE", "Manual_ACEs"})

UNMAPPED_BUCKET = "__unmapped__"

SpanKey = tuple[str, int, int]


class GoldError(ValueError):
    """Malformed gold annotation file or out-of-bounds span."""


@dataclass(frozen=True)
class GoldAnnotation:
    doc_id: str
    start: int
    end: int
    concept_id: ConceptId | None
    label: str

    @property
    def is_true(self) -> bool:
        return self.label in GOLD_TRUE_LABELS

    def span(self) -> SpanKey:
        return (self.doc_id, self.start, self.end)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


class Metrics(NamedTuple):
    precision: float
    recall: float
    f1: float


class ConceptMetrics(NamedTuple):
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class PRPoint:
    threshold: float
    precision: float
    recall: float


def load_gold(path: str | Path, corpus: Corpus | None = None) -> list[GoldAnnotation]:
    """Read gold JSONL, checking field types as the module says, then the
    label and the span; with a corpus, each span's doc must be in it and the
    span within the doc's text. A bad line raises :class:`GoldError` as
    ``<path>: line N: <reason>``. :class:`GoldAnnotation` checks nothing."""
    lengths = None if corpus is None else {d.doc_id: len(d.text) for d in corpus.docs}
    gold: list[GoldAnnotation] = []
    for line_no, record in read_records(path, GoldError, ("doc_id", "start", "end", "label")):
        try:
            for key, kind in (("start", int), ("end", int), ("doc_id", str), ("concept_id", str)):
                value = record.get(key)
                # A bool is not an offset; only concept_id may be null or absent.
                if type(value) is not kind and (value is not None or key != "concept_id"):
                    what = "an integer" if kind is int else "a string"
                    raise GoldError(f"{key} must be {what}, got {value!r}")
            doc_id, start, end, label = map(record.get, ("doc_id", "start", "end", "label"))
            if label not in GOLD_LABELS:
                raise GoldError(f"label {label!r} not in {', '.join(GOLD_LABELS)}")
            if start < 0 or end <= start:
                raise GoldError(f"invalid span [{start}, {end}) for doc {doc_id!r}")
            if lengths is not None and doc_id not in lengths:
                raise GoldError(f"gold references unknown doc {doc_id!r}")
            if lengths is not None and end > lengths[doc_id]:
                raise GoldError(
                    f"gold span [{start}, {end}) out of bounds for doc "
                    f"{doc_id!r} of length {lengths[doc_id]}"
                )
        except GoldError as exc:
            raise GoldError(f"{path}: line {line_no}: {exc}") from exc
        gold.append(GoldAnnotation(doc_id, start, end, record.get("concept_id"), label))
    return gold


def _counts_at(
    best: dict[SpanKey, float], gold: Sequence[GoldAnnotation], taus: Sequence[float]
) -> list[ConfusionCounts]:
    """Exact-span counts at each of ``taus``; ``best`` maps each predicted
    span to its score, and a span is positive at tau iff its score is >= tau.

    Sorts once (the PR curve construction of Davis & Goadrich, ICML 2006):
    each gold-true annotation carries its span's score (-inf when never
    predicted) and every other predicted span its own. With both lists
    sorted, one ``bisect_left`` per list and threshold counts the scores
    below tau, so the rest give tp and fp."""
    true_spans = {g.span() for g in gold if g.is_true}
    gold_scores = sorted(best.get(g.span(), -math.inf) for g in gold if g.is_true)
    other_scores = sorted(v for k, v in best.items() if k not in true_spans)
    counts = []
    for tau in taus:
        tp = len(gold_scores) - bisect_left(gold_scores, tau)
        fp = len(other_scores) - bisect_left(other_scores, tau)
        counts.append(ConfusionCounts(tp, fp, len(gold_scores) - tp))
    return counts


def match_to_gold(
    predicted: Sequence[tuple[Mention, bool]],
    gold: Sequence[GoldAnnotation],
) -> ConfusionCounts:
    """Exact-span confusion counts of predicted positives against gold."""
    best = {(m.doc_id, m.start, m.end): 0.0 for m, label in predicted if label}
    return _counts_at(best, gold, (0.0,))[0]


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """Precision, recall, F1 as fractions; 0 whenever a denominator is 0."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return Metrics(precision=precision, recall=recall, f1=f1)


def per_concept_metrics(
    predicted: Sequence[tuple[Mention, bool]],
    gold: Sequence[GoldAnnotation],
    lexicon: Lexicon,
) -> dict[ConceptId, ConceptMetrics]:
    """Confusion counts partitioned by concept.

    Gold-true annotations carrying a concept_id count for that concept;
    ones without attach to the matched prediction's concept (smallest id
    on ties), or to the ``__unmapped__`` bucket when nothing matched.
    False positives attach to every concept predicted on the unmatched
    span, so multi-concept spans may raise concept-level fp above the
    global count. Support is the number of gold-true annotations per
    concept.
    """
    span_concepts: dict[SpanKey, set[ConceptId]] = {}
    for m, label in predicted:
        if label:
            span_concepts.setdefault((m.doc_id, m.start, m.end), set()).add(m.concept_id)

    tally: dict[ConceptId, list[int]] = {}  # bucket -> [tp, fp, fn]
    for g in gold:
        if g.concept_id is not None and g.concept_id not in lexicon:
            raise GoldError(f"gold references unknown concept {g.concept_id!r}")
        if not g.is_true:
            continue
        concepts = span_concepts.get(g.span())
        if g.concept_id is not None:
            bucket = g.concept_id
        elif concepts:
            bucket = min(concepts)
        else:
            bucket = UNMAPPED_BUCKET
        tally.setdefault(bucket, [0, 0, 0])[0 if concepts else 2] += 1
    true_spans = {g.span() for g in gold if g.is_true}
    for key, concepts in span_concepts.items():
        if key not in true_spans:
            for cid in concepts:
                tally.setdefault(cid, [0, 0, 0])[1] += 1
    return {
        cid: ConceptMetrics(*compute_metrics(ConfusionCounts(tp, fp, fn)), support=tp + fn)
        for cid, (tp, fp, fn) in sorted(tally.items())
    }


def pr_sweep(
    scored: Sequence[ScoredMention],
    gold: Sequence[GoldAnnotation],
    sweep: ThresholdSweep,
) -> list[PRPoint]:
    """One precision/recall point per threshold, in threshold order. A span
    is positive at tau iff one of its mentions is, by
    :func:`selflabel.label_scores`; so it scores the highest label score
    of its mentions."""
    best: dict[SpanKey, float] = {}
    for s, score in zip(scored, label_scores(scored)):
        key = (s.mention.doc_id, s.mention.start, s.mention.end)
        if score > best.get(key, -math.inf):
            best[key] = score
    metrics = [compute_metrics(c) for c in _counts_at(best, gold, sweep.thresholds)]
    return [PRPoint(tau, m.precision, m.recall) for tau, m in zip(sweep.thresholds, metrics)]


def pr_auc(points: Sequence[PRPoint]) -> float:
    """Trapezoidal area of precision over recall.

    Points are sorted by recall; points sharing a recall value are
    averaged first. Needs at least two input points.
    """
    if len(points) < 2:
        raise ValueError("pr_auc needs at least 2 points")
    by_recall: dict[float, list[float]] = {}
    for point in points:
        by_recall.setdefault(point.recall, []).append(point.precision)
    recalls = sorted(by_recall)
    precisions = [sum(by_recall[r]) / len(by_recall[r]) for r in recalls]
    area = 0.0
    for (r1, p1), (r2, p2) in zip(
        zip(recalls, precisions), zip(recalls[1:], precisions[1:])
    ):
        area += (r2 - r1) * (p1 + p2) / 2.0
    return area


def write_gold(gold: Sequence[GoldAnnotation], path: str | Path) -> None:
    """One record per annotation, in field order; ``concept_id`` only if set."""
    ordered = sorted(gold, key=lambda g: (g.doc_id, g.start, g.end, g.label))
    write_records(
        ({k: v for k, v in g.__dict__.items() if v is not None} for g in ordered), path
    )


def write_pr_csv(points: Sequence[PRPoint], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["threshold", "precision", "recall"])
        for point in points:
            writer.writerow(
                [repr(point.threshold), repr(point.precision), repr(point.recall)]
            )


def read_pr_csv(path: str | Path) -> list[PRPoint]:
    points = []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            points.append(
                PRPoint(
                    threshold=float(row["threshold"]),
                    precision=float(row["precision"]),
                    recall=float(row["recall"]),
                )
            )
    return points
