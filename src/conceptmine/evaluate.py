"""Evaluation against gold annotations.

Gold files are JSONL records ``{doc_id, start, end, concept_id?, label}``
with label one of NLP_TRUE (system-found true positive span), Not_ACEs
(system false positive), Manual_ACEs (annotator-added span the system
missed). NLP_TRUE and Manual_ACEs are the gold-true spans.

Matching is exact-span: a predicted-positive span is a true positive iff
a gold-true annotation has the identical (doc_id, start, end). Predicted
spans are deduplicated, so several concepts on one span count once
globally; this keeps tp + fn equal to the number of gold-true
annotations.

The PR sweep sorts once (the PR curve construction of Davis & Goadrich,
ICML 2006): a span is positive at threshold tau iff the highest score of
its unfiltered mentions is >= tau, so each gold-true annotation carries
its span's highest score (-inf when never predicted) and every other
predicted span its own. With both lists sorted, one ``np.searchsorted``
gives tp and fp at every threshold.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .ingest import Corpus
from .lexicon import ConceptId, Lexicon
from .ner import Mention
from .selflabel import ScoredMention, ThresholdSweep

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

    def __post_init__(self) -> None:
        if self.label not in GOLD_LABELS:
            raise GoldError(
                f"label {self.label!r} not in {', '.join(GOLD_LABELS)}"
            )
        if self.start < 0 or self.end <= self.start:
            raise GoldError(
                f"invalid span [{self.start}, {self.end}) for doc {self.doc_id!r}"
            )

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
    """Read gold JSONL; with a corpus, spans are bounds-checked."""
    gold: list[GoldAnnotation] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise GoldError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            try:
                annotation = GoldAnnotation(
                    doc_id=record["doc_id"],
                    start=int(record["start"]),
                    end=int(record["end"]),
                    concept_id=record.get("concept_id"),
                    label=record["label"],
                )
            except (KeyError, TypeError) as exc:
                raise GoldError(f"line {line_no}: missing field ({exc})") from exc
            except GoldError as exc:
                raise GoldError(f"line {line_no}: {exc}") from exc
            gold.append(annotation)
    if corpus is not None:
        validate_gold_bounds(gold, corpus)
    return gold


def validate_gold_bounds(gold: Iterable[GoldAnnotation], corpus: Corpus) -> None:
    for g in gold:
        if g.doc_id not in corpus:
            raise GoldError(f"gold references unknown doc {g.doc_id!r}")
        text = corpus.get(g.doc_id).text
        if g.end > len(text):
            raise GoldError(
                f"gold span [{g.start}, {g.end}) out of bounds for doc "
                f"{g.doc_id!r} of length {len(text)}"
            )


def match_to_gold(
    predicted: Sequence[tuple[Mention, bool]],
    gold: Sequence[GoldAnnotation],
    corpus: Corpus | None = None,
) -> ConfusionCounts:
    """Exact-span confusion counts of predicted positives against gold."""
    if corpus is not None:
        validate_gold_bounds(gold, corpus)
    positive_spans = {
        (m.doc_id, m.start, m.end) for m, label in predicted if label
    }
    true_spans = {g.span() for g in gold if g.is_true}
    tp = sum(1 for g in gold if g.is_true and g.span() in positive_spans)
    fn = sum(1 for g in gold if g.is_true and g.span() not in positive_spans)
    fp = len(positive_spans - true_spans)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


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
    for g in gold:
        if g.concept_id is not None and g.concept_id not in lexicon:
            raise GoldError(f"gold references unknown concept {g.concept_id!r}")

    span_concepts: dict[SpanKey, set[ConceptId]] = {}
    for mention, label in predicted:
        if label:
            key = (mention.doc_id, mention.start, mention.end)
            span_concepts.setdefault(key, set()).add(mention.concept_id)

    true_spans = {g.span() for g in gold if g.is_true}
    tp: dict[ConceptId, int] = {}
    fn: dict[ConceptId, int] = {}
    fp: dict[ConceptId, int] = {}
    for g in gold:
        if not g.is_true:
            continue
        matched = g.span() in span_concepts
        if g.concept_id is not None:
            bucket = g.concept_id
        elif matched:
            bucket = min(span_concepts[g.span()])
        else:
            bucket = UNMAPPED_BUCKET
        if matched:
            tp[bucket] = tp.get(bucket, 0) + 1
        else:
            fn[bucket] = fn.get(bucket, 0) + 1
    for key, concepts in span_concepts.items():
        if key not in true_spans:
            for cid in concepts:
                fp[cid] = fp.get(cid, 0) + 1

    result: dict[ConceptId, ConceptMetrics] = {}
    for cid in sorted(set(tp) | set(fn) | set(fp)):
        counts = ConfusionCounts(
            tp=tp.get(cid, 0), fp=fp.get(cid, 0), fn=fn.get(cid, 0)
        )
        metrics = compute_metrics(counts)
        result[cid] = ConceptMetrics(
            precision=metrics.precision,
            recall=metrics.recall,
            f1=metrics.f1,
            support=counts.tp + counts.fn,
        )
    return result


def pr_sweep(
    scored: Sequence[ScoredMention],
    gold: Sequence[GoldAnnotation],
    sweep: ThresholdSweep,
) -> list[PRPoint]:
    """One precision/recall point per threshold, in threshold order.

    Equal to labeling at each threshold with ``label_at_threshold`` and
    scoring with ``match_to_gold``; NaN scores are never positive.
    """
    best: dict[SpanKey, float] = {}
    for s in scored:
        m = s.mention
        if m.filtered or math.isnan(s.score):
            continue
        key = (m.doc_id, m.start, m.end)
        if key not in best or s.score > best[key]:
            best[key] = s.score
    true_spans = {g.span() for g in gold if g.is_true}
    gold_scores = np.sort([best.get(g.span(), -math.inf) for g in gold if g.is_true])
    other_scores = np.sort([v for k, v in best.items() if k not in true_spans])
    taus = np.array(sweep.thresholds, dtype=np.float64)
    tp = len(gold_scores) - np.searchsorted(gold_scores, taus, side="left")
    fp = len(other_scores) - np.searchsorted(other_scores, taus, side="left")
    points = []
    for tau, tp_at, fp_at in zip(sweep.thresholds, tp.tolist(), fp.tolist()):
        counts = ConfusionCounts(tp=tp_at, fp=fp_at, fn=len(gold_scores) - tp_at)
        metrics = compute_metrics(counts)
        points.append(
            PRPoint(threshold=tau, precision=metrics.precision, recall=metrics.recall)
        )
    return points


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
    ordered = sorted(gold, key=lambda g: (g.doc_id, g.start, g.end, g.label))
    with Path(path).open("w", encoding="utf-8") as handle:
        for g in ordered:
            record: dict[str, object] = {
                "doc_id": g.doc_id,
                "start": g.start,
                "end": g.end,
            }
            if g.concept_id is not None:
                record["concept_id"] = g.concept_id
            record["label"] = g.label
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


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
