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

A run evaluates with :func:`evaluate_mentions`, which takes its mentions
and one score column per space and builds the gold-true span keys once;
:func:`match_to_gold`, :func:`per_concept_metrics` and :func:`pr_sweep`
are adapters over the same private code.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

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


@dataclass(frozen=True, slots=True)
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


_GOLD_KEYS = tuple(f.name for f in fields(GoldAnnotation))
_gold_fields = attrgetter(*_GOLD_KEYS)


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
    ``<path>: line N: <reason>``. :class:`GoldAnnotation` checks nothing.

    The annotations share their strings: each label is its ``GOLD_LABELS``
    member, each distinct concept id one object and, with a corpus, each
    doc id the corpus's own."""
    docs = None if corpus is None else {d.doc_id: d for d in corpus.docs}
    concept_ids: dict[str, str] = {}
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
            if docs is not None:
                doc = docs.get(doc_id)
                if doc is None:
                    raise GoldError(f"gold references unknown doc {doc_id!r}")
                if end > len(doc.text):
                    raise GoldError(
                        f"gold span [{start}, {end}) out of bounds for doc "
                        f"{doc_id!r} of length {len(doc.text)}"
                    )
                doc_id = doc.doc_id
        except GoldError as exc:
            raise GoldError(f"{path}: line {line_no}: {exc}") from exc
        concept_id = record.get("concept_id")
        if concept_id is not None:
            concept_id = concept_ids.setdefault(concept_id, concept_id)
        label = GOLD_LABELS[GOLD_LABELS.index(label)]
        gold.append(GoldAnnotation(doc_id, start, end, concept_id, label))
    return gold


def _true_spans(gold: Iterable[GoldAnnotation]) -> dict[SpanKey, int]:
    """Each gold-true span, with the number of gold-true annotations on it."""
    spans: dict[SpanKey, int] = {}
    for g in gold:
        if g.is_true:
            key = g.span()
            spans[key] = spans.get(key, 0) + 1
    return spans


def _counts_at(
    best: dict[SpanKey, float], true_spans: Mapping[SpanKey, int], taus: Sequence[float]
) -> list[ConfusionCounts]:
    """Exact-span counts at each of ``taus``; ``best`` maps each predicted
    span to its score, and a span is positive at tau iff its score is >= tau.
    ``true_spans`` is :func:`_true_spans` of the gold.

    Sorts once (the PR curve construction of Davis & Goadrich, ICML 2006):
    each gold-true annotation carries its span's score (-inf when never
    predicted) and every other predicted span its own. With both lists
    sorted, one ``bisect_left`` per list and threshold counts the scores
    below tau, so the rest give tp and fp."""
    gold_scores = sorted(
        score for key, n in true_spans.items() for score in repeat(best.get(key, -math.inf), n)
    )
    other_scores = sorted(v for k, v in best.items() if k not in true_spans)
    counts = []
    for tau in taus:
        tp = len(gold_scores) - bisect_left(gold_scores, tau)
        fp = len(other_scores) - bisect_left(other_scores, tau)
        counts.append(ConfusionCounts(tp, fp, len(gold_scores) - tp))
    return counts


def _span_concepts(positives: Iterable[Mention]) -> dict[SpanKey, tuple[ConceptId, ...]]:
    """Each span of ``positives``, with the distinct concepts predicted on it."""
    spans: dict[SpanKey, tuple[ConceptId, ...]] = {}
    for m in positives:
        key = (m.doc_id, m.start, m.end)
        concepts = spans.get(key, ())
        if m.concept_id not in concepts:
            spans[key] = (*concepts, m.concept_id)
    return spans


def match_to_gold(
    predicted: Sequence[tuple[Mention, bool]],
    gold: Sequence[GoldAnnotation],
) -> ConfusionCounts:
    """Exact-span confusion counts of predicted positives against gold."""
    best = {(m.doc_id, m.start, m.end): 0.0 for m, label in predicted if label}
    return _counts_at(best, _true_spans(gold), (0.0,))[0]


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
    positives = _span_concepts(m for m, label in predicted if label)
    return _per_concept(positives, gold, _true_spans(gold), lexicon)


def _per_concept(
    span_concepts: dict[SpanKey, tuple[ConceptId, ...]],
    gold: Sequence[GoldAnnotation],
    true_spans: Mapping[SpanKey, int],
    lexicon: Lexicon,
) -> dict[ConceptId, ConceptMetrics]:
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
    mentions, scores = [s.mention for s in scored], [s.score for s in scored]
    return _sweep(mentions, scores, _true_spans(gold), sweep)


def _sweep(
    mentions: Sequence[Mention],
    scores: Sequence[float],
    true_spans: Mapping[SpanKey, int],
    sweep: ThresholdSweep,
) -> list[PRPoint]:
    best: dict[SpanKey, float] = {}
    for m, score in zip(mentions, label_scores(mentions, scores)):
        key = (m.doc_id, m.start, m.end)
        if score > best.get(key, -math.inf):
            best[key] = score
    metrics = [compute_metrics(c) for c in _counts_at(best, true_spans, sweep.thresholds)]
    return [PRPoint(tau, m.precision, m.recall) for tau, m in zip(sweep.thresholds, metrics)]


def evaluate_mentions(
    mentions: Sequence[Mention],
    scores: Mapping[str, Sequence[float]],
    gold: Sequence[GoldAnnotation],
    lexicon: Lexicon,
    sweep: ThresholdSweep,
) -> tuple[ConfusionCounts, dict[ConceptId, ConceptMetrics], dict[str, list[PRPoint]]]:
    """A run's evaluation: the counts and per-concept metrics of the
    baseline, which predicts every unfiltered mention, and the PR points of
    each space's score column, whose entry k scores mention k. These equal
    :func:`match_to_gold`, :func:`per_concept_metrics` and
    :func:`pr_sweep`; the gold-true span keys are built once for all."""
    true_spans = _true_spans(gold)
    baseline = _span_concepts(m for m in mentions if not m.filtered)
    counts = _counts_at(dict.fromkeys(baseline, 0.0), true_spans, (0.0,))[0]
    per_concept = _per_concept(baseline, gold, true_spans, lexicon)
    points = {space: _sweep(mentions, s, true_spans, sweep) for space, s in scores.items()}
    return counts, per_concept, points


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
        ({k: v for k, v in zip(_GOLD_KEYS, _gold_fields(g)) if v is not None} for g in ordered),
        path,
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
