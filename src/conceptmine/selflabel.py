"""Self-supervised mention labeling.

Each mention is scored by the cosine similarity between its concept's
embedding and the count-weighted, leave-one-out sum of the embeddings of
the other concepts in the same document, or 0 when its concept was only
seen filtered. Sweeping a threshold over the scores turns them into
positive/negative labels without any annotation.

Scoring runs over blocks of ``SCORE_BLOCK`` mentions. A block's contexts
are accumulated position by position along the documents' CSR rows: at
position p every mention whose concept is not the one stored at p adds
``count[p] * embedding[concept at p]``. The self term is skipped, never
subtracted from the row total, so a document holding only the mention's
own concept gives an exactly zero context. The cosine is then taken row
by row with the conventions of :func:`matrix.cosine_similarity`.

Label files are formatted once for a whole sweep: the rows are sorted
once, each row's csv prefix ``doc_id,start,end,concept_id,score,`` is
formatted once and kept with ``false`` and with ``true`` appended, and
every threshold file streams one of the two lines per row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import getitem
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from .ingest import read_records, write_records
from .matrix import DocConceptMatrix
from .ner import MENTION_KEYS, Mention, mention_from_record, mention_record

# Mentions scored per block; bounds the (block, dim) context buffers.
SCORE_BLOCK = 1024

_LABEL_HEADER = "doc_id,start,end,concept_id,score,label\r\n"


@dataclass(frozen=True)
class ScoredMention:
    mention: Mention
    score: float


def _default_thresholds() -> tuple[float, ...]:
    return tuple(i / 20 for i in range(21))


@dataclass(frozen=True)
class ThresholdSweep:
    """Strictly increasing thresholds within [-1, 1]; defaults to
    0.00, 0.05, ..., 1.00."""

    thresholds: tuple[float, ...] = field(default_factory=_default_thresholds)

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("sweep needs at least one threshold")
        for tau in self.thresholds:
            if not -1.0 <= tau <= 1.0:
                raise ValueError(f"threshold {tau} outside [-1, 1]")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        named: dict[str, float] = {}
        for tau in self.thresholds:
            name = label_file_name(tau)
            if name in named:
                raise ValueError(
                    f"thresholds {named[name]!r} and {tau!r} share the label "
                    f"file name {name}"
                )
            named[name] = tau


def label_file_name(tau: float) -> str:
    """Name of the label file written for threshold ``tau``."""
    return f"threshold_{tau:g}.csv"


def score_mentions(
    mentions: Sequence[Mention],
    X: DocConceptMatrix,
    embeddings: np.ndarray,
) -> list[ScoredMention]:
    """Score every mention against its document context, in the given
    order.

    ``embeddings`` holds one row per concept of ``X``, in concept order
    (raw co-occurrence rows and encoded vectors both work). Filtered
    mentions are scored as well, flag intact. A filtered mention whose
    concept is not a column of ``X`` scores 0.0; an unfiltered one raises
    ValueError naming the concept.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] != X.m_concepts:
        raise ValueError(
            f"embeddings shape {embeddings.shape} does not cover "
            f"{X.m_concepts} concepts"
        )
    n = len(mentions)
    # Concepts never seen unfiltered have no embedding row; their mentions
    # are all filtered, keep concept -1 and score 0 so no record is lost.
    concepts = np.full(n, -1, dtype=np.intp)
    docs = np.empty(n, dtype=np.intp)
    for k, mention in enumerate(mentions):
        if X.has_concept(mention.concept_id):
            concepts[k] = X.concept_index(mention.concept_id)
            docs[k] = X.doc_index(mention.doc_id)
        elif not mention.filtered:
            raise ValueError(f"no embedding for concept {mention.concept_id!r}")
    kept = np.flatnonzero(concepts >= 0)
    concepts, docs = concepts[kept], docs[kept]
    indptr = X.counts.indptr
    starts = indptr[docs]
    lengths = indptr[docs + 1] - starts
    # Longest rows first, so the mentions still accumulating at position
    # p are always a prefix of the block.
    order = np.argsort(-lengths, kind="stable")
    columns = X.counts.indices
    weights = X.counts.data.astype(np.float64)
    scores = np.zeros(n, dtype=np.float64)
    for lo in range(0, len(kept), SCORE_BLOCK):
        block = order[lo : lo + SCORE_BLOCK]
        own = embeddings[concepts[block]]
        context = np.zeros_like(own)
        block_starts = starts[block]
        block_lengths = lengths[block]
        block_concepts = concepts[block]
        for p in range(int(block_lengths[0])):
            active = int(np.count_nonzero(block_lengths > p))
            cols = columns[block_starts[:active] + p]
            keep = np.flatnonzero(cols != block_concepts[:active])
            weight = weights[block_starts[keep] + p]
            context[keep] += weight[:, None] * embeddings[cols[keep]]
        scores[kept[block]] = _rowwise_cosine(own, context)
    return [
        ScoredMention(mention=mention, score=score)
        for mention, score in zip(mentions, scores.tolist())
    ]


def _rowwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`matrix.cosine_similarity` of each row pair: 0 when either
    row is all zero, exactly +-1 for equal and opposite rows, otherwise
    the max-abs-scaled cosine clamped to [-1, 1]."""
    equal = np.all(a == b, axis=1)
    opposite = np.all(a == -b, axis=1)
    scale_a = np.max(np.abs(a), axis=1, initial=0.0)
    scale_b = np.max(np.abs(b), axis=1, initial=0.0)
    nonzero = (scale_a > 0.0) & (scale_b > 0.0)
    a = a / np.where(nonzero, scale_a, 1.0)[:, None]
    b = b / np.where(nonzero, scale_b, 1.0)[:, None]
    dot = np.einsum("ij,ij->i", a, b)
    norms = np.sqrt(np.einsum("ij,ij->i", a, a) * np.einsum("ij,ij->i", b, b))
    value = np.zeros(len(a), dtype=np.float64)
    np.divide(dot, norms, out=value, where=nonzero)
    np.clip(value, -1.0, 1.0, out=value)
    value[equal] = 1.0
    value[opposite] = -1.0
    value[~nonzero] = 0.0
    return value


def label_at_threshold(
    scored: Sequence[ScoredMention], tau: float
) -> list[tuple[Mention, bool]]:
    """Positive iff score >= tau and the mention is unfiltered."""
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"threshold {tau} outside [-1, 1]")
    return [
        (s.mention, (not s.mention.filtered) and s.score >= tau) for s in scored
    ]


def write_scored(scored: Sequence[ScoredMention], path: str | Path) -> None:
    write_records(
        map(_scored_record, sorted(scored, key=lambda s: s.mention.sort_key())), path
    )


def _scored_record(s: ScoredMention) -> dict[str, object]:
    record = mention_record(s.mention)
    record["score"] = s.score
    return record


def read_scored(path: str | Path) -> list[ScoredMention]:
    records = read_records(path, required=(*MENTION_KEYS, "score"))
    return [ScoredMention(mention_from_record(r), r["score"]) for _, r in records]


def write_labels_csv(
    scored: Sequence[ScoredMention], tau: float, path: str | Path
) -> None:
    """Per-threshold label file: doc_id,start,end,concept_id,score,label."""
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"threshold {tau} outside [-1, 1]")
    _write_label_file(_LabelRows(scored), tau, Path(path))


def write_label_files(
    scored: Sequence[ScoredMention], sweep: ThresholdSweep, labels_dir: str | Path
) -> None:
    """Write one label file per sweep threshold into ``labels_dir``.

    Rows are sorted and formatted once for all thresholds. Any other
    ``threshold_*.csv`` in the directory is removed, so the directory
    always holds exactly the current sweep's files.
    """
    labels_dir = Path(labels_dir)
    labels_dir.mkdir(parents=True, exist_ok=True)
    rows = _LabelRows(scored)
    names = {label_file_name(tau) for tau in sweep.thresholds}
    for stale in labels_dir.glob("threshold_*.csv"):
        if stale.name not in names:
            stale.unlink()
    for tau in sweep.thresholds:
        _write_label_file(rows, tau, labels_dir / label_file_name(tau))


class _LabelRows:
    """Mentions in sort-key order, each formatted once as its
    ``(false line, true line)`` pair with the csv module's quoting."""

    def __init__(self, scored: Sequence[ScoredMention]) -> None:
        ordered = sorted(scored, key=lambda s: s.mention.sort_key())
        lines: list[str] = []
        writer = csv.writer(SimpleNamespace(write=lines.append))
        for s in ordered:
            m = s.mention
            writer.writerow([m.doc_id, m.start, m.end, m.concept_id, repr(s.score), ""])
        # Each line ends "," + "\r\n"; the label goes between the two.
        self.pairs = [
            (line[:-2] + "false\r\n", line[:-2] + "true\r\n") for line in lines
        ]
        self.scores = np.array([s.score for s in ordered], dtype=np.float64)
        self.unfiltered = np.array([not s.mention.filtered for s in ordered], dtype=bool)


def _write_label_file(rows: _LabelRows, tau: float, path: Path) -> None:
    positive = (rows.unfiltered & (rows.scores >= tau)).tolist()
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write(_LABEL_HEADER)
        handle.writelines(map(getitem, rows.pairs, positive))
