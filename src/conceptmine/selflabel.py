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
own concept gives an exactly zero context. :func:`_rowwise_cosine`, the
package's one cosine, then scores each mention against its context.

:func:`label_scores` holds the one label rule, which the label files and
the PR sweep of :mod:`evaluate` share.

A run keeps its scores as columns: one list of floats per space, whose
entry k scores mention k. :func:`score_column`, :func:`write_scores`,
:func:`label_scores` and :func:`write_label_files` take the mentions and
such a column; :func:`score_mentions`, :func:`write_scored`,
:func:`read_scored` and :func:`write_labels_csv` are their adapters to
:class:`ScoredMention` records.

Every writer here keeps the order of the mentions it is given, which
in a run is NER's. Label files are formatted once for a whole sweep:
each row is formatted once, by the csv module, straight into its line
with ``false`` and its line with ``true``, and every threshold file
streams one of the two lines per row.

Only the functions that compute with arrays import numpy, so reading
scores back and the label rule load none.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import getitem
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from .ingest import read_records
from .ner import MENTION_KEYS, Mention, mention_from_record, mention_line

if TYPE_CHECKING:
    import numpy as np

    from .matrix import DocConceptMatrix

# Mentions scored per block; bounds the (block, dim) context buffers.
SCORE_BLOCK = 1024

_LABEL_HEADER = "doc_id,start,end,concept_id,score,label\r\n"


@dataclass(frozen=True, slots=True)
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
    """Each mention with its :func:`score_column` score, in the given order."""
    return list(map(ScoredMention, mentions, score_column(mentions, X, embeddings)))


def score_column(
    mentions: Sequence[Mention],
    X: DocConceptMatrix,
    embeddings: np.ndarray,
) -> list[float]:
    """Score every mention against its document context: entry k is
    mention k's score.

    ``embeddings`` holds one row per concept of ``X``, in concept order
    (raw co-occurrence rows and encoded vectors both work). Filtered
    mentions are scored as well, flag intact. A filtered mention whose
    concept is not a column of ``X`` scores 0.0; an unfiltered one raises
    ValueError naming the concept.
    """
    import numpy as np

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
    return scores.tolist()


def _rowwise_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosine of each row pair of two (n, d) arrays: 0 when either row is
    all zero, exactly +1 and -1 for equal and opposite rows. Other pairs
    first divide each row by its max-abs entry, as the scaled ``dnrm2``
    does (Blue 1978), so squaring neither underflows nor overflows; the
    scaled dot product over the root of the scaled norms' product is then
    clamped to [-1, 1]."""
    import numpy as np

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


def label_scores(mentions: Sequence[Mention], scores: Sequence[float]) -> list[float]:
    """The label rule: mention k is positive at threshold tau iff
    ``label_scores(mentions, scores)[k] >= tau``. The value is the score
    when the mention is unfiltered, and -inf, positive at no threshold,
    when it is filtered or its score is NaN."""
    return [
        -math.inf if m.filtered or math.isnan(score) else score
        for m, score in zip(mentions, scores, strict=True)
    ]


def _columns(scored: Sequence[ScoredMention]) -> tuple[list[Mention], list[float]]:
    return [s.mention for s in scored], [s.score for s in scored]


def write_scores(mentions: Sequence[Mention], scores: Sequence[float], path: str | Path) -> None:
    """Write one record per mention with its score, in the order given."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.writelines(map(mention_line, mentions, scores))


def write_scored(scored: Sequence[ScoredMention], path: str | Path) -> None:
    """Write one record per scored mention, in the order given."""
    write_scores(*_columns(scored), path)


def read_scored(path: str | Path) -> list[ScoredMention]:
    records = read_records(path, required=(*MENTION_KEYS, "score"))
    return [ScoredMention(mention_from_record(r), r["score"]) for _, r in records]


def write_labels_csv(
    scored: Sequence[ScoredMention], tau: float, path: str | Path
) -> None:
    """Label file for ``tau``: doc_id,start,end,concept_id,score,label, in the order given."""
    if not -1.0 <= tau <= 1.0:
        raise ValueError(f"threshold {tau} outside [-1, 1]")
    _write_labels(*_columns(scored), [(tau, Path(path))])


def write_label_files(
    mentions: Sequence[Mention],
    scores: Sequence[float],
    sweep: ThresholdSweep,
    labels_dir: str | Path,
) -> None:
    """Write one label file per sweep threshold into ``labels_dir``.

    Rows keep the order given and are formatted once for all thresholds.
    Any other ``threshold_*.csv`` in the directory is removed, so the
    directory always holds exactly the current sweep's files.
    """
    labels_dir = Path(labels_dir)
    labels_dir.mkdir(parents=True, exist_ok=True)
    names = {label_file_name(tau) for tau in sweep.thresholds}
    for stale in labels_dir.glob("threshold_*.csv"):
        if stale.name not in names:
            stale.unlink()
    files = [(tau, labels_dir / label_file_name(tau)) for tau in sweep.thresholds]
    _write_labels(mentions, scores, files)


def _write_labels(
    mentions: Sequence[Mention], scores: Sequence[float], files: list[tuple[float, Path]]
) -> None:
    """Write the label file of each ``(tau, path)``. Each mention is
    formatted once, with the csv module's quoting, into its false line and
    its true line; each file takes one of the two by :func:`label_scores`."""
    import numpy as np

    pairs: list[tuple[str, str]] = []

    def pair(line: str) -> None:
        # The line ends "," + "\r\n"; the label goes between the two.
        head = line[:-2]
        pairs.append((head + "false\r\n", head + "true\r\n"))

    csv.writer(SimpleNamespace(write=pair)).writerows(
        [m.doc_id, m.start, m.end, m.concept_id, repr(score), ""]
        for m, score in zip(mentions, scores)
    )
    # One vectorised comparison per file; a Python one per row is slower.
    values = np.array(label_scores(mentions, scores), dtype=np.float64)
    for tau, path in files:
        with path.open("w", encoding="utf-8", newline="") as handle:
            handle.write(_LABEL_HEADER)
            handle.writelines(map(getitem, pairs, (values >= tau).tolist()))
