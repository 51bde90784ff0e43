"""Document-concept counts, concept co-occurrence, and the files that hold them.

The document-level matrix counts unfiltered mentions per (document,
concept). Its concept columns cover exactly the concepts observed
unfiltered in the corpus, in id-sorted order. The concept-level matrix
counts, for each concept pair, the number of documents containing both;
its rows serve as raw concept embeddings.

Both keep their counts in :class:`CSRCounts`: int64 compressed sparse
rows, row i's sorted columns in ``indices[indptr[i]:indptr[i + 1]]`` and
its positive counts at the same positions of ``data``. The triplet file
reader rejects an entry outside the header's shape, a repeated (row, col),
a count that is not positive, and more or fewer entries than the header's
nnz, naming the file and the entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

# The id-file codec lives in ingest; these names stay importable from here.
from .ingest import Corpus, read_id_file, write_id_file  # noqa: F401
from .lexicon import ConceptId, Lexicon
from .ner import Mention


class MatrixError(ValueError):
    """Mentions or counts do not fit the documents and concepts."""


@dataclass(frozen=True, eq=False)
class CSRCounts:
    """Compressed sparse rows of positive int64 counts (see module doc)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.int64)
        dense[_row_of_each_entry(self.indptr), self.indices] = self.data
        return dense


def _row_of_each_entry(indptr: np.ndarray) -> np.ndarray:
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _csr_from_triplets(
    rows: np.ndarray, cols: np.ndarray, data: np.ndarray, shape: tuple[int, int]
) -> CSRCounts:
    """CSR of distinct, in-range (row, col) entries given in any order."""
    order = np.lexsort((cols, rows))
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return CSRCounts(indptr, cols[order], data[order], shape)


@dataclass(frozen=True, eq=False)
class DocConceptMatrix:
    """Sparse n x m matrix of unfiltered mention counts."""

    doc_ids: tuple[str, ...]
    concept_ids: tuple[ConceptId, ...]
    counts: CSRCounts

    def __post_init__(self) -> None:
        _check_shape(self.counts, (len(self.doc_ids), len(self.concept_ids)))
        object.__setattr__(
            self, "_concept_index", {c: j for j, c in enumerate(self.concept_ids)}
        )
        object.__setattr__(
            self, "_doc_index", {d: i for i, d in enumerate(self.doc_ids)}
        )

    @property
    def m_concepts(self) -> int:
        return len(self.concept_ids)

    def doc_index(self, doc_id: str) -> int:
        return self._doc_index[doc_id]  # type: ignore[attr-defined]

    def concept_index(self, concept_id: ConceptId) -> int:
        return self._concept_index[concept_id]  # type: ignore[attr-defined]

    def has_concept(self, concept_id: ConceptId) -> bool:
        return concept_id in self._concept_index  # type: ignore[attr-defined]


@dataclass(frozen=True, eq=False)
class CoocMatrix:
    """Symmetric m x m document-level co-occurrence counts.

    ``counts[i, j]`` is the number of documents containing both concept i
    and concept j at least once (unfiltered); the diagonal is the
    document frequency. Row i is the raw embedding of concept i.
    """

    concept_ids: tuple[ConceptId, ...]
    counts: CSRCounts

    def __post_init__(self) -> None:
        _check_shape(self.counts, (self.m_concepts, self.m_concepts))

    @property
    def m_concepts(self) -> int:
        return len(self.concept_ids)


def _check_shape(counts: CSRCounts, expected: tuple[int, int]) -> None:
    if counts.shape != expected:
        raise MatrixError(f"counts shape {counts.shape}, ids give {expected}")


def _iter_triplets(counts: CSRCounts) -> Iterator[tuple[int, int, int]]:
    rows = _row_of_each_entry(counts.indptr)
    return zip(rows.tolist(), counts.indices.tolist(), counts.data.tolist())


def build_doc_concept_matrix(
    corpus: Corpus, mentions: Sequence[Mention], lexicon: Lexicon
) -> DocConceptMatrix:
    """Count unfiltered mentions per (document, concept).

    Concept columns are the id-sorted concepts with at least one
    unfiltered mention; documents keep corpus order, including all-zero
    rows. Mentions referencing unknown documents or concepts raise
    :class:`MatrixError`.
    """
    for mention in mentions:
        if mention.doc_id not in corpus:
            raise MatrixError(f"mention references unknown doc {mention.doc_id!r}")
        if mention.concept_id not in lexicon:
            raise MatrixError(
                f"mention references unknown concept {mention.concept_id!r}"
            )
    kept = [m for m in mentions if not m.filtered]
    concept_ids = tuple(sorted({m.concept_id for m in kept}))
    concept_index = {c: j for j, c in enumerate(concept_ids)}
    tally = Counter((corpus.index_of(m.doc_id), concept_index[m.concept_id]) for m in kept)
    rows = np.fromiter((k[0] for k in tally), dtype=np.int64, count=len(tally))
    cols = np.fromiter((k[1] for k in tally), dtype=np.int64, count=len(tally))
    data = np.fromiter(tally.values(), dtype=np.int64, count=len(tally))
    counts = _csr_from_triplets(rows, cols, data, (len(corpus), len(concept_ids)))
    return DocConceptMatrix(
        doc_ids=corpus.doc_ids(), concept_ids=concept_ids, counts=counts
    )


def build_cooc_matrix(X: DocConceptMatrix) -> CoocMatrix:
    """Binary document-level co-occurrence: entry (i, j) counts documents
    where both concepts occur, i.e. B^T B of the binarized X, computed as
    one bincount over the keys i * m + j of each document's column pairs."""
    m = X.m_concepts
    indptr, indices = X.counts.indptr, X.counts.indices
    lengths = np.diff(indptr)
    # Entry e in a row of length L pairs with the L entries of its row.
    fan = np.repeat(lengths, lengths)
    pair_start = np.repeat(np.repeat(indptr[:-1], lengths), fan)
    pair_offset = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
    keys = np.repeat(indices, fan) * m + indices[pair_start + pair_offset]
    dense = np.bincount(keys, minlength=m * m).reshape(m, m)
    rows, cols = np.nonzero(dense)
    counts = _csr_from_triplets(rows, cols, dense[rows, cols], (m, m))
    return CoocMatrix(concept_ids=X.concept_ids, counts=counts)


def concept_embeddings(C: CoocMatrix, normalized: bool = False) -> np.ndarray:
    """All co-occurrence rows as a dense (m, m) float array; row i is the
    raw embedding of concept i, optionally scaled to unit L2 norm (zero
    rows pass through)."""
    dense = C.counts.toarray().astype(np.float64)
    if normalized and dense.size:
        norms = np.linalg.norm(dense, axis=1, keepdims=True)
        dense = np.divide(dense, norms, out=dense.copy(), where=norms > 0)
    return dense


def write_sparse_matrix(matrix: DocConceptMatrix | CoocMatrix, path: str | Path) -> None:
    """Text triplet format: header ``rows cols nnz`` then ``row col value``
    lines sorted by (row, col)."""
    counts = matrix.counts
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(f"{counts.shape[0]} {counts.shape[1]} {counts.nnz}\n")
        for row, col, value in _iter_triplets(counts):
            handle.write(f"{row} {col} {value}\n")


def read_sparse_counts(path: str | Path) -> CSRCounts:
    """Read a triplet file written by :func:`write_sparse_matrix`,
    rejecting what the writer never writes (see module doc)."""
    with Path(path).open("r", encoding="utf-8") as handle:
        header = handle.readline().split()
        entries = [line.split() for line in handle]
    if len(header) != 3 or not all(x.isdecimal() for x in header):
        raise ValueError(f"{path}: bad header, expected 'rows cols nnz'")
    n_rows, n_cols, nnz = (int(x) for x in header)
    if len(entries) > nnz:
        raise ValueError(f"{path}: entry {nnz} is past the header's nnz {nnz}")
    k = next((k for k, parts in enumerate(entries) if len(parts) != 3), len(entries))
    if k < nnz:
        raise ValueError(f"{path}: truncated triplet list at entry {k}")
    rows, cols, data = np.array(entries, dtype=np.int64).reshape(nnz, 3).T
    bad = (rows < 0) | (rows >= n_rows) | (cols < 0) | (cols >= n_cols) | (data <= 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(
            f"{path}: entry {k} '{rows[k]} {cols[k]} {data[k]}' is outside the "
            f"{n_rows} x {n_cols} shape or not a positive count"
        )
    order = np.lexsort((cols, rows))
    repeated = (np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)
    if repeated.any():
        k = int(order[1:][repeated].min())
        raise ValueError(f"{path}: entry {k} repeats ({rows[k]}, {cols[k]})")
    return _csr_from_triplets(rows, cols, data, (n_rows, n_cols))
