from pathlib import Path

import numpy as np
import pytest

from conceptmine.autoencoder import AEModel, _as_batch, _gradients
from conceptmine.lexicon import Concept, Lexicon
from conceptmine.matrix import CSRCounts

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA_DIR = REPO_ROOT / "data"

LEXICON_HEADER = "concept_id,term,is_preferred,parent_ids,group\n"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def write_lexicon_csv(path: Path, rows: list[str]) -> Path:
    path.write_text(LEXICON_HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def score_columns(scored) -> tuple[list, list[float]]:
    """The mention column and the score column of ``ScoredMention`` records,
    as a run holds them."""
    return [s.mention for s in scored], [s.score for s in scored]


def loss_and_gradients(model: AEModel, batch) -> tuple[float, AEModel]:
    """The loss and gradients of one training step on ``batch`` (checked as
    ``train`` checks its data), the gradients as a model of the same shape."""
    X = _as_batch(batch, model.input_dim)
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grads = _gradients(model, X)
    return loss, AEModel(*grads, activation=model.activation)


def flat_lexicon(concept_ids: list[str]) -> Lexicon:
    """Parent-free lexicon where each concept's only term is its id."""
    concepts = tuple(
        Concept(id=cid, preferred_name=cid, synonyms=(), parents=(), group="")
        for cid in sorted(concept_ids)
    )
    return Lexicon(
        concepts=concepts,
        term_index={c.preferred_name.lower(): (c.id,) for c in concepts},
    )


def reference_document_context_vector(X, embeddings, doc, exclude=None):
    """Count-weighted sum of the embeddings of the concepts in one
    document, optionally leaving one concept out; zero vector when the
    document contributes nothing. The context ``score_mentions`` builds
    for a mention of concept ``exclude`` in document ``doc``."""
    lo, hi = X.counts.indptr[doc], X.counts.indptr[doc + 1]
    indices = X.counts.indices[lo:hi]
    weights = X.counts.data[lo:hi].astype(np.float64)
    if exclude is not None:
        keep = indices != exclude
        indices = indices[keep]
        weights = weights[keep]
    if len(indices) == 0:
        return np.zeros(embeddings.shape[1], dtype=np.float64)
    return weights @ embeddings[indices]


def csr_from_dense(dense) -> CSRCounts:
    """CSR counts holding the nonzero entries of a dense integer array."""
    dense = np.asarray(dense, dtype=np.int64)
    rows, cols = np.nonzero(dense)
    indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.count_nonzero(dense, axis=1))
    return CSRCounts(
        indptr=indptr, indices=cols, data=dense[rows, cols], shape=dense.shape
    )
