import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conceptmine.ingest import Corpus, Document
from conceptmine.matrix import (
    CoocMatrix,
    DocConceptMatrix,
    MatrixError,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embeddings,
    read_id_file,
    read_sparse_counts,
    write_id_file,
    write_sparse_matrix,
)
from conceptmine.ner import Mention
from conceptmine.selflabel import _rowwise_cosine

from conftest import csr_from_dense, flat_lexicon, reference_document_context_vector


def make_corpus(n):
    return Corpus(
        docs=tuple(Document(doc_id=f"d{i:03d}", text="") for i in range(n))
    )


def make_mention(doc_id, cid, filtered=False):
    return Mention(
        doc_id=doc_id, concept_id=cid, start=0, end=1, surface="x",
        filtered=filtered, filter_reason="stoplist" if filtered else None,
    )


def assert_same_csr(a, b):
    assert tuple(a.shape) == tuple(b.shape)
    for name in ("indptr", "indices", "data"):
        got, expected = getattr(a, name), getattr(b, name)
        assert got.dtype == expected.dtype == np.int64
        assert got.tolist() == expected.tolist()


def random_dense(rng, shape):
    """Counts in 0..3, about a third of them nonzero, some rows all zero."""
    dense = rng.integers(1, 4, size=shape) * (rng.random(shape) < 0.35)
    dense[rng.random(shape[0]) < 0.25] = 0
    return dense


def random_instance(rng, max_docs=20, max_concepts=15):
    n = int(rng.integers(1, max_docs + 1))
    n_concepts = int(rng.integers(1, max_concepts + 1))
    corpus = make_corpus(n)
    cids = [f"C{j:03d}" for j in range(n_concepts)]
    lexicon = flat_lexicon(cids)
    mentions = []
    for _ in range(int(rng.integers(0, 60))):
        mentions.append(
            make_mention(
                doc_id=f"d{int(rng.integers(n)):03d}",
                cid=cids[int(rng.integers(n_concepts))],
                filtered=bool(rng.random() < 0.2),
            )
        )
    return corpus, lexicon, mentions


class TestDocConceptMatrix:
    def test_direct_count(self):
        corpus = make_corpus(1)
        lexicon = flat_lexicon(["C1", "C2"])
        mentions = [
            make_mention("d000", "C1"),
            make_mention("d000", "C1"),
            make_mention("d000", "C2"),
        ]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        assert X.concept_ids == ("C1", "C2")
        assert X.counts.toarray().tolist() == [[2, 1]]

    def test_no_unfiltered_mentions(self):
        corpus = make_corpus(3)
        lexicon = flat_lexicon(["C1"])
        mentions = [make_mention("d000", "C1", filtered=True)]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        assert X.m_concepts == 0
        assert X.counts.nnz == 0
        assert X.counts.shape == (3, 0)

    def test_unknown_doc_is_error(self):
        with pytest.raises(MatrixError, match="unknown doc"):
            build_doc_concept_matrix(
                make_corpus(1), [make_mention("zzz", "C1")], flat_lexicon(["C1"])
            )

    def test_unknown_concept_is_error(self):
        with pytest.raises(MatrixError, match="unknown concept"):
            build_doc_concept_matrix(
                make_corpus(1), [make_mention("d000", "CX")], flat_lexicon(["C1"])
            )

    def test_matches_dense_oracle_on_random_instances(self):
        rng = np.random.default_rng(21)
        for trial in range(100):
            corpus, lexicon, mentions = random_instance(rng)
            X = build_doc_concept_matrix(corpus, mentions, lexicon)
            dense = np.zeros((len(X.doc_ids), X.m_concepts), dtype=np.int64)
            for m in mentions:
                if not m.filtered:
                    dense[
                        corpus.index_of(m.doc_id), X.concept_index(m.concept_id)
                    ] += 1
            assert (X.counts.toarray() == dense).all()
            # Row sums equal per-document unfiltered mention counts.
            for i, doc in enumerate(corpus.docs):
                expected = sum(
                    1 for m in mentions
                    if not m.filtered and m.doc_id == doc.doc_id
                )
                lo, hi = X.counts.indptr[i], X.counts.indptr[i + 1]
                assert X.counts.data[lo:hi].sum() == expected

    def test_independent_of_mention_order(self):
        rng = np.random.default_rng(22)
        corpus, lexicon, mentions = random_instance(rng)
        a = build_doc_concept_matrix(corpus, mentions, lexicon)
        b = build_doc_concept_matrix(corpus, mentions[::-1], lexicon)
        assert a.concept_ids == b.concept_ids
        assert_same_csr(a.counts, b.counts)


class TestCoocMatrix:
    def test_two_document_example(self):
        corpus = make_corpus(2)
        lexicon = flat_lexicon(["C1", "C2"])
        mentions = [
            make_mention("d000", "C1"),
            make_mention("d000", "C2"),
            make_mention("d001", "C1"),
        ]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        C = build_cooc_matrix(X)
        assert C.counts.toarray().tolist() == [[2, 1], [1, 1]]

    def test_single_document_all_concepts(self):
        corpus = make_corpus(1)
        cids = [f"C{j}" for j in range(4)]
        lexicon = flat_lexicon(cids)
        mentions = [make_mention("d000", c) for c in cids]
        C = build_cooc_matrix(build_doc_concept_matrix(corpus, mentions, lexicon))
        assert (C.counts.toarray() == 1).all()

    def test_matches_brute_force_and_invariants(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            corpus, lexicon, mentions = random_instance(rng)
            X = build_doc_concept_matrix(corpus, mentions, lexicon)
            C = build_cooc_matrix(X)
            dense_X = X.counts.toarray()
            m = X.m_concepts
            brute = np.zeros((m, m), dtype=np.int64)
            for i in range(m):
                for j in range(m):
                    brute[i, j] = sum(
                        1
                        for d in range(len(X.doc_ids))
                        if dense_X[d, i] >= 1 and dense_X[d, j] >= 1
                    )
            got = C.counts.toarray()
            assert (got == brute).all()
            # Symmetry, diagonal = document frequency, bounds.
            assert (got == got.T).all()
            doc_freq = (dense_X >= 1).sum(axis=0)
            assert (np.diag(got) == doc_freq).all()
            for i in range(m):
                for j in range(m):
                    assert got[i, j] <= min(got[i, i], got[j, j])
            # Binarized transpose-product identity.
            binary = (dense_X >= 1).astype(np.int64)
            assert (got == binary.T @ binary).all()


def cosine_oracle(a, b):
    """Direct independent evaluation: sum of products over product of
    root-sum-squares, accumulated with math.fsum."""
    dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
    na = math.sqrt(math.fsum(float(x) * float(x) for x in a))
    nb = math.sqrt(math.fsum(float(y) * float(y) for y in b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def scoring_cosine(a, b):
    """The scoring cosine, :func:`selflabel._rowwise_cosine`, of one pair."""
    rows = np.array([a, b], dtype=np.float64)
    return float(_rowwise_cosine(rows[:1], rows[1:])[0])


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert scoring_cosine(np.array([1.0, 2, 3]), np.array([1.0, 2, 3])) == 1.0

    def test_orthogonal_vectors(self):
        assert scoring_cosine(np.array([1.0, 0]), np.array([0.0, 1])) == 0.0

    def test_opposite_vectors(self):
        assert scoring_cosine(np.array([2.0, -1]), np.array([-2.0, 1])) == -1.0

    def test_known_value(self):
        got = scoring_cosine(np.array([1.0, 1]), np.array([1.0, 0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_norm_convention(self):
        assert scoring_cosine(np.zeros(3), np.array([1.0, 2, 3])) == 0.0
        assert scoring_cosine(np.zeros(3), np.zeros(3)) == 0.0

    @pytest.mark.parametrize(
        "a, b",
        [([8.96e-155], [1.0]), ([1e-200], [1.0]), ([1e200, 1e200], [1.0, 1.0])],
    )
    def test_parallel_at_extreme_magnitudes(self, a, b):
        assert scoring_cosine(np.array(a), np.array(b)) == 1.0

    def test_matches_direct_formula_on_random_pairs(self):
        rng = np.random.default_rng(24)
        for trial in range(500):
            d = int(rng.integers(1, 12))
            a = rng.normal(size=d) * 10.0 ** int(rng.integers(-3, 4))
            b = rng.normal(size=d) * 10.0 ** int(rng.integers(-3, 4))
            assert scoring_cosine(a, b) == pytest.approx(
                cosine_oracle(a, b), abs=1e-12
            )

    @settings(deadline=None, max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @example([8.96e-155], [1.0], 1e-3)
    def test_bounded_and_scale_invariant(self, xs, ys, alpha):
        d = min(len(xs), len(ys))
        a = np.array(xs[:d])
        b = np.array(ys[:d])
        value = scoring_cosine(a, b)
        assert -1.0 <= value <= 1.0
        # alpha * a is a positive multiple of a only while no nonzero entry
        # rounds into the subnormal range or to zero.
        scaled = alpha * a
        assume(not np.any((a != 0) & (np.abs(scaled) < np.finfo(np.float64).tiny)))
        assert scoring_cosine(scaled, b) == pytest.approx(value, abs=1e-12)


class TestEmbeddings:
    def _cooc(self):
        corpus = make_corpus(2)
        lexicon = flat_lexicon(["C1", "C2"])
        mentions = [
            make_mention("d000", "C1"),
            make_mention("d000", "C2"),
            make_mention("d001", "C1"),
        ]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        return X, build_cooc_matrix(X)

    def test_row_read_off(self):
        _, C = self._cooc()
        assert concept_embeddings(C)[0].tolist() == [2.0, 1.0]

    def test_normalized_three_four_five(self):
        _, C = self._cooc()
        row = np.array([3.0, 4.0])
        norm = row / np.linalg.norm(row)
        assert np.allclose(norm, [0.6, 0.8])
        got = concept_embeddings(C, normalized=True)[0]
        assert got == pytest.approx(
            (np.array([2.0, 1.0]) / math.sqrt(5.0)).tolist()
        )

    def test_embeddings_matrix_matches_rows(self):
        _, C = self._cooc()
        raw = concept_embeddings(C)
        dense = concept_embeddings(C, normalized=True)
        for i in range(C.m_concepts):
            assert dense[i] == pytest.approx(raw[i] / np.linalg.norm(raw[i]))

    def test_zero_row_returned_unchanged(self):
        # A zero row can only come from a padded index; the normalized
        # flag must be a no-op on it.
        counts = csr_from_dense([[2, 0, 0], [0, 0, 0], [0, 0, 1]])
        C = CoocMatrix(concept_ids=("A", "B", "C"), counts=counts)
        assert concept_embeddings(C)[1].tolist() == [0.0, 0.0, 0.0]
        assert concept_embeddings(C, normalized=True)[1].tolist() == [0.0, 0.0, 0.0]


class TestDocumentContextVector:
    """The context oracle ``test_selflabel`` checks ``score_mentions`` with."""

    def test_leave_one_out_empties_context(self):
        corpus = make_corpus(1)
        lexicon = flat_lexicon(["C1"])
        X = build_doc_concept_matrix(
            corpus, [make_mention("d000", "C1")], lexicon
        )
        embeddings = np.array([[5.0, 7.0]])
        got = reference_document_context_vector(X, embeddings, 0, exclude=0)
        assert got.tolist() == [0.0, 0.0]

    def test_weighted_sum(self):
        corpus = make_corpus(1)
        lexicon = flat_lexicon(["C1", "C2"])
        mentions = [
            make_mention("d000", "C1"),
            make_mention("d000", "C1"),
            make_mention("d000", "C2"),
        ]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        got = reference_document_context_vector(X, np.vstack([e1, e2]), 0)
        assert got.tolist() == [2.0, 1.0]

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(25)
        for trial in range(80):
            corpus, lexicon, mentions = random_instance(rng)
            X = build_doc_concept_matrix(corpus, mentions, lexicon)
            if X.m_concepts == 0:
                continue
            d = int(rng.integers(2, 6))
            embeddings = rng.normal(size=(X.m_concepts, d))
            doc = int(rng.integers(len(X.doc_ids)))
            exclude = (
                int(rng.integers(X.m_concepts)) if rng.random() < 0.5 else None
            )
            dense = X.counts.toarray()
            oracle = np.zeros(d)
            for c in range(X.m_concepts):
                if c == exclude or dense[doc, c] == 0:
                    continue
                oracle = oracle + dense[doc, c] * embeddings[c]
            got = reference_document_context_vector(X, embeddings, doc, exclude=exclude)
            assert got == pytest.approx(oracle.tolist(), abs=1e-9)


def test_sparse_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(26)
    path = tmp_path / "X.txt"
    for trial in range(30):
        corpus, lexicon, mentions = random_instance(rng)
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        for matrix in (X, build_cooc_matrix(X)):
            write_sparse_matrix(matrix, path)
            assert_same_csr(read_sparse_counts(path), matrix.counts)
            header = path.read_text(encoding="utf-8").splitlines()[0]
            assert header == f"{matrix.counts.shape[0]} {X.m_concepts} {matrix.counts.nnz}"


SHAPES = [(3, 0), (0, 0), (1, 1), (4, 9), (12, 7), (30, 15)]


class TestCSRCounts:
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_read_matches_dense_in_any_entry_order(self, tmp_path, shape):
        rng = np.random.default_rng(27)
        path = tmp_path / "X.txt"
        for trial in range(10):
            dense = random_dense(rng, shape)
            rows, cols = np.nonzero(dense)
            order = rng.permutation(len(rows))
            path.write_text(
                f"{shape[0]} {shape[1]} {len(rows)}\n"
                + "".join(f"{rows[k]} {cols[k]} {dense[rows[k], cols[k]]}\n" for k in order),
                encoding="utf-8",
            )
            counts = read_sparse_counts(path)
            assert counts.toarray().tolist() == dense.tolist()
            assert counts.nnz == np.count_nonzero(dense)
            assert_same_csr(counts, csr_from_dense(dense))

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_cooc_is_binarized_gram_matrix(self, shape):
        rng = np.random.default_rng(28)
        for trial in range(10):
            dense = random_dense(rng, shape)
            X = DocConceptMatrix(
                doc_ids=tuple(f"d{i}" for i in range(shape[0])),
                concept_ids=tuple(f"C{j}" for j in range(shape[1])),
                counts=csr_from_dense(dense),
            )
            binary = (dense > 0).astype(np.int64)
            assert_same_csr(build_cooc_matrix(X).counts, csr_from_dense(binary.T @ binary))

    def test_counts_must_fit_the_ids(self):
        counts = csr_from_dense(np.ones((3, 2)))
        with pytest.raises(MatrixError, match=r"^counts shape \(3, 2\), ids give \(2, 2\)$"):
            DocConceptMatrix(doc_ids=("a", "b"), concept_ids=("C1", "C2"), counts=counts)
        with pytest.raises(MatrixError, match=r"\(3, 2\), ids give \(2, 2\)"):
            CoocMatrix(concept_ids=("C1", "C2"), counts=counts)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2 1\n2 0 1\n", "entry 0 '2 0 1' is outside the 2 x 2 shape"),
        ("2 2 2\n0 0 1\n1 2 1\n", "entry 1 '1 2 1' is outside the 2 x 2 shape"),
        ("2 2 1\n-1 0 1\n", "entry 0 '-1 0 1' is outside the 2 x 2 shape"),
        ("2 2 1\n0 0 1\n1 1 1\n", "entry 1 is past the header's nnz 1"),
        ("2 2 3\n0 0 1\n1 1 1\n0 0 2\n", r"entry 2 repeats \(0, 0\)"),
        ("2 2 2\n0 0 1\n1 1 0\n", "entry 1 '1 1 0' .* not a positive count"),
        ("2 2 1\n1 1 -3\n", "entry 0 '1 1 -3' .* not a positive count"),
        ("2 2 2\n0 0 1\n", "truncated triplet list at entry 1"),
        ("2 2 1\n0 0\n", "truncated triplet list at entry 0"),
        ("2 2\n", "bad header"),
        ("2 -2 0\n", "bad header"),
    ],
    ids=[
        "row-outside", "col-outside", "negative-index", "past-nnz", "repeated",
        "zero-count", "negative-count", "short", "short-entry", "header-fields",
        "negative-header",
    ],
)
def test_read_rejects_what_the_writer_never_writes(tmp_path, text, message):
    path = tmp_path / "X.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message) as info:
        read_sparse_counts(path)
    assert str(path) in str(info.value)


def test_id_file_round_trip(tmp_path):
    # Every line break str.splitlines knows except the newline itself.
    breaks = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    ids = ("C001", "C002", "zeta", *(f"post-0000{c}x" for c in breaks), "\r", "end\r")
    path = tmp_path / "ids.txt"
    write_id_file(ids, path)
    assert read_id_file(path) == ids
