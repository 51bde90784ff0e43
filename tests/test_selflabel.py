import csv
import math

import numpy as np
import pytest

from conceptmine import autoencoder as ae
from conceptmine.ingest import Corpus, Document
from conceptmine.matrix import (
    CSRCounts,
    DocConceptMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
    concept_embeddings,
)
from conceptmine.ner import Mention
from conceptmine.selflabel import (
    SCORE_BLOCK,
    ScoredMention,
    ThresholdSweep,
    label_scores,
    read_scored,
    score_mentions,
    write_label_files,
    write_labels_csv,
    write_scored,
)

from conftest import flat_lexicon, reference_document_context_vector, score_columns


def mention(doc_id, cid, start=0, filtered=False):
    return Mention(
        doc_id=doc_id, concept_id=cid, start=start, end=start + 1, surface="x",
        filtered=filtered, filter_reason="stoplist" if filtered else None,
    )


def toy_setup():
    """Docs d1{A,B} d2{A,B} d3{C} d4{A,C}; co-occurrence worked out by hand:

    rows A=(3,2,1), B=(2,2,0), C=(1,0,2) over concept order (A,B,C).
    """
    corpus = Corpus(
        docs=tuple(Document(doc_id=d, text="") for d in ("d1", "d2", "d3", "d4"))
    )
    lexicon = flat_lexicon(["A", "B", "C"])
    mentions = [
        mention("d1", "A"), mention("d1", "B", start=2),
        mention("d2", "A"), mention("d2", "B", start=2),
        mention("d3", "C"),
        mention("d4", "A"), mention("d4", "C", start=2),
    ]
    X = build_doc_concept_matrix(corpus, mentions, lexicon)
    C = build_cooc_matrix(X)
    assert C.counts.toarray().tolist() == [[3, 2, 1], [2, 2, 0], [1, 0, 2]]
    return X, C, mentions


def random_scoring_setup(rng, n_docs=400, m=12):
    """Random doc-concept counts with empty and single-concept rows, one
    mention per nonzero plus a filtered mention of a concept absent from
    each row, and docs whose contexts equal, oppose or zero out the
    concept row under :func:`constructed_embeddings`.

    Returns X, the mentions and ``{mention index: exact score}`` for the
    constructed docs.
    """
    # Random rows draw from concepts 4.. only: concepts 0-2 embed as e0,
    # e0 and -e0 and would cancel in sums like 2*e0 + e0 - 3*e0, whose
    # rounding residual depends on the summation order.
    rows = []
    for i in range(n_docs):
        size = 0 if i % 40 == 0 else 1 if i % 40 == 1 else int(rng.integers(2, m - 3))
        cols = np.sort(rng.choice(np.arange(4, m), size=size, replace=False))
        rows.append(dict(zip(cols.tolist(), rng.integers(1, 5, size=size).tolist())))
    special_rows = [{0: 1, 1: 1}, {0: 1, 2: 1}, {0: 2, 3: 1}]
    special_scores = [(1.0, 1.0), (-1.0, -1.0), (0.0, 0.0)]
    rows += special_rows
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([j for r in rows for j in r], dtype=np.int64)
    data = np.array([c for r in rows for c in r.values()], dtype=np.int64)
    counts = CSRCounts(indptr=indptr, indices=indices, data=data, shape=(len(rows), m))
    X = DocConceptMatrix(
        doc_ids=tuple(f"d{i:03d}" for i in range(len(rows))),
        concept_ids=tuple(f"C{j:02d}" for j in range(m)),
        counts=counts,
    )
    mentions = []
    special = {}
    for i, row in enumerate(rows):
        doc_id = X.doc_ids[i]
        for j in row:
            if i >= n_docs:
                pair = special_scores[i - n_docs]
                special[len(mentions)] = pair[0 if j == 0 else 1]
            mentions.append(mention(doc_id, X.concept_ids[j], start=2 * j))
        absent = [j for j in range(m) if j not in row]
        if absent:
            j = int(rng.choice(absent))
            mentions.append(mention(doc_id, X.concept_ids[j], start=2 * j, filtered=True))
    return X, mentions, special


def constructed_embeddings(m):
    embeddings = np.random.default_rng(84).normal(size=(m, 5))
    embeddings[1] = embeddings[0]
    embeddings[2] = -embeddings[0]
    embeddings[3] = 0.0
    return embeddings


def reference_cosine(a, b):
    """Cosine of two vectors with the scoring conventions, one pair at a
    time: 0 for an all-zero input, exact +-1 for equal and opposite
    inputs, otherwise the max-abs-scaled cosine clamped to [-1, 1]."""
    scale_a = float(np.max(np.abs(a), initial=0.0))
    scale_b = float(np.max(np.abs(b), initial=0.0))
    if scale_a == 0.0 or scale_b == 0.0:
        return 0.0
    if np.array_equal(a, b):
        return 1.0
    if np.array_equal(a, -b):
        return -1.0
    a = a / scale_a
    b = b / scale_b
    value = float(np.dot(a, b)) / math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    return max(-1.0, min(1.0, value))


def oracle_scores(mentions, X, embeddings):
    scores = []
    for m in mentions:
        concept = X.concept_index(m.concept_id)
        context = reference_document_context_vector(
            X, embeddings, X.doc_index(m.doc_id), exclude=concept
        )
        scores.append(reference_cosine(embeddings[concept], context))
    return np.array(scores)


class TestScoreMentions:
    def test_single_concept_document_scores_zero(self):
        corpus = Corpus(docs=(Document(doc_id="d1", text=""),))
        lexicon = flat_lexicon(["A"])
        mentions = [mention("d1", "A")]
        X = build_doc_concept_matrix(corpus, mentions, lexicon)
        embeddings = concept_embeddings(build_cooc_matrix(X))
        scored = score_mentions(mentions, X, embeddings)
        assert scored[0].score == 0.0

    def test_hand_computed_toy_scores(self):
        X, C, mentions = toy_setup()
        embeddings = concept_embeddings(C)
        scored = {
            (s.mention.doc_id, s.mention.concept_id): s.score
            for s in score_mentions(mentions, X, embeddings)
        }
        # A in d1: cos((3,2,1), (2,2,0)) = 10 / sqrt(14 * 8)
        assert scored[("d1", "A")] == pytest.approx(
            10.0 / math.sqrt(14.0 * 8.0), abs=1e-12
        )
        # A in d4: cos((3,2,1), (1,0,2)) = 5 / sqrt(14 * 5)
        assert scored[("d4", "A")] == pytest.approx(
            5.0 / math.sqrt(14.0 * 5.0), abs=1e-12
        )
        # C in d3 has an empty leave-one-out context.
        assert scored[("d3", "C")] == 0.0

    def test_filtered_mentions_scored_with_flag_preserved(self):
        X, C, _ = toy_setup()
        embeddings = concept_embeddings(C)
        flagged = [mention("d1", "A", filtered=True)]
        scored = score_mentions(flagged, X, embeddings)
        assert scored[0].mention.filtered is True
        assert scored[0].score == pytest.approx(10.0 / math.sqrt(112.0))

    def test_missing_embedding_names_concept(self):
        X, C, _ = toy_setup()
        embeddings = concept_embeddings(C)
        with pytest.raises(ValueError, match="'Z'"):
            score_mentions([mention("d1", "Z")], X, embeddings)

    def test_filtered_mention_of_unobserved_concept_scores_zero(self):
        X, C, _ = toy_setup()
        embeddings = concept_embeddings(C)
        mentions = [
            mention("d4", "A"),
            mention("d1", "Z", start=4, filtered=True),
            mention("d1", "A"),
        ]
        scored = score_mentions(mentions, X, embeddings)
        assert [s.mention for s in scored] == mentions
        assert [s.score for s in scored] == pytest.approx(
            [5.0 / math.sqrt(70.0), 0.0, 10.0 / math.sqrt(112.0)], abs=1e-12
        )
        assert scored[1].score == 0.0

    @pytest.mark.parametrize("space", ["raw", "encoded", "constructed"])
    def test_equals_context_vector_oracle(self, space):
        X, mentions, special = random_scoring_setup(np.random.default_rng(83))
        assert len(mentions) > 2 * SCORE_BLOCK
        C = build_cooc_matrix(X)
        if space == "raw":
            embeddings = concept_embeddings(C, normalized=True)
        elif space == "encoded":
            config = ae.AEConfig(input_dim=X.m_concepts, encoded_dim=4, seed=5)
            embeddings = ae.encode_all(ae.init_model(config), C, normalized=True)
        else:
            embeddings = constructed_embeddings(X.m_concepts)
        scored = score_mentions(mentions, X, embeddings)
        assert [s.mention for s in scored] == mentions
        expected = oracle_scores(mentions, X, embeddings)
        got = np.array([s.score for s in scored])
        assert np.max(np.abs(got - expected)) <= 1e-12
        if space == "constructed":
            for k, value in special.items():
                assert got[k] == value
                assert expected[k] == value

    def test_scale_invariance_of_scores(self):
        X, C, mentions = toy_setup()
        base = concept_embeddings(C)
        a = score_mentions(mentions, X, base)
        b = score_mentions(mentions, X, base * 37.5)
        for s1, s2 in zip(a, b):
            assert s1.score == pytest.approx(s2.score, abs=1e-12)


class TestLabelAtThreshold:
    """The one label rule, :func:`label_scores`, compared with tau."""

    def scored(self, scores, filtered=None):
        filtered = filtered or [False] * len(scores)
        return [
            ScoredMention(mention("d1", f"C{i}", start=i, filtered=f), s)
            for i, (s, f) in enumerate(zip(scores, filtered))
        ]

    def labels(self, scored, tau):
        return [v >= tau for v in label_scores(*score_columns(scored))]

    def test_minimum_threshold_labels_all_unfiltered(self):
        scored = self.scored([0.1, -0.9, 0.0])
        assert self.labels(scored, -1.0) == [True] * 3

    def test_direct_comparison(self):
        scored = self.scored([0.2, 0.5, 0.9])
        assert self.labels(scored, 0.5) == [False, True, True]

    def test_tau_one_only_perfect_scores(self):
        scored = self.scored([1.0, 0.999])
        assert self.labels(scored, 1.0) == [True, False]

    def test_tau_outside_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="outside"):
            write_labels_csv(self.scored([0.5]), 1.5, tmp_path / "labels.csv")

    def test_filtered_never_positive(self):
        scored = self.scored([0.9, 0.9, math.nan], filtered=[True, False, False])
        for tau in (-1.0, 0.0, 0.5):
            assert self.labels(scored, tau) == [False, True, False]

    def test_positives_shrink_as_tau_grows(self):
        rng = np.random.default_rng(61)
        for trial in range(50):
            scored = self.scored(list(rng.uniform(-1, 1, size=20)))
            taus = sorted(rng.uniform(-1, 1, size=5))
            previous = None
            for tau in taus:
                positives = {
                    s.mention.sort_key()
                    for s, lab in zip(scored, self.labels(scored, tau))
                    if lab
                }
                if previous is not None:
                    assert positives <= previous
                previous = positives


class TestThresholdSweep:
    def test_default_is_21_even_steps(self):
        sweep = ThresholdSweep()
        assert len(sweep.thresholds) == 21
        assert sweep.thresholds[0] == 0.0
        assert sweep.thresholds[-1] == 1.0
        steps = np.diff(sweep.thresholds)
        assert np.allclose(steps, 0.05)

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ThresholdSweep(thresholds=(0.1, 0.1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            ThresholdSweep(thresholds=(-2.0, 0.0))

    def test_colliding_file_names_rejected(self):
        with pytest.raises(ValueError, match=r"0\.1234561.*0\.1234562.*threshold_0\.123456\.csv"):
            ThresholdSweep(thresholds=(0.1234561, 0.1234562))


def test_scored_jsonl_round_trip(tmp_path):
    X, C, mentions = toy_setup()
    scored = score_mentions(mentions, X, concept_embeddings(C))
    path = tmp_path / "scored.jsonl"
    # Written in the order given, not re-sorted.
    write_scored(scored[::-1], path)
    assert read_scored(path) == scored[::-1]


def test_labels_csv_shape(tmp_path):
    X, C, mentions = toy_setup()
    scored = score_mentions(mentions, X, concept_embeddings(C))
    path = tmp_path / "labels.csv"
    write_labels_csv(scored, 0.5, path)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "doc_id,start,end,concept_id,score,label"
    assert len(lines) == len(mentions) + 1
    assert all(line.endswith(("true", "false")) for line in lines[1:])


def reference_labels_csv(scored, tau, path):
    """One csv.writer row per mention in the order given, as label files
    were first written."""
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["doc_id", "start", "end", "concept_id", "score", "label"])
        for s in scored:
            label = (not s.mention.filtered) and s.score >= tau
            writer.writerow(
                [s.mention.doc_id, s.mention.start, s.mention.end,
                 s.mention.concept_id, repr(s.score), "true" if label else "false"]
            )


def quoting_scored():
    rng = np.random.default_rng(97)
    doc_ids = ["d,1", 'd"2', "d 3", "d\n4", "plain"]
    concept_ids = ["C,1", 'C"2', "C 3", "C4"]
    scores = [-0.25, 0.5, -1.0, 1.0, 0.0, 1e-17] + list(rng.uniform(-1, 1, size=40))
    scored = []
    for k, score in enumerate(scores):
        m = Mention(
            doc_id=doc_ids[k % len(doc_ids)], concept_id=concept_ids[k % len(concept_ids)],
            start=k, end=k + 3, surface="x", filtered=k % 3 == 0,
            filter_reason="stoplist" if k % 3 == 0 else None,
        )
        scored.append(ScoredMention(mention=m, score=float(score)))
    return scored[::-1]


def test_label_files_equal_csv_writer_reference(tmp_path):
    scored = quoting_scored()
    sweep = ThresholdSweep(thresholds=(-1.0, 0.0, 0.5, 1.0))
    write_label_files(*score_columns(scored), sweep, tmp_path / "labels")
    for tau in sweep.thresholds:
        reference = tmp_path / f"reference_{tau:g}.csv"
        reference_labels_csv(scored, tau, reference)
        single = tmp_path / f"single_{tau:g}.csv"
        write_labels_csv(scored, tau, single)
        written = tmp_path / "labels" / f"threshold_{tau:g}.csv"
        assert written.read_bytes() == reference.read_bytes()
        assert single.read_bytes() == reference.read_bytes()
    # The unfiltered score exactly at tau=0.5 is labelled true.
    assert b'"d""2",1,4,"C""2",0.5,true\r\n' in (
        tmp_path / "labels" / "threshold_0.5.csv"
    ).read_bytes()


def test_label_files_replace_stale_thresholds_only(tmp_path):
    scored = quoting_scored()
    labels = tmp_path / "labels"
    write_label_files(*score_columns(scored), ThresholdSweep(thresholds=(0.0, 0.5, 1.0)), labels)
    (labels / "notes.txt").write_text("keep", encoding="utf-8")
    (labels / "threshold_x.txt").write_text("keep", encoding="utf-8")
    write_label_files(*score_columns(scored), ThresholdSweep(thresholds=(0.5, 0.75)), labels)
    assert sorted(p.name for p in labels.iterdir()) == [
        "notes.txt", "threshold_0.5.csv", "threshold_0.75.csv", "threshold_x.txt",
    ]
