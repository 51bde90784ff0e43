import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from conceptmine.evaluate import (
    ConceptMetrics,
    ConfusionCounts,
    GoldAnnotation,
    GoldError,
    PRPoint,
    UNMAPPED_BUCKET,
    compute_metrics,
    load_gold,
    match_to_gold,
    per_concept_metrics,
    pr_auc,
    pr_sweep,
    write_gold,
)
from conceptmine.ingest import Corpus, Document
from conceptmine.ner import Mention
from conceptmine.selflabel import ScoredMention, ThresholdSweep, label_at_threshold

from conftest import flat_lexicon


def mention(doc_id, cid, start, end=None):
    end = end if end is not None else start + 4
    return Mention(
        doc_id=doc_id, concept_id=cid, start=start, end=end, surface="x" * (end - start)
    )


def gold(doc_id, start, end, label, cid=None):
    return GoldAnnotation(doc_id=doc_id, start=start, end=end, concept_id=cid, label=label)


class TestMatchToGold:
    def test_empty_predictions(self):
        counts = match_to_gold(
            [], [gold("d", 0, 4, "NLP_TRUE"), gold("d", 8, 12, "Manual_ACEs"),
                 gold("d", 20, 24, "NLP_TRUE")]
        )
        assert counts == ConfusionCounts(tp=0, fp=0, fn=3)

    def test_perfect_prediction(self):
        gs = [gold("d", 0, 4, "NLP_TRUE"), gold("d", 8, 12, "Manual_ACEs")]
        predicted = [(mention("d", "C1", g.start, g.end), True) for g in gs]
        assert match_to_gold(predicted, gs) == ConfusionCounts(tp=2, fp=0, fn=0)

    def test_hand_walked_five_mention_scenario(self):
        # Five predicted-positive spans; gold: two NLP_TRUE hits, one
        # Not_ACEs span (still a false positive), one Manual_ACEs miss;
        # remaining two predictions match nothing.
        predicted = [
            (mention("d", "C1", 0), True),     # NLP_TRUE -> tp
            (mention("d", "C2", 10), True),    # NLP_TRUE -> tp
            (mention("d", "C3", 20), True),    # Not_ACEs -> fp
            (mention("d", "C4", 30), True),    # unannotated -> fp
            (mention("d", "C5", 40), False),   # negative: ignored
        ]
        gs = [
            gold("d", 0, 4, "NLP_TRUE", "C1"),
            gold("d", 10, 14, "NLP_TRUE", "C2"),
            gold("d", 20, 24, "Not_ACEs"),
            gold("d", 50, 54, "Manual_ACEs", "C6"),
        ]
        assert match_to_gold(predicted, gs) == ConfusionCounts(tp=2, fp=2, fn=1)

    def test_negative_predictions_do_not_match(self):
        gs = [gold("d", 0, 4, "NLP_TRUE")]
        predicted = [(mention("d", "C1", 0), False)]
        assert match_to_gold(predicted, gs) == ConfusionCounts(tp=0, fp=0, fn=1)

    def test_duplicate_concepts_on_one_span_count_once(self):
        gs = [gold("d", 0, 4, "NLP_TRUE")]
        predicted = [
            (mention("d", "C1", 0), True),
            (mention("d", "C2", 0), True),
        ]
        assert match_to_gold(predicted, gs) == ConfusionCounts(tp=1, fp=0, fn=0)

    def test_tp_plus_fn_equals_gold_true_count(self):
        rng = np.random.default_rng(71)
        for trial in range(100):
            gs = []
            predicted = []
            for k in range(int(rng.integers(0, 20))):
                start = int(rng.integers(0, 10)) * 10
                label = ("NLP_TRUE", "Not_ACEs", "Manual_ACEs")[int(rng.integers(3))]
                gs.append(gold("d", start, start + 4, label))
            for k in range(int(rng.integers(0, 20))):
                start = int(rng.integers(0, 12)) * 10
                predicted.append((mention("d", "C1", start), bool(rng.random() < 0.7)))
            counts = match_to_gold(predicted, gs)
            n_true = sum(1 for g in gs if g.is_true)
            assert counts.tp + counts.fn == n_true


class TestComputeMetrics:
    def test_all_zero_convention(self):
        assert compute_metrics(ConfusionCounts(0, 0, 0)) == (0.0, 0.0, 0.0)

    def test_reported_triple_is_harmonically_consistent(self):
        # Exact counts realizing precision 0.853 and recall 0.707.
        tp = 853 * 707
        fp = 147 * 707
        fn = 293 * 853
        metrics = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn))
        assert metrics.precision == pytest.approx(0.853)
        assert metrics.recall == pytest.approx(0.707)
        assert metrics.f1 == pytest.approx(0.773, abs=1e-3)

    def test_direct_formula(self):
        metrics = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2))
        assert metrics.precision == pytest.approx(0.75)
        assert metrics.recall == pytest.approx(0.6)
        assert metrics.f1 == pytest.approx(2 / 3, abs=1e-4)


class TestPerConceptMetrics:
    def test_single_concept_equals_global(self):
        lexicon = flat_lexicon(["C1"])
        gs = [gold("d", 0, 4, "NLP_TRUE", "C1"), gold("d", 10, 14, "Manual_ACEs", "C1")]
        predicted = [(mention("d", "C1", 0), True), (mention("d", "C1", 20), True)]
        per = per_concept_metrics(predicted, gs, lexicon)
        global_metrics = compute_metrics(match_to_gold(predicted, gs))
        assert set(per) == {"C1"}
        assert per["C1"].precision == pytest.approx(global_metrics.precision)
        assert per["C1"].recall == pytest.approx(global_metrics.recall)
        assert per["C1"].support == 2

    def test_hand_walked_three_concept_table(self):
        lexicon = flat_lexicon(["C1", "C2", "C3"])
        gs = [
            gold("d", 0, 4, "NLP_TRUE", "C1"),      # matched
            gold("d", 10, 14, "NLP_TRUE", "C1"),    # missed
            gold("d", 20, 24, "NLP_TRUE", "C2"),    # matched
            gold("d", 30, 34, "Manual_ACEs", "C3"), # missed
            gold("d", 40, 44, "NLP_TRUE"),          # matched, no concept
            gold("d", 50, 54, "Manual_ACEs"),       # missed, no concept
        ]
        predicted = [
            (mention("d", "C1", 0), True),
            (mention("d", "C2", 20), True),
            (mention("d", "C2", 40), True),   # attaches the concept-less gold
            (mention("d", "C3", 60), True),   # unmatched span -> fp for C3
        ]
        per = per_concept_metrics(predicted, gs, lexicon)
        assert per["C1"].support == 2
        assert per["C1"].precision == 1.0
        assert per["C1"].recall == pytest.approx(0.5)
        assert per["C2"].support == 2  # one own gold + one attached
        assert per["C2"].recall == 1.0
        assert per["C3"].support == 1
        assert per["C3"].precision == 0.0
        assert per["C3"].recall == 0.0
        assert per[UNMAPPED_BUCKET].support == 1
        assert per[UNMAPPED_BUCKET].recall == 0.0

    def test_unknown_gold_concept_is_error(self):
        lexicon = flat_lexicon(["C1"])
        gs = [gold("d", 0, 4, "NLP_TRUE", "C9")]
        with pytest.raises(GoldError, match="C9"):
            per_concept_metrics([], gs, lexicon)

    def test_paraphrase_misses_give_high_precision_low_recall(self):
        lexicon = flat_lexicon(["C1"])
        gs = [gold("d", 0, 4, "NLP_TRUE", "C1")] + [
            gold("d", 10 * k, 10 * k + 4, "Manual_ACEs", "C1") for k in range(1, 5)
        ]
        predicted = [(mention("d", "C1", 0), True)]
        per = per_concept_metrics(predicted, gs, lexicon)
        assert per["C1"].precision == 1.0
        assert per["C1"].recall == pytest.approx(0.2)


def scored_fixture(scores):
    return [
        ScoredMention(mention("d", "C1", 10 * i), s) for i, s in enumerate(scores)
    ]


def reference_match_to_gold(predicted, gold):
    """Exact-span counts with span sets, independent of the sorted counter."""
    positive_spans = {
        (m.doc_id, m.start, m.end) for m, label in predicted if label
    }
    true_spans = {g.span() for g in gold if g.is_true}
    tp = sum(1 for g in gold if g.is_true and g.span() in positive_spans)
    fn = sum(1 for g in gold if g.is_true and g.span() not in positive_spans)
    fp = len(positive_spans - true_spans)
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def reference_per_concept_metrics(predicted, gold, lexicon):
    """Per-concept table kept in separate tp, fn and fp dicts."""
    for g in gold:
        if g.concept_id is not None and g.concept_id not in lexicon:
            raise GoldError(f"gold references unknown concept {g.concept_id!r}")

    span_concepts = {}
    for mention, label in predicted:
        if label:
            key = (mention.doc_id, mention.start, mention.end)
            span_concepts.setdefault(key, set()).add(mention.concept_id)

    true_spans = {g.span() for g in gold if g.is_true}
    tp, fn, fp = {}, {}, {}
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

    result = {}
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


def reference_pr_sweep(scored, gold, sweep):
    """Label and match at every threshold separately."""
    points = []
    for tau in sweep.thresholds:
        labeled = label_at_threshold(scored, tau)
        metrics = compute_metrics(reference_match_to_gold(labeled, gold))
        points.append(
            PRPoint(threshold=tau, precision=metrics.precision, recall=metrics.recall)
        )
    return points


def random_sweep_inputs(rng):
    """Mentions on a small pool of spans, so spans carry several concepts
    with different scores and mix filtered and unfiltered mentions; gold
    drawn from the same pool plus spans never predicted."""
    taus = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
    pool = [(d, 10 * k, 10 * k + 4) for d in ("d", "e") for k in range(12)]
    scored = []
    for _ in range(int(rng.integers(0, 60))):
        doc_id, start, end = pool[int(rng.integers(len(pool) - 4))]
        if rng.random() < 0.3:
            score = float(rng.choice(taus + (math.nan,)))
        else:
            score = float(rng.uniform(-1, 1))
        m = Mention(
            doc_id=doc_id, concept_id=f"C{int(rng.integers(3))}", start=start,
            end=end, surface="x" * 4, filtered=bool(rng.random() < 0.25),
        )
        scored.append(ScoredMention(m, score))
    labels = ("NLP_TRUE", "Not_ACEs", "Manual_ACEs")
    gs = [
        gold(*pool[int(rng.integers(len(pool)))], labels[int(rng.integers(3))])
        for _ in range(int(rng.integers(0, 20)))
    ]
    return scored, gs, ThresholdSweep(thresholds=taus)


def random_eval_inputs(rng, trial):
    """``random_sweep_inputs`` as a labelled prediction: every tenth gold
    list is empty and every tenth doubled, and about half the gold
    annotations name a concept, so unlabelled ones of every gold label
    remain."""
    scored, gs, _ = random_sweep_inputs(rng)
    predicted = [(s.mention, bool(rng.random() < 0.6)) for s in scored]
    gs = [
        replace(g, concept_id=f"C{int(rng.integers(3))}") if rng.random() < 0.5 else g
        for g in gs
    ]
    if trial % 10 == 0:
        gs = []
    elif trial % 10 == 1:
        gs = gs + gs
    return predicted, gs


class TestAgainstReferences:
    def test_match_to_gold_equals_reference(self):
        rng = np.random.default_rng(102)
        for trial in range(300):
            predicted, gs = random_eval_inputs(rng, trial)
            assert match_to_gold(predicted, gs) == reference_match_to_gold(predicted, gs)

    def test_per_concept_metrics_equals_reference(self):
        lexicon = flat_lexicon(["C0", "C1", "C2"])
        rng = np.random.default_rng(103)
        for trial in range(300):
            predicted, gs = random_eval_inputs(rng, trial)
            assert per_concept_metrics(predicted, gs, lexicon) == (
                reference_per_concept_metrics(predicted, gs, lexicon)
            )


class TestPRSweep:
    def test_equals_per_threshold_reference(self):
        rng = np.random.default_rng(101)
        for trial in range(300):
            scored, gs, sweep = random_sweep_inputs(rng)
            if trial % 10 == 0:
                gs = []
            elif trial % 10 == 1:
                gs = gs + gs
            assert pr_sweep(scored, gs, sweep) == reference_pr_sweep(scored, gs, sweep)

    def test_single_minus_one_threshold_equals_unthresholded(self):
        scored = scored_fixture([0.3, 0.8])
        gs = [gold("d", 0, 4, "NLP_TRUE"), gold("d", 30, 34, "Manual_ACEs")]
        points = pr_sweep(scored, gs, ThresholdSweep(thresholds=(-1.0,)))
        predicted = [(s.mention, True) for s in scored]
        direct = compute_metrics(match_to_gold(predicted, gs))
        assert len(points) == 1
        assert points[0].precision == direct.precision
        assert points[0].recall == direct.recall

    def test_recall_non_increasing(self):
        rng = np.random.default_rng(72)
        for trial in range(30):
            scored = scored_fixture(list(rng.uniform(0, 1, size=15)))
            gs = [
                gold("d", 10 * i, 10 * i + 4, "NLP_TRUE")
                for i in range(15)
                if rng.random() < 0.5
            ]
            points = pr_sweep(scored, gs, ThresholdSweep())
            recalls = [p.recall for p in points]
            assert recalls == sorted(recalls, reverse=True)

    def test_hand_walked_table(self):
        scored = scored_fixture([0.2, 0.6, 0.9])
        gs = [
            gold("d", 0, 4, "NLP_TRUE"),
            gold("d", 10, 14, "Not_ACEs"),
            gold("d", 20, 24, "NLP_TRUE"),
        ]
        sweep = ThresholdSweep(thresholds=(0.0, 0.5, 0.95))
        points = pr_sweep(scored, gs, sweep)
        # tau=0.0: positives all 3 -> tp=2 (spans 0, 20), fp=1 -> P=2/3 R=1
        assert points[0].precision == pytest.approx(2 / 3)
        assert points[0].recall == 1.0
        # tau=0.5: positives at 10, 20 -> tp=1, fp=1, fn=1
        assert points[1].precision == pytest.approx(0.5)
        assert points[1].recall == pytest.approx(0.5)
        # tau=0.95: nothing positive
        assert points[2].precision == 0.0
        assert points[2].recall == 0.0


class TestPRAUC:
    def test_unit_square(self):
        points = [PRPoint(0.0, 1.0, 0.0), PRPoint(1.0, 1.0, 1.0)]
        assert pr_auc(points) == 1.0

    def test_triangle(self):
        points = [PRPoint(0.0, 1.0, 0.0), PRPoint(1.0, 0.0, 1.0)]
        assert pr_auc(points) == 0.5

    def test_fewer_than_two_points_is_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            pr_auc([PRPoint(0.0, 1.0, 0.5)])

    def test_matches_numpy_trapezoid_on_random_monotone_sets(self):
        rng = np.random.default_rng(73)
        for trial in range(50):
            n = int(rng.integers(2, 15))
            recalls = np.sort(rng.uniform(0, 1, size=n))
            precisions = rng.uniform(0, 1, size=n)
            points = [
                PRPoint(threshold=float(i), precision=float(p), recall=float(r))
                for i, (r, p) in enumerate(zip(recalls, precisions))
            ]
            expected = float(np.trapezoid(precisions, recalls))
            assert pr_auc(points) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(74)
        points = [
            PRPoint(threshold=float(i), precision=float(p), recall=float(r))
            for i, (r, p) in enumerate(
                zip(rng.uniform(0, 1, size=9), rng.uniform(0, 1, size=9))
            )
        ]
        shuffled = list(points)
        rng.shuffle(shuffled)
        assert pr_auc(points) == pytest.approx(pr_auc(shuffled), abs=1e-15)

    def test_duplicate_recalls_averaged(self):
        points = [
            PRPoint(0.0, 1.0, 0.0),
            PRPoint(0.5, 0.2, 1.0),
            PRPoint(1.0, 0.8, 1.0),
        ]
        # Precisions at recall 1.0 average to 0.5 -> trapezoid (1+0.5)/2.
        assert pr_auc(points) == pytest.approx(0.75)


class TestGoldIO:
    def test_round_trip(self, tmp_path):
        gs = [
            gold("a", 0, 4, "NLP_TRUE", "C1"),
            gold("a", 8, 12, "Not_ACEs"),
            gold("b", 2, 6, "Manual_ACEs", "C2"),
        ]
        path = tmp_path / "gold.jsonl"
        write_gold(gs, path)
        assert load_gold(path) == sorted(
            gs, key=lambda g: (g.doc_id, g.start, g.end, g.label)
        )

    def test_bad_label_rejected(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"doc_id": "a", "start": 0, "end": 4, "label": "MAYBE"}\n',
            encoding="utf-8",
        )
        with pytest.raises(GoldError, match="MAYBE"):
            load_gold(path)

    def test_unknown_doc_with_corpus(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"doc_id": "zz", "start": 0, "end": 4, "label": "NLP_TRUE"}\n',
            encoding="utf-8",
        )
        corpus = Corpus(docs=(Document(doc_id="a", text="text here"),))
        with pytest.raises(GoldError, match="unknown doc"):
            load_gold(path, corpus)

    def test_out_of_bounds_gold_with_corpus(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        write_gold([gold("d", 0, 99, "NLP_TRUE")], path)
        corpus = Corpus(docs=(Document(doc_id="d", text="short"),))
        with pytest.raises(GoldError, match="out of bounds"):
            load_gold(path, corpus)

    @pytest.mark.parametrize(
        "key, value", [("start", 3.7), ("end", "9"), ("start", True)]
    )
    def test_offsets_must_be_json_integers(self, tmp_path, key, value):
        path = tmp_path / "gold.jsonl"
        record = {"doc_id": "a", "start": 3, "end": 9, "label": "NLP_TRUE", key: value}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        message = f"gold.jsonl: line 1: {key} must be an integer, got {value!r}"
        with pytest.raises(GoldError, match=re.escape(message)):
            load_gold(path)

    @pytest.mark.parametrize(
        "key, value", [("doc_id", 7), ("doc_id", None), ("concept_id", ["C1"]),
                       ("concept_id", 3)]
    )
    def test_ids_must_be_json_strings(self, tmp_path, key, value):
        path = tmp_path / "gold.jsonl"
        record = {"doc_id": "a", "start": 3, "end": 9, "label": "NLP_TRUE", key: value}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        message = f"gold.jsonl: line 1: {key} must be a string, got {value!r}"
        with pytest.raises(GoldError, match=re.escape(message)):
            load_gold(path)

    def test_concept_id_may_be_null_or_absent(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        path.write_text(
            '{"doc_id": "a", "start": 0, "end": 4, "label": "NLP_TRUE", "concept_id": null}\n'
            '{"doc_id": "a", "start": 5, "end": 9, "label": "Manual_ACEs"}\n',
            encoding="utf-8",
        )
        assert [g.concept_id for g in load_gold(path)] == [None, None]
