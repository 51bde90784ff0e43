"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import contextlib
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conceptmine.autoencoder import (
    AEConfig,
    forward_all,
    init_model,
    train,
)
from conceptmine.config import load_config
from conceptmine.evaluate import (
    ConfusionCounts,
    GoldAnnotation,
    compute_metrics,
    pr_sweep,
)
from conceptmine.ingest import Corpus, Document
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.matrix import (
    CSRCounts,
    DocConceptMatrix,
    build_cooc_matrix,
    build_doc_concept_matrix,
)
from conceptmine.ner import Mention, find_mentions
from conceptmine.pipeline import run_pipeline
from conceptmine.selflabel import (
    ScoredMention,
    ThresholdSweep,
    label_file_name,
    score_mentions,
    write_label_files,
)

from conftest import (
    DATA_DIR,
    REPO_ROOT,
    flat_lexicon,
    loss_and_gradients,
    score_columns,
    write_lexicon_csv,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_metric_consistency_with_reported_triple():
    with criterion(1, "metric consistency"):
        # Any confusion counts realizing precision 0.853 and recall 0.707
        # must yield F1 = 0.773 within 0.001.
        for scale in (1, 3, 17):
            tp = 853 * 707 * scale
            fp = 147 * 707 * scale
            fn = 293 * 853 * scale
            metrics = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn))
            assert metrics.precision == pytest.approx(0.853, abs=1e-12)
            assert metrics.recall == pytest.approx(0.707, abs=1e-12)
            assert abs(metrics.f1 - 0.773) <= 1e-3


def test_criterion_2_matrix_oracle_equivalence():
    with criterion(2, "matrix oracle equivalence"):
        rng = np.random.default_rng(2002)
        for trial in range(200):
            n = int(rng.integers(1, 21))
            n_concepts = int(rng.integers(1, 16))
            corpus = Corpus(
                docs=tuple(Document(doc_id=f"d{i:02d}", text="") for i in range(n))
            )
            cids = [f"C{j:02d}" for j in range(n_concepts)]
            lexicon = flat_lexicon(cids)
            mentions = [
                Mention(
                    doc_id=f"d{int(rng.integers(n)):02d}",
                    concept_id=cids[int(rng.integers(n_concepts))],
                    start=0, end=1, surface="x",
                    filtered=bool(rng.random() < 0.2),
                    filter_reason=None,
                )
                for _ in range(int(rng.integers(0, 50)))
            ]
            mentions = [
                m if not m.filtered
                else dataclasses.replace(m, filter_reason="stoplist")
                for m in mentions
            ]
            X = build_doc_concept_matrix(corpus, mentions, lexicon)
            dense = np.zeros((len(X.doc_ids), X.m_concepts), dtype=np.int64)
            for m in mentions:
                if not m.filtered:
                    dense[corpus.index_of(m.doc_id), X.concept_index(m.concept_id)] += 1
            assert (X.counts.toarray() == dense).all()

            C = build_cooc_matrix(X)
            got = C.counts.toarray()
            mdim = X.m_concepts
            brute = np.zeros((mdim, mdim), dtype=np.int64)
            for i in range(mdim):
                for j in range(mdim):
                    brute[i, j] = int(
                        np.sum((dense[:, i] >= 1) & (dense[:, j] >= 1))
                    )
            assert (got == brute).all()
            assert (got == got.T).all()
            assert (np.diag(got) == (dense >= 1).sum(axis=0)).all()


def test_criterion_3_cosine_formula_fidelity():
    # One document holding concepts A and B once each: the context of a
    # mention of A is exactly B's embedding, so its score is cos(a, b).
    X = DocConceptMatrix(
        doc_ids=("d",),
        concept_ids=("A", "B"),
        counts=CSRCounts(
            indptr=np.array([0, 2]), indices=np.array([0, 1]),
            data=np.array([1, 1]), shape=(1, 2),
        ),
    )
    mention = Mention(doc_id="d", concept_id="A", start=0, end=1, surface="x")

    def score(a, b):
        return score_mentions([mention], X, np.vstack([a, b]))[0].score

    with criterion(3, "cosine similarity fidelity"):
        rng = np.random.default_rng(2003)
        for trial in range(1000):
            d = int(rng.integers(1, 20))
            a = rng.normal(size=d) * 10.0 ** int(rng.integers(-2, 3))
            b = rng.normal(size=d) * 10.0 ** int(rng.integers(-2, 3))
            dot = math.fsum(float(x) * float(y) for x, y in zip(a, b))
            na = math.sqrt(math.fsum(float(x) ** 2 for x in a))
            nb = math.sqrt(math.fsum(float(y) ** 2 for y in b))
            expected = 0.0 if na == 0.0 or nb == 0.0 else dot / (na * nb)
            expected = max(-1.0, min(1.0, expected))
            assert score(a, b) == pytest.approx(expected, abs=1e-12)
        # Boundary interpretations are exact.
        v = np.array([0.3, -1.7, 2.9])
        assert score(v, v) == 1.0
        assert score(v, -v) == -1.0
        assert score(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
        # Parallel inputs stay exact at extreme magnitudes.
        for a, b in (([8.96e-155], [1.0]), ([1e-200], [1.0]), ([1e200, 1e200], [1.0, 1.0])):
            assert score(np.array(a), np.array(b)) == 1.0


def _oracle_loss(model, X):
    Z = X @ model.W_enc.T + model.b_enc
    H = 1.0 / (1.0 + np.exp(-Z)) if model.activation == "sigmoid" else Z
    R = H @ model.W_dec.T + model.b_dec
    return float(np.mean((R - X) ** 2))


def test_criterion_4_gradient_correctness():
    with criterion(4, "autoencoder gradient correctness"):
        rng = np.random.default_rng(2004)
        step = 1e-5
        cases = [
            (dims, activation)
            for dims in ((4, 2), (6, 3))
            for activation in ("identity", "sigmoid")
            for _ in range(5)
        ]
        assert len(cases) == 20
        for (input_dim, encoded_dim), activation in cases:
            config = AEConfig(
                input_dim=input_dim,
                encoded_dim=encoded_dim,
                seed=int(rng.integers(100_000)),
                activation=activation,
            )
            model = init_model(config)
            batch = rng.normal(size=(6, input_dim))
            _, grads = loss_and_gradients(model, batch)
            for field in ("W_enc", "b_enc", "W_dec", "b_dec"):
                base = getattr(model, field)
                numeric = np.zeros_like(base)
                for index in np.ndindex(base.shape):
                    plus = base.copy()
                    plus[index] += step
                    minus = base.copy()
                    minus[index] -= step
                    numeric[index] = (
                        _oracle_loss(dataclasses.replace(model, **{field: plus}), batch)
                        - _oracle_loss(
                            dataclasses.replace(model, **{field: minus}), batch
                        )
                    ) / (2.0 * step)
                analytic = getattr(grads, field)
                rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
                assert rel.max() < 1e-4, (field, activation)


def test_criterion_5_autoencoder_fidelity_on_representable_data():
    with criterion(5, "autoencoder fidelity on rank-k data"):
        rng = np.random.default_rng(2005)
        m, k, n = 40, 8, 40
        basis, _ = np.linalg.qr(rng.normal(size=(m, k)))
        data = rng.normal(size=(n, k)) @ basis.T
        config = AEConfig(
            input_dim=m, encoded_dim=k, learning_rate=0.2, epochs=2000,
            batch_size=8, seed=2005, activation="identity",
        )
        model, report = train(init_model(config), data, config)
        assert report.final_loss < 1e-3
        _, reconstructed = forward_all(model, data)
        corr = float(np.corrcoef(data.ravel(), reconstructed.ravel())[0, 1])
        assert corr > 0.99


def test_criterion_6_auc_preserved_under_compression(tmp_path):
    with criterion(6, "PR-AUC preserved by compression"):
        config = load_config(
            DATA_DIR / "config.ini", {"output": str(tmp_path / "out")}
        )
        result = run_pipeline(config)
        assert result.n_docs >= 200
        assert result.m_concepts >= 30
        assert result.encoded_dim == result.m_concepts // 4
        assert result.auc_raw is not None and result.auc_encoded is not None
        assert abs(result.auc_raw - result.auc_encoded) <= 0.05


GOLDEN_TERMS = (
    "mental disorder",
    "mood swings",
    "borderline personality disorder",
    "BPD",
    "self harm",
    "social phobia",
    "destructive",
    "sad",
)


def _token_boundary_spans(text, surfaces):
    def is_token_char(c):
        return c.isalnum() or c == "'"

    spans = set()
    for surface in surfaces:
        for m in re.finditer(re.escape(surface), text, re.IGNORECASE):
            start, end = m.span()
            if start > 0 and is_token_char(text[start - 1]):
                continue
            if end < len(text) and is_token_char(text[end]):
                continue
            spans.add((start, end))
    return spans


def test_criterion_7_ner_golden_passage(tmp_path):
    with criterion(7, "golden annotated passage"):
        text = (DATA_DIR / "sample_post.txt").read_text(encoding="utf-8")
        rows = [
            f"C{i:02d},{term},true,,g" for i, term in enumerate(GOLDEN_TERMS)
        ]
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "golden.csv", rows))
        vocab = build_vocabulary(lexicon, {c.id for c in lexicon.concepts})
        mentions = find_mentions(Document(doc_id="post", text=text), vocab)

        got_spans = {(m.start, m.end) for m in mentions}
        expected = _token_boundary_spans(text, GOLDEN_TERMS)
        assert got_spans == expected
        for m in mentions:
            assert text[m.start : m.end] == m.surface

        surfaces = sorted(m.surface.lower() for m in mentions)
        assert surfaces.count("mental disorder") == 2
        assert surfaces.count("bpd") == 2
        for surface in ("mood swings", "self harm", "social phobia",
                        "destructive", "sad"):
            assert surfaces.count(surface) == 1
        # The long span is reported exactly once, with nothing nested in it.
        long_spans = [
            m for m in mentions
            if m.surface.lower() == "borderline personality disorder"
        ]
        assert len(long_spans) == 1
        outer = long_spans[0]
        for m in mentions:
            if m is not outer:
                assert m.end <= outer.start or m.start >= outer.end


def test_criterion_8_threshold_monotonicity(tmp_path):
    with criterion(8, "threshold monotonicity"):
        rng = np.random.default_rng(2008)
        for trial in range(100):
            n = int(rng.integers(1, 40))
            scored = []
            gold = []
            for i in range(n):
                filtered = bool(rng.random() < 0.15)
                mention = Mention(
                    doc_id="d", concept_id=f"C{i}", start=10 * i, end=10 * i + 4,
                    surface="xxxx", filtered=filtered,
                    filter_reason="stoplist" if filtered else None,
                )
                scored.append(
                    ScoredMention(mention=mention, score=float(rng.uniform(-1, 1)))
                )
                if rng.random() < 0.6:
                    gold.append(
                        GoldAnnotation(
                            doc_id="d", start=10 * i, end=10 * i + 4,
                            concept_id=None,
                            label="NLP_TRUE" if rng.random() < 0.8 else "Not_ACEs",
                        )
                    )
            sweep = ThresholdSweep()
            # Labels as the run writes them, recall as the run sweeps it.
            write_label_files(*score_columns(scored), sweep, tmp_path)
            points = pr_sweep(scored, gold, sweep)
            previous_positive = None
            previous_recall = None
            for tau, point in zip(sweep.thresholds, points):
                path = tmp_path / label_file_name(tau)
                with path.open(encoding="utf-8", newline="") as handle:
                    positives = {
                        (row["doc_id"], int(row["start"]), int(row["end"]),
                         row["concept_id"])
                        for row in csv.DictReader(handle) if row["label"] == "true"
                    }
                assert not any(
                    s.mention.filtered
                    and (s.mention.doc_id, s.mention.start, s.mention.end,
                         s.mention.concept_id) in positives
                    for s in scored
                )
                if previous_positive is not None:
                    assert positives <= previous_positive
                    assert point.recall <= previous_recall + 1e-15
                previous_positive = positives
                previous_recall = point.recall


def _run_cli(args, cwd):
    # The child runs in ``cwd``, so a relative PYTHONPATH (such as the
    # Tier-1 command's ``src``) would not reach the package; prepend the
    # repo's own ``src`` as an absolute path.
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "conceptmine", *args],
        cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism"):
        config = str(DATA_DIR / "config.ini")
        runs = {
            "first": ["run", "--config", config, "--output", str(tmp_path / "first")],
            "second": ["run", "--config", config, "--output", str(tmp_path / "second")],
            "threaded": [
                "run", "--config", config, "--output", str(tmp_path / "threaded"),
                "--threads", "4",
            ],
        }
        stdouts = {}
        for name, args in runs.items():
            stdouts[name] = _run_cli(args, cwd=tmp_path).stdout
        assert stdouts["first"] == stdouts["second"] == stdouts["threaded"]
        first = _tree_bytes(tmp_path / "first")
        assert first == _tree_bytes(tmp_path / "second")
        assert first == _tree_bytes(tmp_path / "threaded")
        assert "mentions.jsonl" in first and "metrics.json" in first
