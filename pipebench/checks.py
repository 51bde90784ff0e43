"""Output checks computed apart from the program.

Every expected value here is recomputed from the inputs and the artifact
files with plain json, csv, set arithmetic and dense numpy; nothing is
imported from ``conceptmine``. ``check_outputs`` returns one entry per
check: ``None`` when it passed, otherwise the reason it failed.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

SCORE_TOLERANCE = 1e-9
FLOAT_TOLERANCE = 1e-12
GOLD_TRUE = ("NLP_TRUE", "Manual_ACEs")
SPACES = ("raw", "encoded")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(a: float, b: float, tol: float = FLOAT_TOLERANCE) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _read_triplets(path: Path) -> tuple[tuple[int, int], dict[tuple[int, int], int]]:
    with path.open(encoding="utf-8") as handle:
        rows, cols, nnz = (int(x) for x in handle.readline().split())
        entries = {}
        for line in handle:
            r, c, v = (int(x) for x in line.split())
            entries[(r, c)] = v
    _require(len(entries) == nnz, f"{path.name}: header says {nnz} entries, file has {len(entries)}")
    return (rows, cols), entries


def _ids(path: Path) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines() if line]


def _settings(config_path: Path) -> dict:
    parser = configparser.ConfigParser()
    parser.read(config_path, encoding="utf-8")
    raw = parser.get("selflabel", "thresholds", fallback=None)
    thresholds = (
        [float(x) for x in raw.split(",") if x.strip()]
        if raw
        else [i / 20 for i in range(21)]
    )
    return {
        "normalized": parser.get("matrix", "normalized", fallback="true").strip().lower()
        in ("true", "1", "yes", "on"),
        "thresholds": thresholds,
        "seed": int(parser.get("run", "seed", fallback="7")),
    }


def _span(record: dict) -> tuple[str, int, int]:
    return (record["doc_id"], record["start"], record["end"])


def _mention_key(record: dict) -> tuple:
    return tuple(record[k] for k in ("doc_id", "concept_id", "start", "end", "surface", "filtered", "filter_reason"))


class Run:
    """The inputs and artifacts of one run, parsed once."""

    def __init__(self, inputs: Path, out: Path):
        self.out = out
        self.settings = _settings(inputs / "config.ini")
        self.texts = {d["id"]: d["text"] for d in read_jsonl(inputs / "corpus.jsonl")}
        self.gold = read_jsonl(inputs / "gold.jsonl")
        self.mentions = read_jsonl(out / "mentions.jsonl")
        self.metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        kept = [m for m in self.mentions if not m["filtered"]]
        self.doc_ids = sorted(self.texts)
        self.concept_ids = sorted({m["concept_id"] for m in kept})
        doc_index = {d: i for i, d in enumerate(self.doc_ids)}
        concept_index = {c: j for j, c in enumerate(self.concept_ids)}
        self.X = np.zeros((len(self.doc_ids), len(self.concept_ids)), dtype=np.int64)
        for m in kept:
            self.X[doc_index[m["doc_id"]], concept_index[m["concept_id"]]] += 1
        self.doc_index = doc_index
        self.concept_index = concept_index
        binary = (self.X > 0).astype(np.int64)
        self.C = binary.T @ binary

    def embeddings(self, space: str) -> np.ndarray:
        E = self.C.astype(np.float64)
        if self.settings["normalized"]:
            norms = np.sqrt((E * E).sum(axis=1, keepdims=True))
            E = np.where(norms > 0, E / np.where(norms > 0, norms, 1.0), E)
        if space == "raw":
            return E
        model = json.loads((self.out / "autoencoder.json").read_text(encoding="utf-8"))
        Z = E @ np.asarray(model["w_enc"]).T + np.asarray(model["b_enc"])
        return _activate(Z, model["activation"])


def _activate(Z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "identity":
        return Z
    if activation == "sigmoid":
        return 1.0 / (1.0 + np.exp(-Z))
    raise CheckFailed(f"unknown activation {activation!r}")


# -- generator gold ---------------------------------------------------------


def check_gold_found(run: Run) -> None:
    unfiltered = {(*_span(m), m["concept_id"]) for m in run.mentions if not m["filtered"]}
    for g in run.gold:
        if g["label"] == "NLP_TRUE":
            _require((*_span(g), g["concept_id"]) in unfiltered, f"NLP_TRUE span {g} is not an unfiltered mention")


def check_gold_manual_unmatched(run: Run) -> None:
    by_doc: dict[str, list[tuple[int, int]]] = {}
    for m in run.mentions:
        by_doc.setdefault(m["doc_id"], []).append((m["start"], m["end"]))
    for g in run.gold:
        if g["label"] == "Manual_ACEs":
            for start, end in by_doc.get(g["doc_id"], ()):
                _require(end <= g["start"] or start >= g["end"], f"Manual_ACEs span {g} overlaps a mention")


def check_mention_spans(run: Run) -> None:
    gold_spans = {_span(g) for g in run.gold if g["label"] != "Manual_ACEs"}
    for m in run.mentions:
        _require(_span(m) in gold_spans, f"mention {m} is not on a gold span")
        text = run.texts[m["doc_id"]]
        _require(text[m["start"] : m["end"]] == m["surface"], f"mention {m} surface differs from the text")


def check_filtered_not_aces(run: Run) -> None:
    rejected = {_span(g) for g in run.gold if g["label"] == "Not_ACEs"}
    for m in run.mentions:
        if m["filtered"]:
            _require(_span(m) in rejected, f"filtered mention {m} is not on a Not_ACEs span")


# -- matrices and baseline --------------------------------------------------


def check_doc_concept_counts(run: Run) -> None:
    _require(_ids(run.out / "doc_order.txt") == run.doc_ids, "doc_order.txt differs from the sorted corpus ids")
    _require(_ids(run.out / "concept_order.txt") == run.concept_ids, "concept_order.txt differs from the unfiltered concepts")
    shape, entries = _read_triplets(run.out / "doc_concept_matrix.txt")
    expected = {(int(r), int(c)): int(run.X[r, c]) for r, c in zip(*np.nonzero(run.X))}
    _require(shape == run.X.shape, f"doc-concept shape {shape}, expected {run.X.shape}")
    _require(entries == expected, "doc-concept counts differ from the counts of unfiltered mentions")


def check_cooc(run: Run) -> None:
    shape, entries = _read_triplets(run.out / "cooc_matrix.txt")
    expected = {(int(r), int(c)): int(run.C[r, c]) for r, c in zip(*np.nonzero(run.C))}
    _require(shape == run.C.shape, f"cooc shape {shape}, expected {run.C.shape}")
    _require(entries == expected, "co-occurrence counts differ from B^T B")


def _true_spans(gold: list[dict]) -> list[tuple[str, int, int]]:
    return [_span(g) for g in gold if g["label"] in GOLD_TRUE]


def _confusion(positive_spans: set, true_spans: list) -> tuple[int, int, int]:
    """Exact-span tp, fp, fn; tp and fn count gold annotations, fp distinct spans."""
    tp = sum(1 for span in true_spans if span in positive_spans)
    return tp, len(positive_spans - set(true_spans)), len(true_spans) - tp


def _precision_recall(tp: int, fp: int, fn: int) -> tuple[float, float]:
    return (tp / (tp + fp) if tp + fp else 0.0, tp / (tp + fn) if tp + fn else 0.0)


def check_baseline(run: Run) -> None:
    tp, fp, fn = _confusion({_span(m) for m in run.mentions if not m["filtered"]}, _true_spans(run.gold))
    precision, recall = _precision_recall(tp, fp, fn)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    base = run.metrics["baseline"]
    _require((base["tp"], base["fp"], base["fn"]) == (tp, fp, fn), f"baseline counts {base}, expected tp={tp} fp={fp} fn={fn}")
    for name, value in (("precision", precision), ("recall", recall), ("f1", f1)):
        _require(_close(base[name], value), f"baseline {name} {base[name]}, expected {value}")
    n_true = sum(1 for g in run.gold if g["label"] in GOLD_TRUE)
    expected_gold = {"total": len(run.gold), "true": n_true, "not_aces": len(run.gold) - n_true}
    _require(run.metrics["gold"] == expected_gold, f"gold counts {run.metrics['gold']}, expected {expected_gold}")


# -- scores, labels, PR curves ----------------------------------------------


def expected_scores(run: Run, space: str) -> np.ndarray:
    """Leave-one-out context cosine for every mention, in mentions.jsonl order."""
    E = run.embeddings(space)
    scores = np.zeros(len(run.mentions))
    rows = [
        (i, run.doc_index[m["doc_id"]], run.concept_index[m["concept_id"]])
        for i, m in enumerate(run.mentions)
        if m["concept_id"] in run.concept_index
    ]
    if not rows:
        return scores
    which, docs, concepts = (np.array(col) for col in zip(*rows))
    weights = run.X[docs].astype(np.float64)
    weights[np.arange(len(rows)), concepts] = 0.0
    context = weights @ E
    own = E[concepts]
    norms = np.linalg.norm(own, axis=1) * np.linalg.norm(context, axis=1)
    dots = (own * context).sum(axis=1)
    scores[which] = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
    return scores


def _check_scores(run: Run, space: str) -> None:
    scored = read_jsonl(run.out / f"scored_{space}.jsonl")
    _require(
        [_mention_key(s) for s in scored] == [_mention_key(m) for m in run.mentions],
        f"scored_{space}.jsonl does not hold exactly the mentions of mentions.jsonl",
    )
    got = np.array([s["score"] for s in scored], dtype=np.float64)
    _require(bool(np.all((got >= -1.0) & (got <= 1.0))), f"scored_{space}: a score lies outside [-1, 1]")
    diff = np.abs(got - expected_scores(run, space))
    worst = int(np.argmax(diff)) if len(diff) else 0
    _require(
        not len(diff) or diff[worst] <= SCORE_TOLERANCE,
        f"scored_{space}: {scored[worst]} is off by {diff[worst] if len(diff) else 0:.3g}",
    )


def _check_labels(run: Run, space: str) -> None:
    scored = read_jsonl(run.out / f"scored_{space}.jsonl")
    expected_rows = [[s["doc_id"], str(s["start"]), str(s["end"]), s["concept_id"], repr(s["score"])] for s in scored]
    directory = run.out / f"labels_{space}"
    names = {f"threshold_{tau:g}.csv" for tau in run.settings["thresholds"]}
    _require({p.name for p in directory.iterdir()} == names, f"labels_{space}/ does not hold one file per threshold")
    for tau in run.settings["thresholds"]:
        path = directory / f"threshold_{tau:g}.csv"
        with path.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        _require(rows[:1] == [["doc_id", "start", "end", "concept_id", "score", "label"]], f"{path.name}: bad header")
        _require([r[:5] for r in rows[1:]] == expected_rows, f"labels_{space}/{path.name}: rows differ from scored_{space}.jsonl")
        for row, s in zip(rows[1:], scored):
            want = "true" if (not s["filtered"] and s["score"] >= tau) else "false"
            _require(row[5] == want, f"labels_{space}/{path.name}: {row} should be labelled {want}")


def expected_pr_points(scored: list[dict], gold: list[dict], thresholds: list[float]) -> list[tuple[float, float, float]]:
    candidates = [(s["score"], _span(s)) for s in scored if not s["filtered"]]
    true_spans = _true_spans(gold)
    points = []
    for tau in thresholds:
        positive = {span for score, span in candidates if score >= tau}
        points.append((tau, *_precision_recall(*_confusion(positive, true_spans))))
    return points


def trapezoid_auc(points: list[tuple[float, float, float]]) -> float:
    """Area under precision over recall; precisions sharing a recall are
    averaged first."""
    by_recall: dict[float, list[float]] = {}
    for _, precision, recall in points:
        by_recall.setdefault(recall, []).append(precision)
    xs = sorted(by_recall)
    ys = [sum(by_recall[x]) / len(by_recall[x]) for x in xs]
    return sum((x2 - x1) * (y1 + y2) / 2.0 for x1, x2, y1, y2 in zip(xs, xs[1:], ys, ys[1:]))


def _check_pr(run: Run, space: str) -> None:
    scored = read_jsonl(run.out / f"scored_{space}.jsonl")
    expected = expected_pr_points(scored, run.gold, run.settings["thresholds"])
    with (run.out / f"pr_{space}.csv").open(encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    got = [(float(r["threshold"]), float(r["precision"]), float(r["recall"])) for r in rows]
    _require(len(got) == len(expected), f"pr_{space}.csv has {len(got)} points, expected {len(expected)}")
    for g, e in zip(got, expected):
        _require(g[0] == e[0] and _close(g[1], e[1]) and _close(g[2], e[2]), f"pr_{space}.csv point {g}, expected {e}")
    recalls = [p[2] for p in got]
    _require(all(b <= a for a, b in zip(recalls, recalls[1:])), f"pr_{space}.csv: recall rises with the threshold")
    auc = trapezoid_auc(expected)
    reported = run.metrics["selflabel"][space]["pr_auc"]
    _require(_close(reported, auc), f"{space} PR-AUC {reported}, expected {auc}")
    summary = json.loads((run.out / "auc_summary.json").read_text(encoding="utf-8"))
    _require(_close(summary[space], auc), f"auc_summary {space} {summary[space]}, expected {auc}")


def check_auc_gap(run: Run) -> None:
    s = run.metrics["selflabel"]
    _require(_close(s["auc_gap"], abs(s["raw"]["pr_auc"] - s["encoded"]["pr_auc"])), "auc_gap is not |raw - encoded|")


def check_training(run: Run) -> None:
    report = json.loads((run.out / "train_report.json").read_text(encoding="utf-8"))
    model = json.loads((run.out / "autoencoder.json").read_text(encoding="utf-8"))
    data = run.embeddings("raw")
    m, k = model["input_dim"], model["encoded_dim"]
    _require(data.shape == (m, m), f"model input_dim {m} does not match {data.shape[0]} concepts")

    def loss(w_enc, b_enc, w_dec, b_dec) -> float:
        recon = _activate(data @ w_enc.T + b_enc, model["activation"]) @ w_dec.T + b_dec
        return float(np.mean((recon - data) ** 2))

    # The documented initialisation: seeded uniform(-s, s), s = sqrt(6/(m+k)), zero biases.
    rng = np.random.default_rng(run.settings["seed"])
    scale = math.sqrt(6.0 / (m + k))
    w_enc0 = rng.uniform(-scale, scale, size=(k, m))
    w_dec0 = rng.uniform(-scale, scale, size=(m, k))
    initial = loss(w_enc0, np.zeros(k), w_dec0, np.zeros(m))
    final = report["final_loss"]
    trained = loss(*(np.asarray(model[key]) for key in ("w_enc", "b_enc", "w_dec", "b_dec")))
    _require(math.isfinite(final) and math.isfinite(trained), f"final loss {final} / trained loss {trained} not finite")
    _require(final < initial and trained < initial, f"final loss {final} (trained {trained}) not below the initial {initial}")


CHECKS: dict[str, Callable[[Run], None]] = {
    "gold.nlp_true_found": check_gold_found,
    "gold.manual_unmatched": check_gold_manual_unmatched,
    "mentions.on_gold_spans": check_mention_spans,
    "mentions.filtered_on_not_aces": check_filtered_not_aces,
    "matrix.doc_concept_counts": check_doc_concept_counts,
    "matrix.cooc": check_cooc,
    "eval.baseline": check_baseline,
    **{f"score.{s}": (lambda run, s=s: _check_scores(run, s)) for s in SPACES},
    **{f"labels.{s}": (lambda run, s=s: _check_labels(run, s)) for s in SPACES},
    **{f"pr.{s}": (lambda run, s=s: _check_pr(run, s)) for s in SPACES},
    "pr.auc_gap": check_auc_gap,
    "autoencoder.loss": check_training,
}


def check_outputs(inputs: Path, out: Path) -> dict[str, str | None]:
    """Run every check on the artifacts in ``out`` made from ``inputs``."""
    try:
        run = Run(inputs, out)
    except (OSError, ValueError, KeyError) as exc:
        return {name: f"artifacts unreadable: {exc!r}" for name in CHECKS}
    results: dict[str, str | None] = {}
    for name, check in CHECKS.items():
        try:
            check(run)
            results[name] = None
        except CheckFailed as exc:
            results[name] = str(exc)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            results[name] = f"{type(exc).__name__}: {exc}"
    return results
