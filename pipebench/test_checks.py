"""The output checks reject corrupted artifacts.

    python3 -m pytest -q pipebench/test_checks.py

Runs the bundled workload once (seed 2024), confirms every check passes
on its artifacts, then corrupts one artifact per case and confirms the
check that owns it fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checks import CHECKS, check_outputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory) -> tuple[Path, Path]:
    base = tmp_path_factory.mktemp("bundled")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    inputs, out = base / "inputs", base / "out"
    subprocess.run([sys.executable, str(HERE / "make_inputs.py"), "--workload", "bundled",
                    "--seed", "2024", "--out", str(inputs)], check=True, env=env)
    subprocess.run([sys.executable, "-m", "conceptmine", "run", "--config", str(inputs / "config.ini"),
                    "--output", str(out)], check=True, env=env, stdout=subprocess.DEVNULL)
    return inputs, out


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def _edit_jsonl(path: Path, pick, change) -> None:
    lines = _lines(path)
    for i, line in enumerate(lines):
        record = json.loads(line)
        if pick(record):
            change(record)
            lines[i] = json.dumps(record) + "\n"
            break
    else:
        raise AssertionError(f"no record to corrupt in {path.name}")
    path.write_text("".join(lines), encoding="utf-8")


def flip_label(inputs: Path, out: Path) -> None:
    path = out / "labels_raw" / "threshold_0.5.csv"
    lines = _lines(path)
    row = lines[1].rstrip("\n")
    head, label = row.rsplit(",", 1)
    lines[1] = f"{head},{'false' if label == 'true' else 'true'}\n"
    path.write_text("".join(lines), encoding="utf-8")


def nudge_score(inputs: Path, out: Path) -> None:
    def change(record):
        record["score"] += 1e-6

    _edit_jsonl(out / "scored_encoded.jsonl", lambda r: 0.1 < r["score"] < 0.9, change)


def drop_mention(inputs: Path, out: Path) -> None:
    path = out / "mentions.jsonl"
    lines = _lines(path)
    victim = next(i for i, line in enumerate(lines) if not json.loads(line)["filtered"])
    path.write_text("".join(lines[:victim] + lines[victim + 1 :]), encoding="utf-8")


def wrong_pr_point(inputs: Path, out: Path) -> None:
    path = out / "pr_raw.csv"
    lines = _lines(path)
    threshold, precision, recall = lines[5].rstrip("\n").split(",")
    lines[5] = f"{threshold},{precision},{float(recall) + 0.01!r}\n"
    path.write_text("".join(lines), encoding="utf-8")


def filter_true_mention(inputs: Path, out: Path) -> None:
    def change(record):
        record["filtered"], record["filter_reason"] = True, "negation:no"

    _edit_jsonl(out / "mentions.jsonl", lambda r: not r["filtered"], change)


def shift_surface(inputs: Path, out: Path) -> None:
    def change(record):
        record["surface"] = record["surface"].upper()

    _edit_jsonl(out / "mentions.jsonl", lambda r: r["surface"] != r["surface"].upper(), change)


def bump_count(out: Path, name: str) -> None:
    path = out / name
    lines = _lines(path)
    row, col, value = lines[1].split()
    lines[1] = f"{row} {col} {int(value) + 1}\n"
    path.write_text("".join(lines), encoding="utf-8")


def edit_metrics(out: Path, change) -> None:
    path = out / "metrics.json"
    metrics = json.loads(path.read_text(encoding="utf-8"))
    change(metrics)
    path.write_text(json.dumps(metrics), encoding="utf-8")


def mention_on_manual_span(inputs: Path, out: Path) -> None:
    gold = next(json.loads(line) for line in _lines(inputs / "gold.jsonl") if '"Manual_ACEs"' in line)
    text = next(json.loads(line)["text"] for line in _lines(inputs / "corpus.jsonl") if json.loads(line)["id"] == gold["doc_id"])
    record = {
        "doc_id": gold["doc_id"], "concept_id": gold["concept_id"], "start": gold["start"], "end": gold["end"],
        "surface": text[gold["start"] : gold["end"]], "filtered": False, "filter_reason": None,
    }
    with (out / "mentions.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def diverge_loss(inputs: Path, out: Path) -> None:
    path = out / "train_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["final_loss"] = 1e9
    path.write_text(json.dumps(report), encoding="utf-8")


CORRUPTIONS = {
    "labels.raw": flip_label,
    "score.encoded": nudge_score,
    "gold.nlp_true_found": drop_mention,
    "score.raw": drop_mention,
    "pr.raw": wrong_pr_point,
    "mentions.filtered_on_not_aces": filter_true_mention,
    "mentions.on_gold_spans": shift_surface,
    "gold.manual_unmatched": mention_on_manual_span,
    "matrix.doc_concept_counts": lambda inputs, out: bump_count(out, "doc_concept_matrix.txt"),
    "matrix.cooc": lambda inputs, out: bump_count(out, "cooc_matrix.txt"),
    "eval.baseline": lambda inputs, out: edit_metrics(out, lambda m: m["baseline"].update(tp=m["baseline"]["tp"] - 1)),
    "pr.auc_gap": lambda inputs, out: edit_metrics(out, lambda m: m["selflabel"].update(auc_gap=0.5)),
    "autoencoder.loss": diverge_loss,
}


def test_clean_run_passes_every_check(clean_run):
    inputs, out = clean_run
    assert check_outputs(inputs, out) == {name: None for name in CHECKS}


@pytest.mark.parametrize("check", sorted(CORRUPTIONS))
def test_corruption_is_rejected(clean_run, tmp_path, check):
    inputs, out = clean_run
    corrupted = tmp_path / "out"
    shutil.copytree(out, corrupted)
    CORRUPTIONS[check](inputs, corrupted)
    assert check_outputs(inputs, corrupted)[check] is not None
