import ast
import csv
import json
import os
import shutil
import subprocess
import sys
import zlib
from dataclasses import fields

import pytest

from conceptmine import autoencoder as ae
from conceptmine import evaluate as ev
from conceptmine import matrix
from conceptmine.cli import main
from conceptmine.config import PipelineConfig, load_config
from conceptmine.pipeline import (
    FINGERPRINT,
    SELECTED_CONCEPTS,
    STAGES,
    PipelineError,
    run_pipeline,
    select_concepts,
    stage_of,
)
from conceptmine.ingest import read_id_file
from conceptmine.lexicon import load_lexicon
from conceptmine.ner import read_mentions

from conftest import DATA_DIR, REPO_ROOT, write_lexicon_csv


def write_inputs(root, corpus_lines, gold_lines, extra_config=""):
    (root / "lexicon.csv").write_bytes((DATA_DIR / "lexicon.csv").read_bytes())
    (root / "corpus.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in corpus_lines), encoding="utf-8"
    )
    (root / "gold.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in gold_lines), encoding="utf-8"
    )
    (root / "config.ini").write_text(
        "[paths]\n"
        "lexicon = lexicon.csv\ncorpus = corpus.jsonl\ngold = gold.jsonl\n"
        "output = out\n" + extra_config,
        encoding="utf-8",
    )
    return root / "config.ini"


def tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def assert_stage_eval_is_fresh(config_path, *flags):
    """``--stage eval`` on the config's output tree exits 0 and leaves the
    tree a fresh run of the same setup writes."""
    argv = ["run", "--config", str(config_path), *flags]
    assert main([*argv, "--stage", "eval"]) == 0
    fresh = config_path.parent / "fresh"
    shutil.rmtree(fresh, ignore_errors=True)
    assert main([*argv, "--output", str(fresh)]) == 0
    assert tree(config_path.parent / "out") == tree(fresh)


def _fail_training(*args, **kwargs):
    raise RuntimeError("training failed")


def _digest_line(out):
    """The second line of the output tree's stamp, parsed."""
    return json.loads((out / FINGERPRINT).read_text(encoding="utf-8").splitlines()[1])


def _drop_last_line(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _cut_to_100_bytes(path):
    data = path.read_bytes()
    assert len(data) > 100
    path.write_bytes(data[:100])


def test_select_concepts_is_leaves_plus_group_closure(tmp_path):
    path = write_lexicon_csv(
        tmp_path / "lex.csv",
        [
            "R1,root one,true,,keep",
            "R2,root two,true,,other",
            "A1,kid one,true,R1,",
            "A2,kid two,true,A1,",
            "B1,other kid,true,R2,",
        ],
    )
    lexicon = load_lexicon(path)
    selected = select_concepts(lexicon, ("keep",))
    # Leaves are A2 and B1; the "keep" group closure adds R1, A1, A2.
    assert selected == {"A2", "B1", "R1", "A1"}


def test_degenerate_corpus_fails_at_autoencoder_stage(tmp_path):
    config_path = write_inputs(
        tmp_path,
        [{"id": "a", "text": "nothing matchable here"}],
        [],
    )
    config = load_config(config_path)
    # Prefix stages run fine and write an empty matrix.
    result = run_pipeline(config, upto="matrix")
    assert result.m_concepts == 0
    doc_matrix = config.output_dir / "doc_concept_matrix.txt"
    header = doc_matrix.read_text(encoding="utf-8").splitlines()[0]
    assert header == "1 0 0"
    with pytest.raises(PipelineError, match="stage autoencoder"):
        run_pipeline(config)


def test_single_concept_corpus_fails_with_clear_message(tmp_path):
    config_path = write_inputs(
        tmp_path,
        [{"id": "a", "text": "bullying all day"}, {"id": "b", "text": "bullying"}],
        [],
    )
    config = load_config(config_path)
    with pytest.raises(PipelineError, match="at least 2 observed concepts"):
        run_pipeline(config)


def test_tiny_end_to_end_run_result(tmp_path):
    corpus = [
        {"id": "a", "text": "child abuse and child neglect at home."},
        {"id": "b", "text": "child abuse again, then emotional neglect."},
        {"id": "c", "text": "bullying and child neglect."},
        {"id": "d", "text": ""},
    ]
    gold = [
        {"doc_id": "a", "start": 0, "end": 11, "label": "NLP_TRUE"},
        {"doc_id": "a", "start": 16, "end": 29, "label": "NLP_TRUE"},
    ]
    config_path = write_inputs(
        tmp_path, corpus, gold,
        extra_config=(
            "[autoencoder]\nencoded_dim = 2\nepochs = 20\nlearning_rate = 0.05\n"
        ),
    )
    config = load_config(config_path)
    result = run_pipeline(config)
    assert result.n_docs == 4
    assert result.m_concepts == 4
    assert result.encoded_dim == 2
    assert result.auc_raw is not None
    assert result.auc_gap is not None
    metrics = json.loads((config.output_dir / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["gold"]["true"] == 2
    assert metrics["baseline"]["tp"] == 2


def test_rerun_with_fewer_thresholds_leaves_no_stale_label_files(tmp_path):
    corpus = [
        {"id": "a", "text": "child abuse and child neglect at home."},
        {"id": "b", "text": "child abuse again, then emotional neglect."},
        {"id": "c", "text": "bullying and child neglect."},
    ]
    ae_section = "[autoencoder]\nencoded_dim = 2\nepochs = 5\n"
    run_pipeline(load_config(write_inputs(tmp_path, corpus, [], ae_section)))
    config = load_config(
        write_inputs(
            tmp_path, corpus, [], ae_section + "[selflabel]\nthresholds = 0.33, 0.66\n"
        )
    )
    run_pipeline(config)
    for space in ("raw", "encoded"):
        labels_dir = config.output_dir / f"labels_{space}"
        assert sorted(p.name for p in labels_dir.iterdir()) == [
            "threshold_0.33.csv", "threshold_0.66.csv",
        ]


def test_artifact_stage_mapping():
    assert stage_of("mentions.jsonl") == "ner"
    assert stage_of("cooc_matrix.txt") == "matrix"
    assert stage_of("autoencoder.json") == "autoencoder"
    assert stage_of("scored_raw.jsonl") == "score"
    assert stage_of("metrics.json") == "eval"


def test_cached_matrix_must_fit_its_id_files(tmp_path):
    corpus = [
        {"id": "a", "text": "child abuse and child neglect at home."},
        {"id": "b", "text": "bullying and child neglect."},
    ]
    config_path = write_inputs(tmp_path, corpus, [])
    config = load_config(config_path)
    run_pipeline(config, upto="matrix")
    # One id short of the matrix rows: the stamp no longer vouches for it.
    _drop_last_line(config.output_dir / "doc_order.txt")
    assert_stage_eval_is_fresh(config_path)


TINY_CORPUS = [
    {"id": "a", "text": "child abuse and child neglect at home."},
    {"id": "b", "text": "child abuse again, then emotional neglect."},
    {"id": "c", "text": "bullying and child neglect."},
]
TINY_AE = "[autoencoder]\nencoded_dim = 2\nepochs = 5\n"


def test_cached_artifacts_must_fit_the_corpus(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    config = load_config(config_path)
    run_pipeline(config)
    # Same ids, other texts: every cached mention's surface is stale.
    shifted = [{"id": d["id"], "text": "so " + d["text"]} for d in TINY_CORPUS]
    write_inputs(tmp_path, shifted, [], TINY_AE)
    assert_stage_eval_is_fresh(config_path)

    run_pipeline(config)
    # One more document: the cached mentions still fit, the matrix rows do not.
    write_inputs(tmp_path, shifted + [{"id": "d", "text": "bullying"}], [], TINY_AE)
    assert_stage_eval_is_fresh(config_path)


@pytest.mark.parametrize(
    "name, stage", [("mentions.jsonl", "ner"), ("autoencoder.json", "autoencoder")]
)
def test_unwritable_artifact_names_its_stage(tmp_path, capsys, name, stage):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main(["run", "--config", str(config_path)]) == 1
    assert f"error: stage {stage}: " in capsys.readouterr().err


def test_every_output_file_belongs_to_a_stage(tmp_path):
    config = load_config(write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE))
    run_pipeline(config)
    names = {p.name for p in config.output_dir.iterdir()} - {SELECTED_CONCEPTS, FINGERPRINT}
    assert {name: stage_of(name) for name in names if stage_of(name) not in STAGES} == {}
    assert stage_of(FINGERPRINT) == "run"


def test_cached_model_must_fit_the_config(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    run_pipeline(load_config(config_path))
    assert_stage_eval_is_fresh(config_path, "--encoded-dim", "1")
    assert_stage_eval_is_fresh(config_path)


def test_unknown_expand_group_fails(tmp_path, capsys):
    config_path = write_inputs(
        tmp_path, TINY_CORPUS, [], "[lexicon]\nexpand_groups = mental_disorders\n"
    )
    message = "stage run: expand group 'mental_disorders' names no concept"
    with pytest.raises(PipelineError, match=message):
        run_pipeline(load_config(config_path))
    assert main(["run", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err


def test_cached_scores_must_hold_the_cached_mentions(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    config = load_config(config_path)
    run_pipeline(config)
    scored_path = config.output_dir / "scored_raw.jsonl"
    lines = scored_path.read_text(encoding="utf-8").splitlines(keepends=True)
    # Cut at a line boundary: every line parses, one mention is missing.
    scored_path.write_text("".join(lines[:-1]), encoding="utf-8")
    assert_stage_eval_is_fresh(config_path)
    # Cut partway through the last line: no line past the cut is read.
    scored_path.write_text("".join(lines)[:-20], encoding="utf-8")
    assert_stage_eval_is_fresh(config_path)


NEGATED_CORPUS = [
    {"id": "a", "text": "no child abuse, but child neglect at home."},
    {"id": "b", "text": "child abuse again, then emotional neglect."},
    {"id": "c", "text": "bullying and child neglect."},
]


def test_doc_ids_keep_every_line_break_but_the_newline(tmp_path):
    # str.splitlines would also split these ids in doc_order.txt.
    breaks = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    corpus = [
        {"id": f"{doc['id']}{c}x", "text": doc["text"]}
        for doc in NEGATED_CORPUS for c in breaks
    ]
    config_path = write_inputs(tmp_path, corpus, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    assert read_id_file(tmp_path / "out" / "doc_order.txt") == tuple(
        sorted(doc["id"] for doc in corpus)
    )
    assert_stage_eval_is_fresh(config_path)


def test_a_recomputed_stage_recomputes_every_later_stage(tmp_path):
    run_pipeline(load_config(write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE)))
    # A new [ner] setting, and no cached mentions: NER is recomputed, so
    # the cached matrix, model and scores must not be reused.
    other = write_inputs(
        tmp_path, NEGATED_CORPUS, [], TINY_AE + "[ner]\nnegation_window = 0\n"
    )
    (tmp_path / "out" / "mentions.jsonl").unlink()
    rerun = run_pipeline(load_config(other), upto="eval")
    fresh = run_pipeline(load_config(other, {"output": str(tmp_path / "fresh")}))
    assert rerun == fresh
    assert rerun.n_unfiltered == rerun.n_mentions
    for path in sorted((tmp_path / "fresh").rglob("*.*")):
        cached = tmp_path / "out" / path.relative_to(tmp_path / "fresh")
        assert cached.read_bytes() == path.read_bytes(), path.name


def test_a_stage_run_drops_every_later_stages_artifacts(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    run_pipeline(load_config(config_path))
    out = tmp_path / "out"
    later = [p.name for p in out.iterdir() if stage_of(p.name) in ("score", "eval")]
    assert len(later) == 8
    # A new seed retrains the model; the scores and PR curves of the old
    # seed must not survive to be read by the next --stage run.
    reseeded = load_config(config_path, {"seed": 3})
    run_pipeline(reseeded, upto="autoencoder")
    assert [name for name in later if (out / name).exists()] == []
    rerun = run_pipeline(reseeded, upto="eval")
    fresh = run_pipeline(load_config(config_path, {"seed": 3, "output": str(tmp_path / "fresh")}))
    assert rerun == fresh
    for path in sorted((tmp_path / "fresh").rglob("*.*")):
        cached = out / path.relative_to(tmp_path / "fresh")
        assert cached.read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("stage", STAGES)
def test_a_stage_rerun_leaves_what_a_fresh_stage_run_leaves(tmp_path, capsys, stage):
    # Each stage reads back the cached stages it consumes, and only those:
    # --stage score still needs the matrix and the model, --stage
    # autoencoder the matrix.
    gold = [{"doc_id": "a", "start": 0, "end": 11, "label": "NLP_TRUE"}]
    config_path = write_inputs(tmp_path, TINY_CORPUS, gold, TINY_AE)
    argv = ["run", "--config", str(config_path), "--stage", stage]
    assert main(["run", "--config", str(config_path)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    rerun = capsys.readouterr().out
    assert main([*argv, "--output", str(tmp_path / "fresh")]) == 0
    assert rerun == capsys.readouterr().out
    assert tree(tmp_path / "out") == tree(tmp_path / "fresh")


def _unreadable(*args, **kwargs):
    raise RuntimeError("parsed an array file")


def test_a_cached_eval_rerun_parses_no_matrix_and_no_model(tmp_path, monkeypatch, capsys):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    argv = ["run", "--config", str(config_path)]
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    monkeypatch.setattr(matrix, "read_sparse_counts", _unreadable)
    monkeypatch.setattr(ae, "load_model", _unreadable)
    assert main([*argv, "--stage", "eval"]) == 0
    rerun = capsys.readouterr().out
    for prefix in ("observed concepts", "encoded dim"):
        [line] = [line for line in rerun.splitlines() if line.startswith(prefix)]
        assert line in fresh.splitlines()
    # With the mentions cut, NER is recomputed and so is every later stage:
    # nothing is parsed back.
    _drop_last_line(tmp_path / "out" / "mentions.jsonl")
    assert_stage_eval_is_fresh(config_path)
    # A stage that computes from the matrix or the model still parses it.
    for stage in ("autoencoder", "score"):
        assert main(argv) == 0
        assert main([*argv, "--stage", stage]) == 1
        assert "parsed an array file" in capsys.readouterr().err


def test_cached_label_files_must_be_the_sweeps(tmp_path):
    run_pipeline(load_config(write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)))
    config_path = write_inputs(
        tmp_path, TINY_CORPUS, [], TINY_AE + "[selflabel]\nthresholds = 0.25, 0.5, 0.75\n"
    )
    assert_stage_eval_is_fresh(config_path)
    names = ["threshold_0.25.csv", "threshold_0.5.csv", "threshold_0.75.csv"]
    for space in ("raw", "encoded"):
        assert sorted(p.name for p in (tmp_path / "out" / f"labels_{space}").iterdir()) == names
    assert len((tmp_path / "out" / "pr_raw.csv").read_text(encoding="utf-8").splitlines()) == 4


def test_cached_label_files_must_all_be_there(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    run_pipeline(load_config(config_path))
    labels = tmp_path / "out" / "labels_raw"
    kept = (labels / "threshold_0.5.csv").read_bytes()
    (labels / "threshold_0.5.csv").unlink()
    assert_stage_eval_is_fresh(config_path)
    (labels / "threshold_0.33.csv").write_bytes(kept)
    assert_stage_eval_is_fresh(config_path)
    assert not (labels / "threshold_0.33.csv").exists()


# One damaged cached file each: (file, damage). Every read-back stage has one.
DAMAGED_FILES = {
    "mentions": ("mentions.jsonl", _drop_last_line),
    "doc_order": ("doc_order.txt", _drop_last_line),
    "autoencoder": ("autoencoder.json", _cut_to_100_bytes),
    "scored": ("scored_raw.jsonl", _drop_last_line),
    "label_cut": ("labels_raw/threshold_0.5.csv", _cut_to_100_bytes),
    "label_deleted": ("labels_raw/threshold_0.5.csv", lambda path: path.unlink()),
    "label_extra": (
        "labels_raw/threshold_0.5.csv",
        lambda path: shutil.copy(path, path.with_name("threshold_0.33.csv")),
    ),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_FILES))
def test_a_damaged_cached_file_is_recomputed(tmp_path, damage):
    name, damage_file = DAMAGED_FILES[damage]
    config_path = write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    damage_file(tmp_path / "out" / name)
    assert_stage_eval_is_fresh(config_path)


@pytest.mark.parametrize(
    "digest_line", ["", '{"mentions.jsonl": [1', "[]\n"], ids=["none", "cut", "not_an_object"]
)
def test_an_old_or_garbled_stamp_recomputes(tmp_path, monkeypatch, digest_line):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    stamp = tmp_path / "out" / FINGERPRINT
    settings = stamp.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    stamp.write_text(settings + digest_line, encoding="utf-8")
    trained, train = [], ae.train
    monkeypatch.setattr(ae, "train", lambda *args: trained.append(args) or train(*args))
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 0
    assert len(trained) == 1
    assert_stage_eval_is_fresh(config_path)


def test_the_stamp_names_every_file_a_stage_reads_back(tmp_path):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path)]) == 0
    # eval, the last stage, is the one whose files are never read back.
    read_back = {
        name: [len(data), zlib.crc32(data)]
        for name, data in tree(out).items()
        if stage_of(name.split("/")[0]) in STAGES[:-1]
    }
    assert {stage_of(name.split("/")[0]) for name in read_back} == set(STAGES[:-1])
    assert _digest_line(out) == read_back
    assert main(["run", "--config", str(config_path), "--stage", "ner"]) == 0
    assert _digest_line(out) == {"mentions.jsonl": read_back["mentions.jsonl"]}


# One changed input or setting each: (file, text in it, replacement, flags).
CHANGED_SETUPS = {
    "epochs": (None, None, None, ["--epochs", "1"]),
    "learning_rate": (None, None, None, ["--learning-rate", "0.2"]),
    "seed": (None, None, None, ["--seed", "3"]),
    "batch_size": ("config.ini", "epochs = 5\n", "epochs = 5\nbatch_size = 2\n", []),
    "normalized": (None, None, None, ["--no-normalized"]),
    "negation_window": (
        "config.ini", "output = out\n", "output = out\n[ner]\nnegation_window = 0\n", []
    ),
    "stop_surfaces": (
        "config.ini", "output = out\n", "output = out\n[ner]\nstop_surfaces = bullying\n", []
    ),
    "expand_groups": (
        "config.ini", "output = out\n", "output = out\n[lexicon]\nexpand_groups = ACE\n", []
    ),
    "lexicon_synonym": (
        "lexicon.csv",
        "C3000021,child neglect,true,C3000020,ACE\n",
        "C3000021,child neglect,true,C3000020,ACE\nC3000021,home,false,C3000020,ACE\n",
        [],
    ),
    # Text added after the last mention: every cached offset still fits.
    "corpus_edit": (
        "corpus.jsonl",
        'bullying and child neglect."',
        'bullying and child neglect, then child abuse."',
        [],
    ),
}


@pytest.mark.parametrize("change", sorted(CHANGED_SETUPS))
def test_a_changed_input_or_setting_recomputes(tmp_path, change):
    name, old, new, flags = CHANGED_SETUPS[change]
    corpus = NEGATED_CORPUS + [{"id": "d", "text": "years of neglect, then bullying."}]
    config_path = write_inputs(tmp_path, corpus, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    if name is not None:
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.count(old) == 1
        (tmp_path / name).write_text(text.replace(old, new), encoding="utf-8")
    assert_stage_eval_is_fresh(config_path, *flags)


def test_fingerprint_holds_every_setting_the_outputs_depend_on(tmp_path, monkeypatch):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    argv = ["run", "--config", str(config_path), "--stage", "ner"]
    assert main(argv) == 0
    stamp = (tmp_path / "out" / FINGERPRINT).read_bytes()
    settings = stamp.splitlines()[0]
    unused = {"output_dir", "gold_path", "threads"}
    assert set(json.loads(settings)) == {f.name for f in fields(PipelineConfig)} - unused
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--threads", "4"]) == 0
    assert main([*argv, "--output", "relative"]) == 0
    assert (tmp_path / "out" / FINGERPRINT).read_bytes() == stamp
    assert (tmp_path / "relative" / FINGERPRINT).read_bytes() == stamp


def test_a_failed_stage_leaves_no_fingerprint(tmp_path, monkeypatch, capsys):
    config_path = write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    # NER and the matrix are rewritten under the new setting; the model
    # and scores on disk are still the old setting's.
    write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE + "[ner]\nnegation_window = 0\n")
    with monkeypatch.context() as patch:
        patch.setattr(ae, "train", _fail_training)
        assert main(["run", "--config", str(config_path)]) == 1
    assert "stage autoencoder: training failed" in capsys.readouterr().err
    # The stamp vouches for the stages this run finished, not for the old model.
    assert {stage_of(name) for name in _digest_line(tmp_path / "out")} == {"ner", "matrix"}
    write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE)
    assert_stage_eval_is_fresh(config_path)


def test_a_fixed_gold_file_reuses_every_stage(tmp_path, monkeypatch, capsys):
    unknown_doc = [{"doc_id": "z", "start": 0, "end": 4, "label": "NLP_TRUE"}]
    config_path = write_inputs(tmp_path, TINY_CORPUS, unknown_doc, TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 1
    assert "error: stage eval: " in capsys.readouterr().err
    gold = [{"doc_id": "a", "start": 0, "end": 11, "label": "NLP_TRUE"}]
    write_inputs(tmp_path, TINY_CORPUS, gold, TINY_AE)
    # A failed eval wrote nothing a later stage reads: nothing is retrained.
    monkeypatch.setattr(ae, "train", _fail_training)
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 0
    assert (tmp_path / "out" / "auc_summary.json").is_file()


def test_a_cached_rerun_holds_one_object_per_mention(tmp_path, monkeypatch):
    config_path = write_inputs(tmp_path, NEGATED_CORPUS, [], TINY_AE)
    assert main(["run", "--config", str(config_path)]) == 0
    seen = []
    real = ev.evaluate_mentions

    def spy(mentions, scores, *args):
        seen.append((mentions, scores))
        return real(mentions, scores, *args)

    monkeypatch.setattr(ev, "evaluate_mentions", spy)
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 0
    # Each mention is one object; each space adds only a float per mention.
    [(mentions, scores)] = seen
    assert sorted(scores) == ["encoded", "raw"]
    for column in scores.values():
        assert len(column) == len(mentions) > 0
        assert all(type(score) is float for score in column)


# "child abuse" names two concepts, whose ids sort apart from their numbers;
# "neglect" lies inside "child neglect".
SHARED_TERM_LEXICON = [
    "C9,child abuse,true,,",
    "C10,child abuse,true,,",
    "C2,child neglect,true,,",
    "C3,neglect,true,,",
    "C4,bullying,true,,",
]
# Out of doc_id order, with ids the label files must quote.
UNORDERED_CORPUS = [
    {"id": "b,2", "text": "no bullying, just child neglect and child abuse."},
    {"id": "a10", "text": "child abuse and child neglect, then neglect."},
    {"id": 'a"1', "text": "neglect, bullying and child abuse again."},
    {"id": "a2", "text": "child neglect"},
    {"id": "c 3", "text": "bullying and neglect."},
]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_every_per_mention_file_holds_the_mentions_in_one_order(tmp_path, threads):
    config_path = write_inputs(
        tmp_path, UNORDERED_CORPUS, [],
        TINY_AE + "[lexicon]\nexpand_groups =\n[selflabel]\nthresholds = 0, 0.5, 1\n",
    )
    write_lexicon_csv(tmp_path / "lexicon.csv", SHARED_TERM_LEXICON)
    out = tmp_path / "out"
    for stage in ([], ["--stage", "score"], ["--stage", "eval"]):
        assert main(["run", "--config", str(config_path), "--threads", threads, *stage]) == 0
        mentions = read_mentions(out / "mentions.jsonl")
        order = [(m.doc_id, m.start, m.concept_id) for m in mentions]
        assert order == sorted(set(order))
        assert ("a10", 0, "C10") in order and ("a10", 0, "C9") in order
        rows = [(m.doc_id, m.start, m.end, m.concept_id) for m in mentions]
        for space in ("raw", "encoded"):
            lines = (out / f"scored_{space}.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            assert [(r["doc_id"], r["start"], r["end"], r["concept_id"]) for r in records] == rows
            for tau in ("0", "0.5", "1"):
                path = out / f"labels_{space}" / f"threshold_{tau}.csv"
                with path.open(encoding="utf-8", newline="") as handle:
                    data = list(csv.reader(handle))[1:]
                assert [(d, int(s), int(e), c) for d, s, e, c, _, _ in data] == rows


def _traced_artifacts():
    """``TRACED_ARTIFACTS`` of the benchmark's ``run.py``, read without
    importing it."""
    tree = ast.parse((REPO_ROOT / "pipebench" / "run.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TRACED_ARTIFACTS"]
    )


def test_benchmark_trace_writes_what_the_pipeline_writes(tmp_path):
    # pipebench/run.py --trace 1 calls the layers itself and requires its
    # files to equal the pipeline's; a pipeline change must keep that true.
    # "bullying" is only ever negated here, so its concept has no matrix
    # column and its mention takes the zero-score path.
    corpus = [
        {"id": "a", "text": "child abuse and child neglect, then emotional neglect."},
        {"id": "b", "text": "child abuse again, then emotional neglect."},
        {"id": "c", "text": "no bullying, just child neglect and child abuse."},
    ]
    gold = [
        {"doc_id": "b", "start": 0, "end": 11, "label": "NLP_TRUE"},
        {"doc_id": "a", "start": 16, "end": 29, "label": "Not_ACEs"},
    ]
    config_path = write_inputs(tmp_path, corpus, gold, TINY_AE)
    config = load_config(config_path)
    run_pipeline(config)
    columns = set(read_id_file(config.output_dir / "concept_order.txt"))
    mentions = read_mentions(config.output_dir / "mentions.jsonl")
    assert [m.surface for m in mentions if m.concept_id not in columns] == ["bullying"]
    summary = json.loads((config.output_dir / "auc_summary.json").read_text(encoding="utf-8"))
    traced = tmp_path / "traced"
    tracer = [
        sys.executable, str(REPO_ROOT / "pipebench" / "trace_pipeline.py"),
        "--config", str(config_path), "--output", str(traced),
    ]
    pythonpath = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    for argv in (tracer, [*tracer, "--stage", "eval"]):
        proc = subprocess.run(
            argv, cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        assert proc.returncode == 0, proc.stderr
        auc = json.loads(proc.stdout.splitlines()[-1])["auc"]
        assert auc == {space: summary[space] for space in ("raw", "encoded")}
        for name in _traced_artifacts():
            assert (traced / name).read_bytes() == (config.output_dir / name).read_bytes(), name
