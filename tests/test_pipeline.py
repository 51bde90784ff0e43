import json

import pytest

from conceptmine.cli import main
from conceptmine.config import load_config
from conceptmine.pipeline import (
    SELECTED_CONCEPTS,
    STAGES,
    PipelineError,
    run_pipeline,
    select_concepts,
    stage_of,
)
from conceptmine.lexicon import load_lexicon

from conftest import DATA_DIR, write_lexicon_csv


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


def test_cached_matrix_must_fit_its_id_files(tmp_path, capsys):
    corpus = [
        {"id": "a", "text": "child abuse and child neglect at home."},
        {"id": "b", "text": "bullying and child neglect."},
    ]
    config_path = write_inputs(tmp_path, corpus, [])
    config = load_config(config_path)
    run_pipeline(config, upto="matrix")
    doc_order_path = config.output_dir / "doc_order.txt"
    doc_order = doc_order_path.read_text(encoding="utf-8").splitlines(keepends=True)
    doc_order_path.write_text("".join(doc_order[:-1]), encoding="utf-8")
    with pytest.raises(PipelineError, match=r"stage matrix: counts shape \(2, 3\)"):
        run_pipeline(config, upto="score")
    assert main(["run", "--config", str(config_path), "--stage", "score"]) == 1
    assert "stage matrix" in capsys.readouterr().err


TINY_CORPUS = [
    {"id": "a", "text": "child abuse and child neglect at home."},
    {"id": "b", "text": "child abuse again, then emotional neglect."},
    {"id": "c", "text": "bullying and child neglect."},
]
TINY_AE = "[autoencoder]\nencoded_dim = 2\nepochs = 5\n"


def test_cached_artifacts_must_fit_the_corpus(tmp_path, capsys):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    config = load_config(config_path)
    run_pipeline(config)
    # Same ids, other texts: every cached mention's surface is stale.
    shifted = [{"id": d["id"], "text": "so " + d["text"]} for d in TINY_CORPUS]
    write_inputs(tmp_path, shifted, [], TINY_AE)
    with pytest.raises(PipelineError, match=r"stage ner: cached mention 'child abuse' at a:0-11"):
        run_pipeline(config, upto="eval")
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 1
    assert "rerun without --stage" in capsys.readouterr().err

    run_pipeline(config)
    # One more document: the cached mentions still fit, the matrix rows do not.
    write_inputs(tmp_path, shifted + [{"id": "d", "text": "bullying"}], [], TINY_AE)
    with pytest.raises(PipelineError, match="stage matrix: cached doc_order.txt"):
        run_pipeline(config, upto="eval")
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 1
    assert "stage matrix" in capsys.readouterr().err


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
    names = {p.name for p in config.output_dir.iterdir()} - {SELECTED_CONCEPTS}
    assert {name: stage_of(name) for name in names if stage_of(name) not in STAGES} == {}


def test_cached_model_must_fit_the_config(tmp_path, capsys):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    run_pipeline(load_config(config_path))
    other = load_config(config_path, {"encoded_dim": 1})
    with pytest.raises(PipelineError, match=r"stage autoencoder: cached autoencoder.json"):
        run_pipeline(other, upto="eval")
    argv = ["run", "--config", str(config_path), "--stage", "eval"]
    assert main([*argv, "--encoded-dim", "1"]) == 1
    assert "rerun without --stage" in capsys.readouterr().err
    assert main(argv) == 0


def test_unknown_expand_group_fails(tmp_path, capsys):
    config_path = write_inputs(
        tmp_path, TINY_CORPUS, [], "[lexicon]\nexpand_groups = mental_disorders\n"
    )
    message = "stage run: expand group 'mental_disorders' names no concept"
    with pytest.raises(PipelineError, match=message):
        run_pipeline(load_config(config_path))
    assert main(["run", "--config", str(config_path)]) == 1
    assert message in capsys.readouterr().err


def test_cached_scores_must_hold_the_cached_mentions(tmp_path, capsys):
    config_path = write_inputs(tmp_path, TINY_CORPUS, [], TINY_AE)
    config = load_config(config_path)
    run_pipeline(config)
    scored_path = config.output_dir / "scored_raw.jsonl"
    lines = scored_path.read_text(encoding="utf-8").splitlines(keepends=True)
    # Cut at a line boundary: every line parses, one mention is missing.
    scored_path.write_text("".join(lines[:-1]), encoding="utf-8")
    message = (
        "stage score: cached scored_raw.jsonl does not hold the mentions of "
        "mentions.jsonl; rerun without --stage"
    )
    with pytest.raises(PipelineError, match=message):
        run_pipeline(config, upto="eval")
    assert main(["run", "--config", str(config_path), "--stage", "eval"]) == 1
    assert message in capsys.readouterr().err

    # Cut partway through the last line: the reader names the file and line.
    scored_path.write_text("".join(lines)[:-20], encoding="utf-8")
    with pytest.raises(
        PipelineError, match=f"stage score: .*scored_raw.jsonl: line {len(lines)}: invalid JSON"
    ):
        run_pipeline(config, upto="eval")


NEGATED_CORPUS = [
    {"id": "a", "text": "no child abuse, but child neglect at home."},
    {"id": "b", "text": "child abuse again, then emotional neglect."},
    {"id": "c", "text": "bullying and child neglect."},
]


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
