import json

import pytest

from conceptmine.cli import main
from conceptmine.config import load_config
from conceptmine.pipeline import (
    Artifacts,
    PipelineError,
    run_pipeline,
    select_concepts,
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
    art = Artifacts(config.output_dir)
    header = art.doc_matrix.read_text(encoding="utf-8").splitlines()[0]
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
    art = Artifacts(config.output_dir)
    metrics = json.loads(art.metrics.read_text(encoding="utf-8"))
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
    art = Artifacts(config.output_dir)
    for space in ("raw", "encoded"):
        assert sorted(p.name for p in art.labels_dir(space).iterdir()) == [
            "threshold_0.33.csv", "threshold_0.66.csv",
        ]


def test_artifact_stage_mapping(tmp_path):
    art = Artifacts(tmp_path)
    assert art.stage_of(art.mentions) == "ner"
    assert art.stage_of(art.cooc_matrix) == "matrix"
    assert art.stage_of(art.model) == "autoencoder"
    assert art.stage_of(art.scored("raw")) == "score"
    assert art.stage_of(art.metrics) == "eval"


def test_cached_matrix_must_fit_its_id_files(tmp_path, capsys):
    corpus = [
        {"id": "a", "text": "child abuse and child neglect at home."},
        {"id": "b", "text": "bullying and child neglect."},
    ]
    config_path = write_inputs(tmp_path, corpus, [])
    config = load_config(config_path)
    run_pipeline(config, upto="matrix")
    art = Artifacts(config.output_dir)
    doc_order = art.doc_order.read_text(encoding="utf-8").splitlines(keepends=True)
    art.doc_order.write_text("".join(doc_order[:-1]), encoding="utf-8")
    with pytest.raises(PipelineError, match=r"stage matrix: counts shape \(2, 3\)"):
        run_pipeline(config, upto="score")
    assert main(["run", "--config", str(config_path), "--stage", "score"]) == 1
    assert "stage matrix" in capsys.readouterr().err
