import re

import numpy as np
import pytest

from conceptmine.evaluate import write_gold
from conceptmine.ingest import load_corpus, save_corpus
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.ner import find_mentions
from conceptmine.pipeline import _digests
from conceptmine import synth
from conceptmine.synth import THEMES, SynthSpec, generate, main

from conftest import write_lexicon_csv

# ``[size, CRC-32]`` of the corpus and gold files ``generate`` makes for
# small specs. With few documents most theme concepts are never drawn, so
# these cover the ``post-fill-*`` documents: 37 of them at 0 docs, 26-31 at
# 3, none at 40 (nor in the bundled corpus).
SMALL_PINS = {
    (0, 0): ([11402, 1450818203], [13125, 3556782950]),
    (0, 1): ([11428, 14734681], [13199, 670407923]),
    (0, 2): ([11475, 437804365], [13212, 3801416192]),
    (3, 0): ([9242, 1457907836], [10787, 1555538844]),
    (3, 1): ([11190, 4178411164], [13267, 1913180630]),
    (3, 2): ([9632, 3455665069], [11070, 3936583143]),
    (40, 0): ([14983, 1755623143], [19173, 1697064104]),
    (40, 1): ([15319, 235658695], [19883, 4054781988]),
    (40, 2): ([14981, 2671149522], [19113, 2332400497]),
}


def test_generation_is_deterministic(data_dir):
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    a_corpus, a_gold = generate(lexicon, SynthSpec(n_docs=30, seed=4))
    b_corpus, b_gold = generate(lexicon, SynthSpec(n_docs=30, seed=4))
    assert a_corpus.docs == b_corpus.docs
    assert a_gold == b_gold


def test_bundled_files_match_regeneration(data_dir, tmp_path):
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    corpus, gold = generate(lexicon, SynthSpec())
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    write_gold(gold, tmp_path / "gold.jsonl")
    assert (tmp_path / "corpus.jsonl").read_bytes() == (
        data_dir / "corpus.jsonl"
    ).read_bytes()
    assert (tmp_path / "gold.jsonl").read_bytes() == (
        data_dir / "gold.jsonl"
    ).read_bytes()


@pytest.mark.parametrize(("n_docs", "seed"), sorted(SMALL_PINS))
def test_small_specs_keep_their_bytes(data_dir, tmp_path, n_docs, seed):
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    corpus, gold = generate(lexicon, SynthSpec(n_docs=n_docs, seed=seed))
    save_corpus(corpus, tmp_path / "corpus.jsonl")
    write_gold(gold, tmp_path / "gold.jsonl")
    digests = _digests(tmp_path, [tmp_path / "corpus.jsonl", tmp_path / "gold.jsonl"])
    assert (digests["corpus.jsonl"], digests["gold.jsonl"]) == SMALL_PINS[n_docs, seed]


def test_gold_spans_align_with_matcher_output(data_dir):
    from conceptmine.evaluate import load_gold

    lexicon = load_lexicon(data_dir / "lexicon.csv")
    corpus = load_corpus(data_dir / "corpus.jsonl")
    gold = load_gold(data_dir / "gold.jsonl", corpus)
    vocab = build_vocabulary(
        lexicon, {cid for ids in THEMES.values() for cid in ids}
    )
    mention_spans = set()
    for doc in corpus.docs:
        for m in find_mentions(doc, vocab):
            mention_spans.add((m.doc_id, m.start, m.end))
    for g in gold:
        text = corpus.docs[corpus.index_of(g.doc_id)].text
        assert 0 <= g.start < g.end <= len(text)
        if g.label == "Manual_ACEs":
            # Paraphrases must stay invisible to the matcher.
            assert g.span() not in mention_spans
        else:
            assert g.span() in mention_spans, g


def test_corpus_shape_for_acceptance(data_dir):
    corpus = load_corpus(data_dir / "corpus.jsonl")
    assert len(corpus) >= 200
    assert any(doc.text == "" for doc in corpus.docs)
    themes = {doc.meta.get("theme") for doc in corpus.docs}
    assert len(themes) >= 6


def test_planted_structure_is_observable(data_dir):
    # Every theme concept occurs unfiltered somewhere in the corpus.
    from conceptmine.config import DEFAULT_NEGATION_CUES
    from conceptmine.ner import FilterRules, find_corpus_mentions

    lexicon = load_lexicon(data_dir / "lexicon.csv")
    corpus = load_corpus(data_dir / "corpus.jsonl")
    vocab = build_vocabulary(
        lexicon, {cid for ids in THEMES.values() for cid in ids}
    )
    rules = FilterRules(negation_cues=DEFAULT_NEGATION_CUES, negation_window=3)
    mentions = find_corpus_mentions(corpus, vocab, rules)
    observed = {m.concept_id for m in mentions if not m.filtered}
    planted = {cid for ids in THEMES.values() for cid in ids}
    assert planted <= observed
    assert len(observed) >= 30


@pytest.mark.parametrize(("name", "value", "message"), [
    ("TEMPLATES", ("{term} and depression.",), "template 'thing and depression.'"),
    ("FILLERS", ("some depression today.",), "filler 'some depression today.'"),
    ("PARAPHRASES", {"C3100011": ("mild depression",)},
     "paraphrase 'she wrote mild depression in the post.'"),
])
def test_fixture_text_holding_a_term_is_error(data_dir, monkeypatch, name, value, message):
    monkeypatch.setattr(synth, name, value)
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    reason = f"{message} contains vocabulary term 'depression'"
    with pytest.raises(ValueError, match=f"^{re.escape(reason)}$"):
        generate(lexicon, SynthSpec(n_docs=1))


@pytest.mark.parametrize("option", [["--docs", "-5"], ["--seed", "-1"]])
def test_negative_docs_or_seed_is_a_usage_error(data_dir, tmp_path, capsys, option):
    args = ["--lexicon", str(data_dir / "lexicon.csv"), "--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exit_info:
        main(args + option)
    assert exit_info.value.code == 2
    assert "--docs and --seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(args + ["--docs", "0"]) == 0
    assert "wrote 42 documents" in capsys.readouterr().out


@pytest.mark.parametrize(("lexicon_rows", "message"), [
    (None, "No such file or directory"),
    (["C1,child abuse,true,,"], "selected ids not in lexicon: "),
])
def test_an_unusable_lexicon_prints_one_error_line(tmp_path, capsys, lexicon_rows, message):
    lexicon = tmp_path / "lexicon.csv"
    if lexicon_rows is not None:
        write_lexicon_csv(lexicon, lexicon_rows)
    assert main(["--lexicon", str(lexicon), "--output", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert captured.out == ""
    assert not (tmp_path / "out").exists()
