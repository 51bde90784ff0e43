import numpy as np

from conceptmine.evaluate import write_gold
from conceptmine.ingest import load_corpus, save_corpus
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.ner import find_mentions
from conceptmine.synth import THEMES, SynthSpec, generate


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
