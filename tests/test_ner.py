from dataclasses import fields, replace

import numpy as np
import pytest

from conceptmine.ingest import Document
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.ner import (
    FilterRules,
    Mention,
    apply_filter_rules,
    find_mentions,
    mention_from_record,
    mention_record,
    read_mentions,
    write_mentions,
)
from conceptmine.tokenize import Token, fold_term_tokens, tokenize

from conftest import write_lexicon_csv


class TestTokenize:
    def test_offsets_by_inspection(self):
        assert tokenize("self harm.") == [
            Token("self", 0, 4),
            Token("harm", 5, 9),
        ]

    def test_empty_text(self):
        assert tokenize("") == []

    def test_punctuation_split(self):
        assert tokenize("BPD/anxiety") == [
            Token("BPD", 0, 3),
            Token("anxiety", 4, 11),
        ]

    def test_apostrophes_stay_inside_tokens(self):
        assert [t.text for t in tokenize("they won't help")] == [
            "they", "won't", "help",
        ]

    def test_offsets_slice_back_to_text(self):
        text = "I know that NOT having BPD is bad, right?"
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text


NESTED_ROWS = [
    "C01,mental disorder,true,,g",
    "C02,severe mental disorder,true,,g",
    "C03,disorder,true,,g",
    "C04,mood swings,true,,g",
    "C05,mood,true,,g",
    "C06,self harm,true,,g",
    "C07,harm,true,,g",
    "C08,anxiety,true,,g",
    "C09,panic,false,,g\nC09,panic attack,true,,g",
    "C10,anxiety,false,,g\nC10,general anxiety,true,,g",
]


@pytest.fixture()
def nested_vocab(tmp_path):
    lexicon = load_lexicon(write_lexicon_csv(tmp_path / "nested.csv", NESTED_ROWS))
    return lexicon, build_vocabulary(lexicon, set(lexicon.concept_ids()))


def brute_force_mentions(text, term_concepts):
    """Independent matcher: test every token span against the term set,
    then resolve by (longer span, earlier start)."""
    tokens = tokenize(text)
    patterns = {}
    for term, cids in term_concepts.items():
        patterns.setdefault(fold_term_tokens(term), set()).update(cids)
    candidates = []
    for i in range(len(tokens)):
        for j in range(i + 1, len(tokens) + 1):
            key = tuple(t.text.lower() for t in tokens[i:j])
            if key in patterns:
                candidates.append(
                    (tokens[i].start, tokens[j - 1].end, patterns[key])
                )
    chosen = []
    for start, end, cids in sorted(
        candidates, key=lambda c: (-(c[1] - c[0]), c[0])
    ):
        if all(end <= s or start >= e for s, e, _ in chosen):
            chosen.append((start, end, cids))
    return sorted(
        (start, end, cid) for start, end, cids in chosen for cid in cids
    )


class TestFindMentions:
    def test_single_term(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        mentions = find_mentions(Document(doc_id="d", text="anxiety"), vocab)
        assert [(m.start, m.end, m.concept_id, m.surface) for m in mentions] == [
            (0, 7, "C1", "anxiety")
        ]

    def test_longest_match_suppresses_nested_terms(self, nested_vocab):
        _, vocab = nested_vocab
        doc = Document(
            doc_id="d", text="A severe mental disorder with mood swings."
        )
        mentions = find_mentions(doc, vocab)
        got = [(m.surface, m.concept_id) for m in mentions]
        assert got == [
            ("severe mental disorder", "C02"),
            ("mood swings", "C04"),
        ]

    def test_match_across_punctuation_gap(self, nested_vocab):
        _, vocab = nested_vocab
        doc = Document(doc_id="d", text="risk of self-harm here")
        mentions = find_mentions(doc, vocab)
        assert [(m.surface, m.concept_id) for m in mentions] == [
            ("self-harm", "C06")
        ]

    def test_no_substring_hits_inside_words(self, nested_vocab):
        _, vocab = nested_vocab
        doc = Document(doc_id="d", text="the pharmacy was disordered")
        assert find_mentions(doc, vocab) == []

    def test_unicode_terms_match_case_insensitively(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "uni.csv", ["C1,dépression,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="une Dépression sévère")
        mentions = find_mentions(doc, vocab)
        assert [(m.start, m.end, m.surface) for m in mentions] == [
            (4, 14, "Dépression")
        ]

    def test_shared_term_produces_two_mentions(self, nested_vocab):
        _, vocab = nested_vocab
        doc = Document(doc_id="d", text="my anxiety spiked")
        mentions = find_mentions(doc, vocab)
        assert [(m.concept_id, m.start, m.end) for m in mentions] == [
            ("C08", 3, 10),
            ("C10", 3, 10),
        ]

    def test_equal_length_overlap_earlier_start_wins(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(
                tmp_path / "tie.csv",
                ["C1,alpha beta,true,,g", "C2,beta gamma,true,,g"],
            )
        )
        vocab = build_vocabulary(lexicon, {"C1", "C2"})
        doc = Document(doc_id="d", text="alpha beta gamma")
        mentions = find_mentions(doc, vocab)
        assert [(m.surface, m.concept_id) for m in mentions] == [
            ("alpha beta", "C1")
        ]

    def test_matches_equal_brute_force_on_random_texts(self, nested_vocab):
        lexicon, vocab = nested_vocab
        term_concepts = {
            term: set(cids) for term, cids in lexicon.term_index.items()
        }
        rng = np.random.default_rng(5)
        words = list(term_concepts) + [
            "the", "a", "with", "about", "feeling", "today", "x1",
        ]
        separators = [" ", " ", " ", ", ", ". ", "/", " - ", "\n"]
        for trial in range(300):
            n_words = int(rng.integers(0, 18))
            pieces = []
            for _ in range(n_words):
                pieces.append(words[int(rng.integers(len(words)))])
                pieces.append(separators[int(rng.integers(len(separators)))])
            text = "".join(pieces)
            doc = Document(doc_id="d", text=text)
            got = [(m.start, m.end, m.concept_id) for m in find_mentions(doc, vocab)]
            assert got == brute_force_mentions(text, term_concepts), text

    def test_matches_equal_brute_force_on_random_vocabularies(self, tmp_path):
        """Vocabularies over a five-word alphabet, so terms repeat tokens,
        share first tokens and nest in each other. The fixed vocabulary
        pins repeated-token terms and a first token ("b") whose longest
        term is longer than every other term starting with it."""
        alphabet = ["a", "b", "c", "d", "e"]
        fixed = [
            "F1,a a,true,,g",
            "F2,a a a,true,,g",
            "F3,b,true,,g",
            "F4,b c,true,,g",
            "F5,b c d e a,true,,g",
            "F6,c,true,,g",
        ]
        separators = [" ", " ", ", ", ". ", "/", "\n"]
        rng = np.random.default_rng(29)
        for trial in range(80):
            rows = fixed
            if trial:
                terms = [
                    " ".join(rng.choice(alphabet, size=int(rng.integers(1, 5))))
                    for _ in range(int(rng.integers(1, 9)))
                ]
                rows = [f"R{k},{term},true,,g" for k, term in enumerate(terms)]
            lexicon = load_lexicon(
                write_lexicon_csv(tmp_path / f"vocab{trial}.csv", rows)
            )
            vocab = build_vocabulary(lexicon, set(lexicon.concept_ids()))
            term_concepts = {
                term: set(cids) for term, cids in lexicon.term_index.items()
            }
            words = list(term_concepts) + alphabet + ["z"]
            for _ in range(10):
                pieces = []
                for _ in range(int(rng.integers(0, 16))):
                    pieces.append(words[int(rng.integers(len(words)))])
                    pieces.append(separators[int(rng.integers(len(separators)))])
                text = "".join(pieces)
                doc = Document(doc_id="d", text=text)
                got = [
                    (m.start, m.end, m.concept_id) for m in find_mentions(doc, vocab)
                ]
                assert got == brute_force_mentions(text, term_concepts), (rows, text)

    def test_surfaces_round_trip_and_spans_disjoint(self, nested_vocab):
        _, vocab = nested_vocab
        text = "mood swings, then self harm; general anxiety / panic attack."
        doc = Document(doc_id="d", text=text)
        mentions = find_mentions(doc, vocab)
        assert mentions
        spans = []
        for m in mentions:
            assert text[m.start : m.end] == m.surface
            spans.append((m.start, m.end, m.concept_id))
        assert spans == sorted(spans)
        distinct = sorted({(s, e) for s, e, _ in spans})
        for (s1, e1), (s2, e2) in zip(distinct, distinct[1:]):
            assert e1 <= s2

class TestFilterRules:
    def test_negation_within_window(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="I do not have anxiety")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(negation_cues=("no", "not"), negation_window=3)
        filtered = apply_filter_rules(mentions, doc, rules)
        assert filtered[0].filtered is True
        assert filtered[0].filter_reason == "negation:not"

    def test_cue_outside_window_passes(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="not that it matters much, anxiety hit")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(negation_cues=("not",), negation_window=3)
        assert apply_filter_rules(mentions, doc, rules)[0].filtered is False

    def test_empty_rules_identity(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="no anxiety")
        mentions = find_mentions(doc, vocab)
        out = apply_filter_rules(mentions, doc, FilterRules())
        assert out == mentions
        assert all(not m.filtered for m in out)

    def test_sentence_bound_blocks_cue(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="no friends. anxiety hit me")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(negation_cues=("no",), negation_window=5)
        assert apply_filter_rules(mentions, doc, rules)[0].filtered is False

    def test_newline_bounds_sentence(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="never mind\nanxiety again")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(negation_cues=("never",), negation_window=5)
        assert apply_filter_rules(mentions, doc, rules)[0].filtered is False

    def test_stop_surface(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,sad,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="feeling Sad today")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(stop_surfaces=frozenset({"sad"}))
        out = apply_filter_rules(mentions, doc, rules)
        assert out[0].filtered is True
        assert out[0].filter_reason == "stoplist"

    def test_multi_token_cue(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="there is no sign of anxiety")
        mentions = find_mentions(doc, vocab)
        rules = FilterRules(negation_cues=("no sign of",), negation_window=3)
        out = apply_filter_rules(mentions, doc, rules)
        assert out[0].filtered is True
        assert out[0].filter_reason == "negation:no sign of"

    def test_filters_only_touch_flags(self, tmp_path):
        lexicon = load_lexicon(
            write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"])
        )
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="not anxiety, then anxiety again")
        mentions = find_mentions(doc, vocab)
        out = apply_filter_rules(
            mentions, doc, FilterRules(negation_cues=("not",), negation_window=2)
        )
        assert len(out) == len(mentions)
        for before, after in zip(mentions, out):
            assert (before.start, before.end, before.concept_id, before.surface) == (
                after.start, after.end, after.concept_id, after.surface
            )
        assert [m.filtered for m in out] == [True, False]


def test_mentions_jsonl_round_trip(tmp_path, nested_vocab):
    _, vocab = nested_vocab
    doc = Document(doc_id="d", text="self harm and mood swings")
    mentions = find_mentions(doc, vocab)
    mentions = apply_filter_rules(
        mentions, doc, FilterRules(stop_surfaces=frozenset({"mood swings"}))
    )
    path = tmp_path / "mentions.jsonl"
    write_mentions(mentions, path)
    assert read_mentions(path) == sorted(mentions, key=lambda m: m.sort_key())


def test_mention_record_keys_are_the_mention_fields():
    names = [f.name for f in fields(Mention)]
    plain = Mention("d", "C1", 0, 4, "self")
    flagged = replace(plain, filtered=True, filter_reason="stoplist")
    for m in (plain, flagged):
        assert list(mention_record(m)) == names
        assert mention_from_record({**mention_record(m), "score": 0.5}) == m
