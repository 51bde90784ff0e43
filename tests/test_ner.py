import json
import math
import os
import re
import signal
from bisect import bisect_left, bisect_right
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptmine import ner
from conceptmine.config import DEFAULT_NEGATION_CUES
from conceptmine.ingest import Corpus, Document
from conceptmine.lexicon import build_vocabulary, load_lexicon
from conceptmine.ner import (
    MENTION_KEYS,
    FilterRules,
    Mention,
    apply_filter_rules,
    find_corpus_mentions,
    find_mentions,
    mention_from_record,
    mention_line,
    read_mentions,
    write_mentions,
)
from conceptmine.synth import FILLERS, THEMES, SynthSpec, generate
from conceptmine.tokenize import Token, fold_term_tokens, fold_tokens, token_offsets, tokenize

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

    def test_token_columns_equal_the_finditer_form_on_random_unicode(self):
        rng = np.random.default_rng(3)
        # ASCII and other letters and digits, the underscore and apostrophes
        # on the token boundary, a combining mark, letters whose lower case
        # is longer, punctuation, spaces and an emoji.
        alphabet = list("aZ09_'\u2019 .,-\n\t") + list("éßİΣж٣十\u0301ﬁ—🙂")
        texts = [""] + [
            "".join(rng.choice(alphabet, size=int(rng.integers(1, 40))))
            for _ in range(2000)
        ]
        for text in texts:
            got = (*token_offsets(text), fold_tokens(text))
            assert got == reference_token_columns(text), repr(text)


def reference_token_columns(text):
    """The tokenizer's former form: one regex branch per character, read
    back match by match."""
    matches = list(re.finditer(r"(?:[^\W_]|')+", text))
    return (
        [m.start() for m in matches],
        [m.end() for m in matches],
        [m.group().lower() for m in matches],
    )


# Texts over all 128 ASCII code points, weighted towards the token
# characters and the separators that are easiest to get wrong: the
# underscore is a word character but no token one, and \x1c-\x1f are
# whitespace to str.split but not to the regex.
ASCII_TEXTS = st.text(
    st.sampled_from("aZ09'_\x00\x0b\x0c\x1c\x1d\x1e\x1f\r\n ")
    | st.characters(max_codepoint=127),
    max_size=40,
)
UNICODE_TEXTS = st.text(st.sampled_from("aZ09_'\u2019 .\n\x1céßİΣж٣十\u0301ﬁ—🙂"), max_size=20)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ASCII_TEXTS)
def test_ascii_fold_equals_the_regex_form(text):
    assert fold_tokens(text) == reference_token_columns(text)[2]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ASCII_TEXTS | UNICODE_TEXTS)
def test_offset_prefixes_equal_the_regex_form(text):
    starts, ends, _ = reference_token_columns(text)
    for k in range(len(starts) + 2):
        assert token_offsets(text, k) == (starts[:k], ends[:k])
    for endpos in range(len(text) + 1):
        assert token_offsets(text, endpos=endpos) == reference_token_columns(text[:endpos])[:2]


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
    return lexicon, build_vocabulary(lexicon, {c.id for c in lexicon.concepts})


def brute_force_mentions(text, term_concepts):
    """Independent matcher: test every token span no longer than the
    longest term against the term set, then resolve by (longer span,
    earlier start)."""
    tokens = tokenize(text)
    patterns = {}
    for term, cids in term_concepts.items():
        patterns.setdefault(fold_term_tokens(term), set()).update(cids)
    longest = max(map(len, patterns), default=0)
    candidates = []
    for i in range(len(tokens)):
        for j in range(i + 1, min(i + longest, len(tokens)) + 1):
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
            vocab = build_vocabulary(lexicon, {c.id for c in lexicon.concepts})
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

def reference_resolve_overlaps(candidates):
    """The former overlap rule: each candidate, longest first, then
    earliest, is tested against every accepted span."""
    accepted = []
    for start, end, concepts in sorted(candidates, key=lambda c: (c[0] - c[1], c[0])):
        if all(end <= a_start or start >= a_end for a_start, a_end, _ in accepted):
            accepted.append((start, end, concepts))
    return sorted(accepted)


class TestResolveOverlaps:
    def test_equals_the_scan_over_all_accepted_spans(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            candidates = []
            for k in range(int(rng.integers(0, 25))):
                start = int(rng.integers(0, 40))
                end = start + int(rng.integers(1, 8))
                candidates.append((start, end, (f"C{k}",)))
            assert ner._resolve_overlaps(candidates) == reference_resolve_overlaps(
                candidates
            ), candidates

    def test_many_disjoint_candidates_all_survive(self):
        # One document holding a one-token term 20k times: each candidate
        # is tested against its two neighbours, not every accepted span.
        candidates = [(6 * i, 6 * i + 5, ("C1",)) for i in range(20_000)]
        assert ner._resolve_overlaps(candidates[::-1]) == candidates


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


def brute_force_negation(mention, text, cues, window):
    """Independent negation rule: at every token position of the window,
    in order, try every cue in config order as the run of tokens ending
    there; the window is the ``window`` tokens before the mention, none
    before the start of the mention's sentence."""
    tokens = tokenize(text)
    token_starts = [t.start for t in tokens]
    folded = [t.text.lower() for t in tokens]
    cue_tokens = [(cue, fold_term_tokens(cue)) for cue in cues]
    cue_tokens = [(cue, toks) for cue, toks in cue_tokens if toks]
    if not cue_tokens or window <= 0:
        return None
    sentence_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch in ".!?\n"]
    mention_tok = bisect_left(token_starts, mention.start)
    sentence_start = sentence_starts[bisect_right(sentence_starts, mention.start) - 1]
    window_lo = max(bisect_left(token_starts, sentence_start), mention_tok - window)
    for position in range(window_lo, mention_tok):
        for cue, toks in cue_tokens:
            lo = position - len(toks) + 1
            if lo >= window_lo and tuple(folded[lo : position + 1]) == toks:
                return f"negation:{cue}"
    return None


class TestNegationOracle:
    """The compiled cue lookup against :func:`brute_force_negation`."""

    TERMS = ["C1,anxiety,true,,g", "C2,panic attack,true,,g", "C3,sign,true,,g"]
    # Multi-token cues, cues sharing a first token, a cue that is a prefix
    # of another, and cues that differ only in case.
    FIXED_CUES = ("no", "no sign of", "NO SIGN of", "not", "not a", "sign of", "No")
    WORDS = ["anxiety", "panic", "attack", "panic attack", "sign", "of", "no",
             "No", "not", "a", "never", "x", "NO SIGN OF"]
    SEPARATORS = [" ", " ", " ", ", ", ". ", "! ", "? ", "\n", "/"]

    def _check(self, vocab, cues, text):
        doc = Document(doc_id="d", text=text)
        mentions = find_mentions(doc, vocab)
        for window in range(5):
            rules = FilterRules(negation_cues=cues, negation_window=window)
            got = apply_filter_rules(mentions, doc, rules)
            want = [brute_force_negation(m, text, cues, window) for m in mentions]
            assert [m.filter_reason for m in got] == want, (cues, window, text)
            assert [m.filtered for m in got] == [w is not None for w in want]
            corpus = find_corpus_mentions(Corpus((doc,)), vocab, rules)
            assert corpus == got

    def test_random_texts_and_cues(self, tmp_path):
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "neg.csv", self.TERMS))
        vocab = build_vocabulary(lexicon, {c.id for c in lexicon.concepts})
        cue_words = ["no", "not", "sign", "of", "a", "never", "No", "NOT"]
        rng = np.random.default_rng(11)
        for trial in range(120):
            cues = self.FIXED_CUES
            if trial:
                cues = tuple(
                    " ".join(rng.choice(cue_words, size=int(rng.integers(1, 4))))
                    for _ in range(int(rng.integers(1, 7)))
                )
            for _ in range(6):
                pieces = []
                for _ in range(int(rng.integers(0, 16))):
                    pieces.append(self.WORDS[int(rng.integers(len(self.WORDS)))])
                    pieces.append(self.SEPARATORS[int(rng.integers(len(self.SEPARATORS)))])
                self._check(vocab, cues, "".join(pieces))

    @pytest.mark.parametrize(
        "text, window, reason",
        [
            # The cue that ends first wins, even inside a longer cue.
            ("no sign of anxiety", 3, "negation:no"),
            ("NO sign of anxiety", 3, "negation:no"),
            ("a no sign of anxiety", 4, "negation:no"),
            # Cues that fold alike report the first one's text.
            ("no sign of anxiety", 2, "negation:Sign Of"),
            ("no. sign of anxiety", 4, "negation:Sign Of"),
            ("no sign! anxiety", 4, None),
            ("not\nanxiety", 4, None),
            ("not? a anxiety", 4, None),
            ("not a anxiety", 2, "negation:not a"),
            ("not a anxiety", 1, None),
            ("not anxiety", 0, None),
        ],
    )
    def test_cases_by_inspection(self, tmp_path, text, window, reason):
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "neg.csv", self.TERMS[:1]))
        vocab = build_vocabulary(lexicon, {"C1"})
        cues = ("NO SIGN of", "no sign of", "Sign Of", "sign of", "not a", "no")
        doc = Document(doc_id="d", text=text)
        rules = FilterRules(negation_cues=cues, negation_window=window)
        [mention] = apply_filter_rules(find_mentions(doc, vocab), doc, rules)
        assert mention.filter_reason == reason
        assert brute_force_negation(mention, text, cues, window) == reason

    def test_longer_cue_before_a_shorter_one_with_its_first_token(self, tmp_path):
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "neg.csv", self.TERMS[:1]))
        vocab = build_vocabulary(lexicon, {"C1"})
        doc = Document(doc_id="d", text="no sign of anxiety")
        rules = FilterRules(negation_cues=("no sign of", "no way"), negation_window=3)
        [mention] = apply_filter_rules(find_mentions(doc, vocab), doc, rules)
        assert mention.filter_reason == "negation:no sign of"


@pytest.mark.parametrize(
    "tail, reason",
    [
        ("no real anxiety today.", "negation:no"),  # the cue 2 tokens before
        ("no. real anxiety today.", None),  # the cue in the sentence before
    ],
)
def test_a_match_far_from_the_start_is_found_and_flagged(tmp_path, tail, reason):
    # Offsets are found only up to the last token a match reaches, here
    # the 1,003rd, after 1,000 filler tokens; all tokens are folded.
    lexicon = load_lexicon(write_lexicon_csv(tmp_path / "one.csv", ["C1,anxiety,true,,g"]))
    vocab = build_vocabulary(lexicon, {"C1"})
    text = "the day went on and " * 200 + tail
    doc = Document(doc_id="d", text=text)
    rules = FilterRules(negation_cues=("no",), negation_window=3)
    for got in (
        find_corpus_mentions(Corpus((doc,)), vocab, rules),
        apply_filter_rules(find_mentions(doc, vocab), doc, rules),
    ):
        assert [(m.start, m.end, m.concept_id) for m in got] == brute_force_mentions(
            text, {"anxiety": {"C1"}}
        )
        assert [m.filter_reason for m in got] == [reason]
        assert [m.filtered for m in got] == [reason is not None]
        assert brute_force_negation(got[0], text, rules.negation_cues, 3) == reason


def test_filler_padding_leaves_the_mentions_unchanged(monkeypatch, data_dir):
    # The long-posts benchmark's invariant on a small corpus: sentences
    # with no term appended to every document move no mention.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    vocab = build_vocabulary(lexicon, {cid for ids in THEMES.values() for cid in ids})
    corpus, _ = generate(lexicon, SynthSpec(n_docs=30, seed=5))
    rng = np.random.default_rng(5)
    padded = Corpus(tuple(
        replace(doc, text=" ".join([doc.text, *rng.choice(FILLERS, size=40)]))
        for doc in corpus.docs
    ))
    rules = FilterRules(negation_cues=DEFAULT_NEGATION_CUES)
    expected = find_corpus_mentions(corpus, vocab, rules)
    assert any(m.filtered for m in expected)
    for threads in (1, 2):
        assert find_corpus_mentions(padded, vocab, rules, threads=threads) == expected
    assert_no_child_left()


def test_mentions_jsonl_round_trip(tmp_path, nested_vocab):
    _, vocab = nested_vocab
    doc = Document(doc_id="d", text="self harm and mood swings")
    mentions = find_mentions(doc, vocab)
    mentions = apply_filter_rules(
        mentions, doc, FilterRules(stop_surfaces=frozenset({"mood swings"}))
    )
    path = tmp_path / "mentions.jsonl"
    # Written in the order given, not re-sorted.
    write_mentions(mentions[::-1], path)
    assert read_mentions(path) == mentions[::-1]


def test_read_mentions_shares_equal_ids(tmp_path):
    # A cached rerun holds every mention; one string per distinct id keeps
    # it as small as the fresh run's list.
    path = tmp_path / "mentions.jsonl"
    write_mentions(
        [Mention("doc-1", "C1", 0, 4, "self"), Mention("doc-1", "C2", 9, 13, "harm"),
         Mention("doc-2", "C1", 0, 4, "self")],
        path,
    )
    first, second, third = read_mentions(path)
    assert first.doc_id is second.doc_id
    assert first.concept_id is third.concept_id
    assert first.doc_id is not third.doc_id


def test_mention_record_keys_are_the_mention_fields():
    names = [f.name for f in fields(Mention)]
    plain = Mention("d", "C1", 0, 4, "self")
    flagged = replace(plain, filtered=True, filter_reason="stoplist")
    for m in (plain, flagged):
        assert list(json.loads(mention_line(m))) == names
        assert list(json.loads(mention_line(m, 0.5))) == [*names, "score"]
        assert mention_from_record(json.loads(mention_line(m, 0.5))) == m


JSON_STRINGS = [
    "plain",
    'a "quoted" \\ backslash',
    "controls \x00\x01\x08\x0c\n\r\t\x1f and \x7f",
    "separators \u2028 and \u2029",
    "non-BMP \U0001f600, \u00e9 and \u4e2d",
]
JSON_SCORES = [0.0, -0.0, 5e-324, 1e22, 0.1, -0.75, 1 / 3, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("text", JSON_STRINGS)
def test_mention_line_is_json_dumps_of_the_record(text):
    for start, end in ((0, 1), (2**32 + 7, 2**40)):
        for filtered, reason in ((False, None), (True, "stoplist"), (True, text)):
            values = (text, text + "C1", start, end, text, filtered, reason)
            m, record = Mention(*values), dict(zip(MENTION_KEYS, values))
            assert mention_line(m) == json.dumps(record, ensure_ascii=False) + "\n"
            for score in JSON_SCORES:
                scored = {**record, "score": score}
                assert mention_line(m, score) == json.dumps(scored, ensure_ascii=False) + "\n"


class TestChunkBounds:
    @pytest.mark.parametrize(
        "lengths, workers, bounds",
        [
            ([], 1, [0, 0]),
            ([7], 1, [0, 1]),
            ([5, 5, 5, 5], 2, [0, 2, 4]),
            ([100, 1, 1, 1], 2, [0, 1, 4]),
            ([1, 1, 1, 100], 2, [0, 3, 4]),
            ([1, 1, 1, 100], 3, [0, 2, 3, 4]),
            ([0, 0, 0], 3, [0, 1, 2, 3]),
            ([1] * 10_000, 10_000, list(range(10_001))),
        ],
    )
    def test_cases_by_inspection(self, lengths, workers, bounds):
        assert ner._chunk_bounds(lengths, workers) == bounds

    def test_chunks_are_contiguous_cover_once_and_balance_characters(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 30))
            lengths = [int(x) for x in rng.integers(0, 200, size=n)]
            if rng.random() < 0.3:  # one document much longer than the rest
                lengths[int(rng.integers(n))] = 10_000
            workers = int(rng.integers(1, n + 1))
            bounds = ner._chunk_bounds(lengths, workers)
            assert len(bounds) == workers + 1
            assert bounds[0] == 0 and bounds[-1] == n
            assert all(lo < hi for lo, hi in zip(bounds, bounds[1:]))
            limit = -(-sum(lengths) // workers) + max(lengths)
            assert all(sum(lengths[lo:hi]) <= limit for lo, hi in zip(bounds, bounds[1:]))


def spy_on_workers(monkeypatch):
    """Record the worker count of each call and fork nothing: every call
    gets one chunk, and a fork fails the test."""
    seen = []
    chunk_bounds = ner._chunk_bounds

    def one_chunk(lengths, workers):
        seen.append(workers)
        return chunk_bounds(lengths, 1)

    monkeypatch.setattr(ner, "_chunk_bounds", one_chunk)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    return seen


class TestWorkerCount:
    def test_threads_are_bounded_by_documents_and_cpus(self, monkeypatch, nested_vocab):
        _, vocab = nested_vocab
        seen = spy_on_workers(monkeypatch)
        corpus = Corpus(tuple(Document(f"d{i}", "self harm") for i in range(5)))
        for cpus, threads, workers in [
            (3, 10_000, 3), (64, 10_000, 5), (64, 2, 2), (None, 10_000, 1), (64, 1, 1),
        ]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert len(find_corpus_mentions(corpus, vocab, threads=threads)) == 5
            assert seen.pop() == workers
        assert find_corpus_mentions(Corpus(()), vocab, threads=10_000) == []
        assert seen.pop() == 1

    def test_one_worker_without_fork(self, monkeypatch, nested_vocab):
        _, vocab = nested_vocab
        seen = spy_on_workers(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.delattr(os, "fork")
        corpus = Corpus(tuple(Document(f"d{i}", "self harm") for i in range(5)))
        assert len(find_corpus_mentions(corpus, vocab, threads=4)) == 5
        assert seen == [1]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def reference_corpus_mentions(corpus, vocab, rules):
    return sorted(
        (
            m
            for doc in corpus.docs
            for m in apply_filter_rules(find_mentions(doc, vocab), doc, rules)
        ),
        key=Mention.sort_key,
    )


class TestForkedWorkers:
    RULES = FilterRules(
        negation_cues=("no", "never had"), stop_surfaces=frozenset({"mood"})
    )

    @pytest.fixture(autouse=True)
    def many_cpus(self, monkeypatch):
        # Enough CPUs that ``threads`` alone sets the worker count.
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def random_corpus(self, rng, words, n_docs):
        docs = []
        for i in range(n_docs):
            size = int(rng.integers(0, 30))
            if rng.random() < 0.2:  # skewed: a few documents far longer
                size *= 40
            picks = rng.integers(len(words), size=size)
            docs.append(Document(f"doc{i:03d}", " ".join(words[int(k)] for k in picks)))
        return Corpus(tuple(docs))

    def test_equal_mentions_for_one_to_five_threads(self, nested_vocab):
        lexicon, vocab = nested_vocab
        words = list(lexicon.term_index) + ["no", "never", "had", "the", "today", "."]
        rng = np.random.default_rng(23)
        corpora = [Corpus(()), Corpus((Document("only", "no mood swings"),))]
        corpora += [self.random_corpus(rng, words, int(rng.integers(2, 12))) for _ in range(12)]
        for corpus in corpora:
            expected = reference_corpus_mentions(corpus, vocab, self.RULES)
            for threads in range(1, 6):
                got = find_corpus_mentions(corpus, vocab, self.RULES, threads=threads)
                assert got == expected, (threads, len(corpus))
        assert_no_child_left()

    def test_corpus_order_is_doc_id_order(self, nested_vocab):
        # The corpus sorts its documents, so the workers' chunks join in
        # canonical order with no sort of the mentions.
        _, vocab = nested_vocab
        corpus = Corpus((Document("b", "no mood swings, self harm"), Document("a", "mood")))
        assert [doc.doc_id for doc in corpus.docs] == ["a", "b"]
        assert [corpus.index_of(doc_id) for doc_id in "ab"] == [0, 1]
        expected = reference_corpus_mentions(corpus, vocab, self.RULES)
        assert {m.doc_id for m in expected} == {"a", "b"}
        for threads in (1, 2):
            assert find_corpus_mentions(corpus, vocab, self.RULES, threads=threads) == expected
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [0, 3, 5])
    def test_a_worker_exception_is_raised_here(self, monkeypatch, nested_vocab, failing):
        _, vocab = nested_vocab
        corpus = Corpus(tuple(Document(f"d{i}", "self harm " * 50) for i in range(6)))
        match = ner._match

        def failing_match(doc, *args):
            if doc.doc_id == f"d{failing}":
                raise ValueError(f"cannot match {doc.doc_id}")
            return match(doc, *args)

        monkeypatch.setattr(ner, "_match", failing_match)
        with pytest.raises(ValueError, match=f"^cannot match d{failing}$") as info:
            find_corpus_mentions(corpus, vocab, threads=3)
        assert info.type is ValueError
        assert_no_child_left()

    def test_an_exception_that_does_not_pickle_keeps_its_message(self, monkeypatch, nested_vocab):
        _, vocab = nested_vocab

        class LocalError(Exception):
            pass

        match = ner._match

        def failing_match(doc, *args):
            if doc.doc_id == "d1":
                raise LocalError(f"cannot match {doc.doc_id}")
            return match(doc, *args)

        monkeypatch.setattr(ner, "_match", failing_match)
        corpus = Corpus((Document("d0", "self harm"), Document("d1", "self harm")))
        with pytest.raises(RuntimeError, match="^LocalError: cannot match d1$"):
            find_corpus_mentions(corpus, vocab, threads=2)
        assert_no_child_left()

    def test_a_worker_blocked_on_a_full_pipe_is_reaped(self, monkeypatch, nested_vocab):
        # The second chunk's mentions pickle to far more than a pipe holds,
        # and this process fails before it reads any of them.
        _, vocab = nested_vocab
        match = ner._match

        def failing_match(doc, *args):
            if doc.doc_id == "d0":
                raise ValueError("cannot match d0")
            return match(doc, *args)

        def too_slow(*_):
            raise TimeoutError("a worker was never reaped")

        monkeypatch.setattr(ner, "_match", failing_match)
        corpus = Corpus((Document("d0", "x " * 20_000), Document("d1", "self harm " * 20_000)))
        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(60)
        try:
            with pytest.raises(ValueError, match="^cannot match d0$"):
                find_corpus_mentions(corpus, vocab, threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert_no_child_left()
