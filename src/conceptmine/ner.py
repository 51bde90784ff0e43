"""Dictionary NER: longest-match mention finding plus declarative filter rules.

Matching is case-insensitive and token-boundary aligned. A vocabulary term
matches a run of consecutive document tokens whose case-folded texts equal
the term's token sequence, so multi-word terms span whatever whitespace or
punctuation separates the tokens. Each document is tokenized once; at
every token that starts some term, the matcher looks the following
n-grams up in the vocabulary's term dict, up to the length of the longest
term with that first token (the FlashText idea, Singh 2017, over
case-folded tokens). Overlaps resolve longest-span-first, then
earliest-start-first. Filter rules flag mentions (negation cue within a
token window in the same sentence, or a stop-listed surface) without
deleting them.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from .ingest import Corpus, Document, read_records, write_records
from .lexicon import ConceptId, Vocabulary
from .tokenize import fold_term_tokens, token_columns

_SENTENCE_BREAK_RE = re.compile(r"[.!?\n]")


@dataclass(frozen=True)
class Mention:
    doc_id: str
    concept_id: ConceptId
    start: int
    end: int
    surface: str
    filtered: bool = False
    filter_reason: str | None = None

    def sort_key(self) -> tuple[str, int, str]:
        return (self.doc_id, self.start, self.concept_id)


@dataclass(frozen=True)
class FilterRules:
    """Declarative mention filters.

    ``negation_cues`` are matched as case-folded token sequences lying
    wholly within the ``negation_window`` tokens before the mention,
    bounded by the enclosing sentence (sentences split on ``. ! ?`` and
    newlines). ``stop_surfaces`` are case-folded whole surfaces.
    """

    negation_cues: tuple[str, ...] = ()
    negation_window: int = 3
    stop_surfaces: frozenset[str] = frozenset()

    def is_empty(self) -> bool:
        return not self.negation_cues and not self.stop_surfaces


def find_mentions(doc: Document, vocab: Vocabulary) -> list[Mention]:
    """All resolved vocabulary matches in one document.

    Every maximal token-aligned match is found; overlapping matches are
    resolved by (1) longer character span wins, (2) earlier start wins.
    A term shared by several concepts yields one mention per concept on
    the same span. Result is sorted by (start, concept_id) and every
    mention satisfies ``doc.text[start:end] == surface``.
    """
    starts, ends, folded = token_columns(doc.text)
    return _match(doc, vocab, starts, ends, folded)


def _match(
    doc: Document,
    vocab: Vocabulary,
    starts: list[int],
    ends: list[int],
    folded: list[str],
) -> list[Mention]:
    if not len(vocab):
        raise ValueError("vocabulary is empty")
    terms = vocab.terms
    longest = vocab.longest
    n_tokens = len(folded)
    candidates = []
    for i, first in enumerate(folded):
        limit = longest.get(first)
        if limit is None:
            continue
        for stop in range(i + 1, min(i + limit, n_tokens) + 1):
            concepts = terms.get(tuple(folded[i:stop]))
            if concepts is not None:
                candidates.append((starts[i], ends[stop - 1], concepts))
    mentions: list[Mention] = []
    for start, end, concepts in _resolve_overlaps(candidates):
        for cid in concepts:
            mentions.append(
                Mention(
                    doc_id=doc.doc_id,
                    concept_id=cid,
                    start=start,
                    end=end,
                    surface=doc.text[start:end],
                )
            )
    mentions.sort(key=lambda m: (m.start, m.concept_id))
    return mentions


def _resolve_overlaps(
    candidates: list[tuple[int, int, tuple[ConceptId, ...]]]
) -> list[tuple[int, int, tuple[ConceptId, ...]]]:
    ordered = sorted(candidates, key=lambda c: (c[0] - c[1], c[0]))
    accepted: list[tuple[int, int, tuple[ConceptId, ...]]] = []
    for start, end, concepts in ordered:
        if all(end <= a_start or start >= a_end for a_start, a_end, _ in accepted):
            accepted.append((start, end, concepts))
    accepted.sort()
    return accepted


def apply_filter_rules(
    mentions: Sequence[Mention], doc: Document, rules: FilterRules
) -> list[Mention]:
    """Flag mentions matching a filter rule; spans and concepts unchanged.

    Rule (a): a negation cue ends within ``negation_window`` tokens before
    the mention inside the same sentence. Rule (b): the case-folded
    surface is stop-listed. No mention is deleted, only flagged.
    """
    if rules.is_empty() or not mentions:
        return list(mentions)
    starts, _, folded = token_columns(doc.text)
    return _flag(mentions, doc, rules, starts, folded)


def _flag(
    mentions: Sequence[Mention],
    doc: Document,
    rules: FilterRules,
    token_starts: list[int],
    folded: list[str],
) -> list[Mention]:
    if rules.is_empty() or not mentions:
        return list(mentions)
    sentence_starts = _sentence_starts(doc.text)
    cue_tokens = [
        (cue, fold_term_tokens(cue)) for cue in rules.negation_cues
    ]
    cue_tokens = [(cue, toks) for cue, toks in cue_tokens if toks]
    stop = rules.stop_surfaces

    result: list[Mention] = []
    for mention in mentions:
        if mention.doc_id != doc.doc_id:
            raise ValueError(
                f"mention for {mention.doc_id!r} does not belong to {doc.doc_id!r}"
            )
        reason = _negation_reason(
            mention, token_starts, folded, sentence_starts,
            cue_tokens, rules.negation_window,
        )
        if reason is None and stop and mention.surface.lower() in stop:
            reason = "stoplist"
        if reason is not None and not mention.filtered:
            result.append(replace(mention, filtered=True, filter_reason=reason))
        else:
            result.append(mention)
    return result


def _sentence_starts(text: str) -> list[int]:
    starts = [0]
    for match in _SENTENCE_BREAK_RE.finditer(text):
        starts.append(match.end())
    return starts


def _negation_reason(
    mention: Mention,
    token_starts: list[int],
    folded: list[str],
    sentence_starts: list[int],
    cue_tokens: list[tuple[str, tuple[str, ...]]],
    window: int,
) -> str | None:
    if not cue_tokens or window <= 0:
        return None
    # Tokens strictly before the mention's first character.
    mention_tok = bisect_left(token_starts, mention.start)
    sentence_start = sentence_starts[
        bisect_right(sentence_starts, mention.start) - 1
    ]
    first_sentence_tok = bisect_left(token_starts, sentence_start)
    window_lo = max(first_sentence_tok, mention_tok - window)
    for position in range(window_lo, mention_tok):
        for cue, toks in cue_tokens:
            lo = position - len(toks) + 1
            if lo < window_lo:
                continue
            if tuple(folded[lo : position + 1]) == toks:
                return f"negation:{cue}"
    return None


def find_corpus_mentions(
    corpus: Corpus,
    vocab: Vocabulary,
    rules: FilterRules | None = None,
    threads: int = 1,
) -> list[Mention]:
    """Match and filter every document; canonical (doc_id, start, concept_id)
    order makes the result independent of the thread count. Each document
    is tokenized once, for matching and filtering both."""
    rules = rules or FilterRules()

    def process(doc: Document) -> list[Mention]:
        starts, ends, folded = token_columns(doc.text)
        found = _match(doc, vocab, starts, ends, folded)
        return _flag(found, doc, rules, starts, folded)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_doc = list(pool.map(process, corpus.docs))
    else:
        per_doc = [process(doc) for doc in corpus.docs]
    mentions = [m for chunk in per_doc for m in chunk]
    mentions.sort(key=Mention.sort_key)
    return mentions


def mention_record(m: Mention) -> dict[str, object]:
    """The JSON record of one mention, as ``mentions.jsonl`` and the
    scored mention files hold it: ``Mention``'s fields, in field order."""
    return m.__dict__.copy()


MENTION_KEYS = tuple(f.name for f in fields(Mention))
_mention_values = itemgetter(*MENTION_KEYS)


def mention_from_record(record: dict[str, object]) -> Mention:
    """Inverse of :func:`mention_record`; other keys are ignored."""
    return Mention(*_mention_values(record))


def write_mentions(mentions: Iterable[Mention], path: str | Path) -> None:
    write_records(map(mention_record, sorted(mentions, key=Mention.sort_key)), path)


def read_mentions(path: str | Path) -> list[Mention]:
    return [mention_from_record(r) for _, r in read_records(path, required=MENTION_KEYS)]
