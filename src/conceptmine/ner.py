"""Dictionary NER: longest-match mention finding plus declarative filter rules.

Matching is case-insensitive and token-boundary aligned. A vocabulary term
matches a run of consecutive document tokens whose case-folded texts equal
the term's token sequence, so multi-word terms span whatever whitespace or
punctuation separates the tokens. Each document's tokens are folded once,
for an ASCII document by one ``str.translate`` and ``split``; at every
token that starts some key, one lookup loop looks the following n-grams
up in a dict of case-folded token tuples, up to the length of the longest
key with that first token (the FlashText idea, Singh 2017). The same loop
finds vocabulary terms and negation cues. Character offsets are found
only for the tokens up to the last one a match reaches, and sentence
breaks only up to the last mention; a document with no match gets
neither. Term overlaps resolve longest-span-first, then
earliest-start-first. Filter rules flag mentions (negation cue within a
token window in the same sentence, or a stop-listed surface; NegEx,
Chapman et al. 2001) without deleting them.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields, replace
from itertools import compress, count
from json.encoder import encode_basestring as _quote
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from .ingest import Corpus, Document, read_records
from .lexicon import ConceptId, Vocabulary
from .tokenize import fold_term_tokens, fold_tokens, token_offsets

_SENTENCE_BREAK_RE = re.compile(r"[.!?\n]")


@dataclass(frozen=True, slots=True)
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

    Cues are compiled once, like a vocabulary's terms: ``_cues`` maps
    folded tokens to ``(config order, cue)``, the first of cues that fold
    alike, and ``_cue_longest`` each first token to its longest cue. A
    cue with no tokens raises ValueError, as a term with none does.
    """

    negation_cues: tuple[str, ...] = ()
    negation_window: int = 3
    stop_surfaces: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        cues: dict[tuple[str, ...], tuple[int, str]] = {}
        for order, cue in enumerate(self.negation_cues):
            tokens = fold_term_tokens(cue)
            if not tokens:
                raise ValueError(f"negation cue {cue!r} contains no matchable tokens")
            cues.setdefault(tokens, (order, cue))
        # Shortest first, so each first token keeps its longest cue's length.
        longest = {tokens[0]: len(tokens) for tokens in sorted(cues, key=len)}
        object.__setattr__(self, "_cues", cues)
        object.__setattr__(self, "_cue_longest", longest)

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
    return _match(doc, vocab, fold_tokens(doc.text))[0]


def _match(
    doc: Document, vocab: Vocabulary, folded: list[str]
) -> tuple[list[Mention], list[int]]:
    """The mentions in ``doc``, whose folded tokens are ``folded``, and the
    start offsets of its tokens up to the last one a match reaches."""
    if not len(vocab):
        raise ValueError("vocabulary is empty")
    hits = list(_ngram_hits(folded, vocab.terms, vocab.longest))
    if not hits:
        return [], []
    starts, ends = token_offsets(doc.text, max(stop for _, stop, _ in hits))
    candidates = [(starts[i], ends[stop - 1], concepts) for i, stop, concepts in hits]
    mentions = [
        Mention(doc.doc_id, cid, start, end, doc.text[start:end])
        for start, end, concepts in _resolve_overlaps(candidates)
        for cid in concepts
    ]
    return mentions, starts


def _ngram_hits(
    folded: list[str], table: dict[tuple[str, ...], Any], longest: dict[str, int]
) -> Iterator[tuple[int, int, Any]]:
    """``(i, stop, table[key])`` for every n-gram ``key = folded[i:stop]``
    that is a key of ``table``, by ascending ``i`` then ``stop``;
    ``longest`` maps a first token to the longest key length it starts."""
    n_tokens = len(folded)
    # Only tokens that start some key get a loop turn; the test runs in C.
    for i in compress(count(), map(longest.__contains__, folded)):
        for stop in range(i + 1, min(i + longest[folded[i]], n_tokens) + 1):
            value = table.get(tuple(folded[i:stop]))
            if value is not None:
                yield i, stop, value


def _resolve_overlaps(
    candidates: list[tuple[int, int, tuple[ConceptId, ...]]]
) -> list[tuple[int, int, tuple[ConceptId, ...]]]:
    """The candidates kept, by start: longest first, then earliest, each
    is kept unless a kept one already holds one of its characters."""
    held = bytearray(max((end for _, end, _ in candidates), default=0))
    accepted = []
    for start, end, concepts in sorted(candidates, key=lambda c: (c[0] - c[1], c[0])):
        if held.find(1, start, end) < 0:
            held[start:end] = b"\1" * (end - start)
            accepted.append((start, end, concepts))
    accepted.sort(key=itemgetter(0))
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
    last = max(mention.start for mention in mentions)
    starts, _ = token_offsets(doc.text, endpos=last + 1)
    return _flag(mentions, doc, rules, starts, fold_tokens(doc.text))


def _flag(
    mentions: Sequence[Mention],
    doc: Document,
    rules: FilterRules,
    token_starts: list[int],
    folded: list[str],
) -> list[Mention]:
    """``mentions`` flagged by ``rules``. ``token_starts`` holds the start
    offsets of at least the tokens that start at or before the last
    mention, so every window is compared by token index within them."""
    if rules.is_empty() or not mentions:
        return list(mentions)
    # Every window ends by token len(token_starts): no later cue counts.
    folded = folded[: len(token_starts)]
    # Cue occurrences by (stop, config order): the first one that starts
    # inside a mention's window ends earliest, then comes first in config.
    cues, longest = rules._cues, rules._cue_longest  # type: ignore[attr-defined]
    hits = []
    if not longest.keys().isdisjoint(folded):  # else no cue can occur
        hits = sorted(
            (stop, order, i, cue)
            for i, stop, (order, cue) in _ngram_hits(folded, cues, longest)
        )
    hit_stops = [hit[0] for hit in hits]
    last = max(mention.start for mention in mentions)
    sentence_starts = _sentence_starts(doc.text, last + 1) if hits else []
    stop = rules.stop_surfaces

    result: list[Mention] = []
    for mention in mentions:
        if mention.doc_id != doc.doc_id:
            raise ValueError(
                f"mention for {mention.doc_id!r} does not belong to {doc.doc_id!r}"
            )
        reason = None
        if hits:
            # The window: up to negation_window tokens right before the
            # mention, none before the start of its sentence.
            mention_tok = bisect_left(token_starts, mention.start)
            sentence = sentence_starts[bisect_right(sentence_starts, mention.start) - 1]
            window_lo = max(
                bisect_left(token_starts, sentence), mention_tok - rules.negation_window
            )
            lo, hi = bisect_right(hit_stops, window_lo), bisect_right(hit_stops, mention_tok)
            reason = next(
                (f"negation:{cue}" for _, _, i, cue in hits[lo:hi] if i >= window_lo),
                None,
            )
        if reason is None and stop and mention.surface.lower() in stop:
            reason = "stoplist"
        flag = reason is not None and not mention.filtered
        result.append(replace(mention, filtered=True, filter_reason=reason) if flag else mention)
    return result


def _sentence_starts(text: str, endpos: int) -> list[int]:
    """Sentence start offsets in ``text[:endpos]``."""
    return [0] + [match.end() for match in _SENTENCE_BREAK_RE.finditer(text, 0, endpos)]


def find_corpus_mentions(
    corpus: Corpus,
    vocab: Vocabulary,
    rules: FilterRules | None = None,
    threads: int = 1,
) -> list[Mention]:
    """Match and filter every document, folding its tokens once for both, in
    (doc_id, start, concept_id) order. This is that order's one home: the
    corpus holds its documents in doc_id order and each document's
    mentions come by start, then concept id, so the result needs no sort;
    the writers of the mention, scored and label files keep the order
    given, so line k of each file is the same mention.

    ``threads`` is accepted for compatibility; NER runs in one process.
    """
    rules = rules or FilterRules()
    mentions: list[Mention] = []
    for doc in corpus.docs:
        folded = fold_tokens(doc.text)
        found, starts = _match(doc, vocab, folded)
        mentions += _flag(found, doc, rules, starts, folded)
    return mentions


MENTION_KEYS = tuple(f.name for f in fields(Mention))
_mention_values = itemgetter(*MENTION_KEYS)

# float.__repr__ of a value that is not finite, as json.dumps writes it.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def mention_line(m: Mention, score: float | None = None) -> str:
    """One line of ``mentions.jsonl``, or, given a score, of a scored
    mention file: the record of ``Mention``'s fields in field order, then
    ``score``, exactly as ``json.dumps(record, ensure_ascii=False) + "\\n"``
    writes it, but formatted field by field with no record built."""
    reason = "null" if m.filter_reason is None else _quote(m.filter_reason)
    line = (
        f'{{"doc_id": {_quote(m.doc_id)}, "concept_id": {_quote(m.concept_id)}, '
        f'"start": {m.start}, "end": {m.end}, "surface": {_quote(m.surface)}, '
        f'"filtered": {"true" if m.filtered else "false"}, "filter_reason": {reason}'
    )
    if score is None:
        return line + "}\n"
    text = float.__repr__(score)
    return f'{line}, "score": {_JSON_NONFINITE.get(text, text)}}}\n'


def mention_from_record(record: dict[str, object]) -> Mention:
    """A mention from the record of one line of :func:`mention_line`;
    other keys are ignored."""
    return Mention(*_mention_values(record))


def write_mentions(mentions: Iterable[Mention], path: str | Path) -> None:
    """Write one line per mention, in the order given."""
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.writelines(map(mention_line, mentions))


def read_mentions(path: str | Path) -> list[Mention]:
    """The mentions of a :func:`write_mentions` file, in file order. Equal
    doc ids and concept ids share one string, as they do in a fresh run."""
    ids: dict[str, str] = {}
    mentions = []
    for _, record in read_records(path, required=MENTION_KEYS):
        doc_id, concept_id, *rest = _mention_values(record)
        mentions.append(
            Mention(ids.setdefault(doc_id, doc_id), ids.setdefault(concept_id, concept_id), *rest)
        )
    return mentions
