"""Dictionary NER: longest-match mention finding plus declarative filter rules.

Matching is case-insensitive and token-boundary aligned. A vocabulary term
matches a run of consecutive document tokens whose case-folded texts equal
the term's token sequence, so multi-word terms span whatever whitespace or
punctuation separates the tokens. Each document is tokenized once; at
every token that starts some key, one lookup loop looks the following
n-grams up in a dict of case-folded token tuples, up to the length of the
longest key with that first token (the FlashText idea, Singh 2017). The
same loop finds vocabulary terms and negation cues. Term overlaps
resolve longest-span-first, then earliest-start-first. Filter rules flag
mentions (negation cue within a token window in the same sentence, or a
stop-listed surface; NegEx, Chapman et al. 2001) without deleting them.
Documents are independent, so ``find_corpus_mentions`` splits them into
contiguous chunks, one per forked worker process.
"""

from __future__ import annotations

import os
import pickle
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields, replace
from itertools import accumulate, compress, count
from operator import itemgetter
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Sequence

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
    candidates = [
        (starts[i], ends[stop - 1], concepts)
        for i, stop, concepts in _ngram_hits(folded, vocab.terms, vocab.longest)
    ]
    return [
        Mention(doc.doc_id, cid, start, end, doc.text[start:end])
        for start, end, concepts in _resolve_overlaps(candidates)
        for cid in concepts
    ]


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
    sentence_starts = _sentence_starts(doc.text) if hits else []
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


def _sentence_starts(text: str) -> list[int]:
    return [0] + [match.end() for match in _SENTENCE_BREAK_RE.finditer(text)]


def find_corpus_mentions(
    corpus: Corpus,
    vocab: Vocabulary,
    rules: FilterRules | None = None,
    threads: int = 1,
) -> list[Mention]:
    """Match and filter every document, in canonical (doc_id, start,
    concept_id) order, tokenizing each once for both.

    The documents are split into ``workers`` contiguous chunks of about
    equal characters, ``workers = min(threads, documents, CPUs)``, or 1
    where ``os.fork`` is missing. This process finds the first chunk's
    mentions while a forked child finds each other chunk's and sends them
    back pickled over a pipe; one worker forks nothing. The chunks join in
    the corpus's doc_id order, so the result needs no sort. An exception in
    a child is raised here with its type and message. Every child has been
    waited for when this returns or raises. Children run no numpy code, so
    forking a process that holds numpy's idle BLAS threads is safe.
    """
    rules = rules or FilterRules()
    docs = corpus.docs
    workers = min(threads, len(docs), os.cpu_count() or 1) if hasattr(os, "fork") else 1
    bounds = _chunk_bounds([len(doc.text) for doc in docs], max(workers, 1))
    children: list[tuple[int, BinaryIO]] = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: send the chunk's result and leave
                status = 1
                try:
                    os.close(read_fd)
                    for _, reader in children:
                        reader.close()
                    with open(write_fd, "wb") as pipe:
                        pipe.write(_chunk_payload(docs[lo:hi], vocab, rules))
                    status = 0
                finally:
                    # No inherited buffer is flushed, no parent cleanup runs.
                    os._exit(status)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        mentions = _chunk_mentions(docs[: bounds[1]], vocab, rules)
        for _, reader in children:
            mentions += _receive(reader)
    finally:
        # Read ends first: a child still writing then fails with
        # BrokenPipeError and exits, so no wait below blocks for good.
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
    return mentions


def _chunk_bounds(lengths: Sequence[int], workers: int) -> list[int]:
    """Bounds ``0 = b[0] < b[1] < ... < b[workers] = len(lengths)`` of
    ``workers`` contiguous chunks, for ``1 <= workers <= len(lengths)``
    (or ``workers == 1``). ``b[k]`` is the first index whose prefix sum
    of ``lengths`` reaches ``k / workers`` of the total, moved as little as
    keeps every chunk non-empty, so no chunk sums to more than
    ``ceil(total / workers) + max(lengths)``."""
    prefix = list(accumulate(lengths, initial=0))
    n, total = len(lengths), prefix[-1]
    bounds = [0]
    for k in range(1, workers):
        first = bisect_left(prefix, -(-k * total // workers))
        bounds.append(min(max(first, bounds[-1] + 1), n - workers + k))
    bounds.append(n)
    return bounds


def _chunk_mentions(
    docs: Sequence[Document], vocab: Vocabulary, rules: FilterRules
) -> list[Mention]:
    mentions: list[Mention] = []
    for doc in docs:
        starts, ends, folded = token_columns(doc.text)
        found = _match(doc, vocab, starts, ends, folded)
        mentions += _flag(found, doc, rules, starts, folded)
    return mentions


def _chunk_payload(
    docs: Sequence[Document], vocab: Vocabulary, rules: FilterRules
) -> bytes:
    """A worker's result, pickled: its mentions as field tuples, or the
    exception that stopped it (as a RuntimeError naming its type, if it
    does not pickle)."""
    result: object
    try:
        result = [_mention_values(m.__dict__) for m in _chunk_mentions(docs, vocab, rules)]
    except Exception as exc:
        result = exc
    try:
        return pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(result).__name__}: {result}"))


def _receive(reader: BinaryIO) -> list[Mention]:
    """Inverse of :func:`_chunk_payload`: the mentions, or raise the
    worker's exception."""
    try:
        result = pickle.load(reader)
    except EOFError:
        raise RuntimeError("an NER worker exited without sending its mentions") from None
    if isinstance(result, BaseException):
        raise result
    return [Mention(*values) for values in result]


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
