"""Offset-preserving tokenizer shared by term compilation and matching.

``_TOKEN_RE`` is the one definition of a token. :func:`token_offsets`
reads its matches for offsets and :func:`fold_tokens` for case-folded
texts; on ASCII text the latter is a ``str.translate`` and ``split``
whose equality with the regex form is pinned by test.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from itertools import islice

# Maximal runs of letters, digits, or apostrophes; everything else splits.
# Letter and digit runs are matched whole, so the engine branches once per
# run and apostrophe rather than once per character.
_TOKEN_RE = re.compile(r"(?:[^\W_]+|')+")

# On ASCII, _TOKEN_RE's token characters are exactly [A-Za-z0-9']: upper
# case folds to lower, the rest of them stay, and every other code point
# becomes a space, which str.split then splits on.
_ASCII_FOLD = str.maketrans(
    {chr(c): " " for c in range(128)}
    | {c: c.lower() for c in map(chr, range(128)) if c.isalnum() or c == "'"}
)


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens with exact [start, end) offsets."""
    starts, ends = token_offsets(text)
    return [Token(text[start:end], start, end) for start, end in zip(starts, ends)]


def token_offsets(
    text: str, count: int | None = None, endpos: int = sys.maxsize
) -> tuple[list[int], list[int]]:
    """Start and end offsets of the first ``count`` tokens (all of them
    when None) of ``text[:endpos]``."""
    spans = [match.span() for match in islice(_TOKEN_RE.finditer(text, 0, endpos), count)]
    return [start for start, _ in spans], [end for _, end in spans]


def fold_tokens(text: str) -> list[str]:
    """Case-folded texts of the tokens of ``text``."""
    if text.isascii():
        return text.translate(_ASCII_FOLD).split()
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def fold_term_tokens(term: str) -> tuple[str, ...]:
    """Case-folded token texts of a vocabulary term."""
    return tuple(fold_tokens(term))
