"""Offset-preserving tokenizer shared by term compilation and matching."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

# Maximal runs of letters, digits, or apostrophes; everything else splits.
# Letter and digit runs are matched whole, so the engine branches once per
# run and apostrophe rather than once per character.
_TOKEN_RE = re.compile(r"(?:[^\W_]+|')+")
# The same tokens as one capture group: ``split`` alternates gaps and tokens.
_SPLIT_RE = re.compile(f"({_TOKEN_RE.pattern})")


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into tokens with exact [start, end) offsets."""
    return [
        Token(text=m.group(), start=m.start(), end=m.end())
        for m in _TOKEN_RE.finditer(text)
    ]


def token_columns(text: str) -> tuple[list[int], list[int], list[str]]:
    """Start offsets, end offsets and case-folded texts of the tokens of
    ``text``: the per-document form of :func:`tokenize` that matching and
    filtering share."""
    # parts = [gap, token, gap, ..., token, gap]; the running lengths are
    # then start, end, start, ..., end, len(text).
    parts = _SPLIT_RE.split(text)
    offsets = list(accumulate(map(len, parts)))
    return offsets[0:-1:2], offsets[1::2], list(map(str.lower, parts[1::2]))


def fold_term_tokens(term: str) -> tuple[str, ...]:
    """Case-folded token texts of a vocabulary term."""
    return tuple(m.group().lower() for m in _TOKEN_RE.finditer(term))
