"""Offset-preserving tokenizer shared by term compilation and matching."""

from __future__ import annotations

import re
from dataclasses import dataclass

# Maximal runs of letters, digits, or apostrophes; everything else splits.
_TOKEN_RE = re.compile(r"(?:[^\W_]|')+")


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
    matches = list(_TOKEN_RE.finditer(text))
    return (
        [m.start() for m in matches],
        [m.end() for m in matches],
        [m.group().lower() for m in matches],
    )


def fold_term_tokens(term: str) -> tuple[str, ...]:
    """Case-folded token texts of a vocabulary term."""
    return tuple(m.group().lower() for m in _TOKEN_RE.finditer(term))
