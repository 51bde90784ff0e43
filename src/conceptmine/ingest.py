"""Corpus loading, and the JSONL record codec every JSONL file uses.

One JSON object per line with required string fields ``id`` and ``text``;
any other fields are preserved as string metadata. A :class:`Corpus`
keeps its documents in canonical (doc_id-sorted) order, however they were
given, so matrix row i always means the i-th document regardless of input
line order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence


class CorpusError(ValueError):
    """Malformed corpus file or violated corpus invariant."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str
    meta: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class Corpus:
    docs: tuple[Document, ...]

    def __post_init__(self) -> None:
        docs = tuple(sorted(self.docs, key=lambda d: d.doc_id))
        object.__setattr__(self, "docs", docs)
        object.__setattr__(self, "_index", {d.doc_id: i for i, d in enumerate(docs)})

    def __len__(self) -> int:
        return len(self.docs)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self._index  # type: ignore[attr-defined]

    def index_of(self, doc_id: str) -> int:
        try:
            return self._index[doc_id]  # type: ignore[attr-defined]
        except KeyError:
            raise CorpusError(f"unknown doc id: {doc_id!r}") from None

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.doc_id for d in self.docs)


def _coerce_meta(value: object) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


def read_records(
    path: str | Path, error: type = ValueError, required: Sequence[str] = ()
) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL
    file. Invalid JSON, a line that is not an object, or an object
    without one of the ``required`` keys raises ``error`` as ``<path>:
    line N: <reason>``; readers report their own field errors the same
    way. The file is closed when the iteration ends or is abandoned."""
    decode = json.JSONDecoder().decode
    keys = frozenset(required)
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                record = decode(line)
            except json.JSONDecodeError as exc:
                raise error(f"{path}: line {line_no}: invalid JSON ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise error(f"{path}: line {line_no}: expected a JSON object")
            if not record.keys() >= keys:
                missing = next(key for key in required if key not in record)
                raise error(f"{path}: line {line_no}: missing field {missing!r}")
            yield line_no, record


def write_records(records: Iterable[dict], path: str | Path) -> None:
    """Write one ``json.dumps(record, ensure_ascii=False)`` line per record."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.writelines(encode(record) + "\n" for record in records)


def load_corpus(path: str | Path) -> Corpus:
    """Read a JSONL corpus into canonical order.

    Raises :class:`CorpusError` naming the file and the 1-based line for
    malformed JSON, missing/non-string ``id``/``text`` fields, a doc id
    holding a newline or a lone surrogate (which no output file can hold)
    and duplicate doc ids.
    """
    docs: list[Document] = []
    seen: dict[str, int] = {}
    for line_no, record in read_records(path, CorpusError):
        doc_id = record.get("id")
        text = record.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusError(f"{path}: line {line_no}: missing or non-string 'id'")
        if "\n" in doc_id:
            raise CorpusError(f"{path}: line {line_no}: doc id {doc_id!r} holds a newline")
        try:
            doc_id.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(
                f"{path}: line {line_no}: doc id {doc_id!r} is not valid UTF-8"
            ) from None
        if not isinstance(text, str):
            raise CorpusError(f"{path}: line {line_no}: missing or non-string 'text'")
        if doc_id in seen:
            raise CorpusError(
                f"{path}: line {line_no}: duplicate doc id {doc_id!r} "
                f"(first seen on line {seen[doc_id]})"
            )
        seen[doc_id] = line_no
        meta = {
            key: _coerce_meta(value)
            for key, value in record.items()
            if key not in ("id", "text")
        }
        docs.append(Document(doc_id=doc_id, text=text, meta=meta))
    return Corpus(docs=tuple(docs))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize in canonical order; loading the result reproduces the corpus."""
    write_records(
        ({"id": doc.doc_id, "text": doc.text, **dict(sorted(doc.meta.items()))}
         for doc in corpus.docs),
        path,
    )
