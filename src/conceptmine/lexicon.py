"""Concept lexicon: hierarchy-aware term list and the NER matching vocabulary.

The lexicon file is a UTF-8 CSV with a header row and columns
``concept_id,term,is_preferred,parent_ids,group``. One row per
(concept, term) pair; ``parent_ids`` is a ``;``-separated list of concept
ids (possibly empty); lines starting with ``#`` are comments.
"""

from __future__ import annotations

import csv
import io
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .tokenize import fold_term_tokens

ConceptId = str

_TRUE_STRINGS = {"true", "1", "yes", "y"}
_FALSE_STRINGS = {"false", "0", "no", "n", ""}


class LexiconError(ValueError):
    """Malformed lexicon file or violated lexicon invariant."""


@dataclass(frozen=True)
class Concept:
    id: ConceptId
    preferred_name: str
    synonyms: tuple[str, ...]
    parents: tuple[ConceptId, ...]
    group: str

    def terms(self) -> tuple[str, ...]:
        return (self.preferred_name,) + self.synonyms


@dataclass(frozen=True, eq=False)
class Lexicon:
    """Immutable concept collection in canonical (id-sorted) order.

    ``term_index`` maps every case-folded term to the sorted tuple of
    concept ids carrying it; the id order doubles as the stable matrix
    column order downstream.
    """

    concepts: tuple[Concept, ...]
    term_index: dict[str, tuple[ConceptId, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_id", {c.id: c for c in self.concepts}
        )

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept_id: ConceptId) -> bool:
        return concept_id in self._by_id  # type: ignore[attr-defined]

    def get(self, concept_id: ConceptId) -> Concept:
        try:
            return self._by_id[concept_id]  # type: ignore[attr-defined]
        except KeyError:
            raise LexiconError(f"unknown concept id: {concept_id!r}") from None

    def concept_ids(self) -> tuple[ConceptId, ...]:
        return tuple(c.id for c in self.concepts)

    def n_terms(self) -> int:
        return len(self.term_index)


def _parse_bool(raw: str, line_no: int) -> bool:
    folded = raw.strip().lower()
    if folded in _TRUE_STRINGS:
        return True
    if folded in _FALSE_STRINGS:
        return False
    raise LexiconError(f"line {line_no}: invalid is_preferred value {raw!r}")


def load_lexicon(path: str | Path) -> Lexicon:
    """Parse a lexicon CSV into a validated :class:`Lexicon`.

    Duplicate (concept, term) rows collapse silently. Raises
    :class:`LexiconError` naming the file for malformed rows (with the
    1-based line number), duplicate preferred names for one concept,
    absent parent ids, or cycles in the hierarchy.
    """
    try:
        return _read_lexicon(Path(path))
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc


def _read_lexicon(path: Path) -> Lexicon:
    preferred: dict[ConceptId, str] = {}
    synonyms: dict[ConceptId, list[str]] = {}
    parents: dict[ConceptId, list[ConceptId]] = {}
    groups: dict[ConceptId, str] = {}
    first_line: dict[ConceptId, int] = {}

    with path.open("r", encoding="utf-8", newline="") as handle:
        header_seen = False
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if not header_seen:
                header = next(csv.reader(io.StringIO(line)))
                expected = ["concept_id", "term", "is_preferred", "parent_ids", "group"]
                if [h.strip() for h in header] != expected:
                    raise LexiconError(
                        f"line {line_no}: expected header {','.join(expected)}"
                    )
                header_seen = True
                continue
            try:
                row = next(csv.reader(io.StringIO(line)))
            except csv.Error as exc:
                raise LexiconError(f"line {line_no}: {exc}") from exc
            if len(row) != 5:
                raise LexiconError(
                    f"line {line_no}: expected 5 columns, got {len(row)}"
                )
            cid, term, is_pref_raw, parent_raw, group = (field.strip() for field in row)
            if not cid:
                raise LexiconError(f"line {line_no}: empty concept_id")
            if not term:
                raise LexiconError(f"line {line_no}: empty term for concept {cid}")
            is_pref = _parse_bool(is_pref_raw, line_no)

            first_line.setdefault(cid, line_no)
            row_parents = [p.strip() for p in parent_raw.split(";") if p.strip()]
            existing = parents.setdefault(cid, [])
            for pid in row_parents:
                if pid not in existing:
                    existing.append(pid)
            if group:
                prior = groups.get(cid)
                if prior is not None and prior != group:
                    raise LexiconError(
                        f"line {line_no}: concept {cid} has conflicting groups "
                        f"{prior!r} and {group!r}"
                    )
                groups[cid] = group

            if is_pref:
                prior_name = preferred.get(cid)
                if prior_name is not None and prior_name.lower() != term.lower():
                    raise LexiconError(
                        f"line {line_no}: concept {cid} has two preferred terms "
                        f"({prior_name!r}, {term!r})"
                    )
                preferred.setdefault(cid, term)
            else:
                synonyms.setdefault(cid, [])
                if term.lower() not in (s.lower() for s in synonyms[cid]):
                    synonyms[cid].append(term)

    concepts = []
    for cid in sorted(first_line):
        if cid not in preferred:
            raise LexiconError(
                f"line {first_line[cid]}: concept {cid} has no preferred term"
            )
        pref = preferred[cid]
        syns = tuple(
            s for s in synonyms.get(cid, []) if s.lower() != pref.lower()
        )
        concepts.append(
            Concept(
                id=cid,
                preferred_name=pref,
                synonyms=syns,
                parents=tuple(sorted(parents.get(cid, []))),
                group=groups.get(cid, ""),
            )
        )

    known = {c.id for c in concepts}
    for concept in concepts:
        for pid in concept.parents:
            if pid not in known:
                raise LexiconError(
                    f"concept {concept.id} lists unknown parent {pid!r}"
                )
    _check_acyclic(concepts)

    term_index: dict[str, set[ConceptId]] = {}
    for concept in concepts:
        for term in concept.terms():
            term_index.setdefault(term.lower(), set()).add(concept.id)
    frozen_index = {term: tuple(sorted(ids)) for term, ids in term_index.items()}
    return Lexicon(concepts=tuple(concepts), term_index=frozen_index)


def _check_acyclic(concepts: Iterable[Concept]) -> None:
    # Kahn's algorithm over child -> parent edges; leftovers form a cycle.
    parents = {c.id: set(c.parents) for c in concepts}
    children: dict[ConceptId, set[ConceptId]] = {cid: set() for cid in parents}
    for cid, pids in parents.items():
        for pid in pids:
            children[pid].add(cid)
    ready = deque(sorted(cid for cid, pids in parents.items() if not pids))
    seen = 0
    pending = {cid: len(pids) for cid, pids in parents.items()}
    while ready:
        cid = ready.popleft()
        seen += 1
        for child in sorted(children[cid]):
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    if seen != len(parents):
        member = min(cid for cid, n in pending.items() if n > 0)
        raise LexiconError(f"hierarchy cycle involving concept {member}")


def extract_leaf_concepts(lexicon: Lexicon) -> set[ConceptId]:
    """Concepts that no other concept lists as a parent."""
    non_leaves = {pid for c in lexicon.concepts for pid in c.parents}
    return {c.id for c in lexicon.concepts} - non_leaves


def expand_descendants(lexicon: Lexicon, roots: set[ConceptId]) -> set[ConceptId]:
    """Roots plus everything reachable by following child edges downward."""
    for root in roots:
        if root not in lexicon:
            raise LexiconError(f"unknown root concept id: {root!r}")
    children: dict[ConceptId, list[ConceptId]] = {}
    for concept in lexicon.concepts:
        for pid in concept.parents:
            children.setdefault(pid, []).append(concept.id)
    result = set(roots)
    frontier = deque(roots)
    while frontier:
        cid = frontier.popleft()
        for child in children.get(cid, ()):
            if child not in result:
                result.add(child)
                frontier.append(child)
    return result


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Case-folded terms of the selected concepts, compiled for n-gram lookup.

    ``terms`` maps a term's case-folded token tuple to the sorted concept
    ids carrying it; distinct surface terms that tokenize identically
    share one entry. ``longest[t]`` is the token length of the longest
    term whose first token is ``t``, so a matcher standing on a document
    token ``t`` looks up at most ``longest[t]`` n-grams, and none at a
    token that starts no term.
    """

    terms: dict[tuple[str, ...], tuple[ConceptId, ...]]
    longest: dict[str, int]
    n_terms: int

    def __len__(self) -> int:
        return len(self.terms)

    def concepts_for_term(self, term: str) -> tuple[ConceptId, ...]:
        """Concept ids reachable through one case-folded term, () if absent."""
        return self.terms.get(fold_term_tokens(term), ())


def build_vocabulary(lexicon: Lexicon, selected: set[ConceptId]) -> Vocabulary:
    """Compile the terms of ``selected`` concepts into a matching vocabulary.

    Raises :class:`LexiconError` when ``selected`` is empty, contains
    unknown ids, or a term tokenizes to nothing.
    """
    if not selected:
        raise LexiconError("selected concept set is empty, nothing to match")
    unknown = sorted(cid for cid in selected if cid not in lexicon)
    if unknown:
        raise LexiconError(f"selected ids not in lexicon: {', '.join(unknown)}")

    surfaces: dict[str, set[ConceptId]] = {}
    for cid in sorted(selected):
        for term in lexicon.get(cid).terms():
            surfaces.setdefault(term.lower(), set()).add(cid)

    terms: dict[tuple[str, ...], set[ConceptId]] = {}
    longest: dict[str, int] = {}
    for surface in sorted(surfaces):
        tokens = fold_term_tokens(surface)
        if not tokens:
            raise LexiconError(f"term {surface!r} contains no matchable tokens")
        terms.setdefault(tokens, set()).update(surfaces[surface])
        longest[tokens[0]] = max(longest.get(tokens[0], 0), len(tokens))

    return Vocabulary(
        terms={tokens: tuple(sorted(cids)) for tokens, cids in terms.items()},
        longest=longest,
        n_terms=len(surfaces),
    )
