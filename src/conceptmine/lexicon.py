"""Concept lexicon: hierarchy-aware term list and the NER matching vocabulary.

The lexicon file is a UTF-8 CSV with a header row and columns
``concept_id,term,is_preferred,parent_ids,group``. One row per
(concept, term) pair; ``parent_ids`` is a ``;``-separated list of concept
ids (possibly empty); lines starting with ``#`` are comments.

The child map and the folded-term table are built once per
:class:`Lexicon`; the leaf, descendant and vocabulary functions read them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

from .tokenize import fold_term_tokens

ConceptId = str

_HEADER = ["concept_id", "term", "is_preferred", "parent_ids", "group"]
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
    column order downstream. Construction builds the child map (each
    concept's children, in concept order) and raises
    :class:`LexiconError` for an unknown parent or a hierarchy cycle.
    """

    concepts: tuple[Concept, ...]
    term_index: dict[str, tuple[ConceptId, ...]]

    def __post_init__(self) -> None:
        children: dict[ConceptId, list[ConceptId]] = {c.id: [] for c in self.concepts}
        for concept in self.concepts:
            for pid in concept.parents:
                if pid not in children:
                    raise LexiconError(f"concept {concept.id} lists unknown parent {pid!r}")
                children[pid].append(concept.id)
        object.__setattr__(self, "_by_id", {c.id: c for c in self.concepts})
        object.__setattr__(self, "_children", children)
        _check_acyclic(self)

    def __len__(self) -> int:
        return len(self.concepts)

    def __contains__(self, concept_id: ConceptId) -> bool:
        return concept_id in self._by_id  # type: ignore[attr-defined]

    def get(self, concept_id: ConceptId) -> Concept:
        try:
            return self._by_id[concept_id]  # type: ignore[attr-defined]
        except KeyError:
            raise LexiconError(f"unknown concept id: {concept_id!r}") from None

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
    # Each concept's folded synonyms, mapped to their first spelling in file order.
    synonyms: dict[ConceptId, dict[str, str]] = {}
    parents: dict[ConceptId, set[ConceptId]] = {}
    groups: dict[ConceptId, str] = {}
    first_line: dict[ConceptId, int] = {}

    with path.open("r", encoding="utf-8", newline="") as handle:
        header_seen = False
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                row = next(csv.reader([line]))
            except csv.Error as exc:
                raise LexiconError(f"line {line_no}: {exc}") from exc
            if not header_seen:
                if [h.strip() for h in row] != _HEADER:
                    raise LexiconError(f"line {line_no}: expected header {','.join(_HEADER)}")
                header_seen = True
                continue
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
            parents.setdefault(cid, set()).update(p.strip() for p in parent_raw.split(";"))
            if group and groups.setdefault(cid, group) != group:
                raise LexiconError(
                    f"line {line_no}: concept {cid} has conflicting groups "
                    f"{groups[cid]!r} and {group!r}"
                )

            if is_pref:
                prior_name = preferred.setdefault(cid, term)
                if prior_name.lower() != term.lower():
                    raise LexiconError(
                        f"line {line_no}: concept {cid} has two preferred terms "
                        f"({prior_name!r}, {term!r})"
                    )
            else:
                synonyms.setdefault(cid, {}).setdefault(term.lower(), term)

    concepts = []
    term_index: dict[str, list[ConceptId]] = {}
    for cid in sorted(first_line):
        if cid not in preferred:
            raise LexiconError(
                f"line {first_line[cid]}: concept {cid} has no preferred term"
            )
        syns = synonyms.get(cid, {})
        syns.pop(preferred[cid].lower(), None)
        concept = Concept(
            id=cid,
            preferred_name=preferred[cid],
            synonyms=tuple(syns.values()),
            parents=tuple(sorted(parents[cid] - {""})),
            group=groups.get(cid, ""),
        )
        concepts.append(concept)
        # A concept's folded terms are distinct and ids come sorted.
        for term in concept.terms():
            term_index.setdefault(term.lower(), []).append(cid)
    return Lexicon(
        concepts=tuple(concepts),
        term_index={term: tuple(ids) for term, ids in term_index.items()},
    )


def _check_acyclic(lexicon: Lexicon) -> None:
    # Kahn's algorithm over the child map; a concept never freed lies on or below a cycle.
    pending = {c.id: len(c.parents) for c in lexicon.concepts}
    ready = [cid for cid, n in pending.items() if n == 0]
    while ready:
        for child in lexicon._children[ready.pop()]:  # type: ignore[attr-defined]
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    stuck = [cid for cid, n in pending.items() if n > 0]
    if stuck:
        raise LexiconError(f"hierarchy cycle involving concept {min(stuck)}")


def extract_leaf_concepts(lexicon: Lexicon) -> set[ConceptId]:
    """Concepts that no other concept lists as a parent."""
    children = lexicon._children  # type: ignore[attr-defined]
    return {cid for cid, kids in children.items() if not kids}


def expand_descendants(lexicon: Lexicon, roots: set[ConceptId]) -> set[ConceptId]:
    """Roots plus everything reachable by following child edges downward."""
    for root in roots:
        if root not in lexicon:
            raise LexiconError(f"unknown root concept id: {root!r}")
    result = set(roots)
    frontier = list(roots)
    while frontier:
        for child in lexicon._children[frontier.pop()]:  # type: ignore[attr-defined]
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

    def __len__(self) -> int:
        return len(self.terms)


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

    terms: dict[tuple[str, ...], set[ConceptId]] = {}
    longest: dict[str, int] = {}
    for surface in sorted(lexicon.term_index):
        cids = selected.intersection(lexicon.term_index[surface])
        if not cids:
            continue
        tokens = fold_term_tokens(surface)
        if not tokens:
            raise LexiconError(f"term {surface!r} contains no matchable tokens")
        terms.setdefault(tokens, set()).update(cids)
        longest[tokens[0]] = max(longest.get(tokens[0], 0), len(tokens))

    return Vocabulary(
        terms={tokens: tuple(sorted(cids)) for tokens, cids in terms.items()},
        longest=longest,
    )
