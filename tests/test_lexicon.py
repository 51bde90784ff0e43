import re

import numpy as np
import pytest

from conceptmine.lexicon import (
    LexiconError,
    build_vocabulary,
    expand_descendants,
    extract_leaf_concepts,
    load_lexicon,
)

from conftest import write_lexicon_csv


def make_chain(tmp_path):
    # C0 -> C1 -> C2 (children point at parents)
    return write_lexicon_csv(
        tmp_path / "chain.csv",
        [
            "C0,root term,true,,g",
            "C1,middle term,true,C0,g",
            "C2,leaf term,true,C1,g",
        ],
    )


class TestLoadLexicon:
    def test_two_concepts_three_terms(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "lex.csv",
            [
                "C1,child abuse,true,C0,ACE",
                "C1,abuse of child,false,C0,ACE",
                "C0,adverse experience,true,,ACE",
            ],
        )
        lexicon = load_lexicon(path)
        assert len(lexicon) == 2
        assert lexicon.n_terms() == 3
        assert tuple(c.id for c in lexicon.concepts) == ("C0", "C1")
        assert lexicon.get("C1").synonyms == ("abuse of child",)
        assert lexicon.term_index["child abuse"] == ("C1",)

    def test_header_only_file(self, tmp_path):
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "empty.csv", []))
        assert len(lexicon) == 0

    def test_missing_parent_is_error(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "bad.csv", ["C1,term one,true,C9,g"]
        )
        with pytest.raises(LexiconError, match="C9"):
            load_lexicon(path)

    def test_cycle_is_error_naming_member(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "cycle.csv",
            ["CA,a term,true,CB,g", "CB,b term,true,CA,g"],
        )
        with pytest.raises(LexiconError, match="cycle"):
            load_lexicon(path)

    def test_self_parent_is_a_cycle(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "self.csv", ["CA,a term,true,CA,g"]
        )
        with pytest.raises(LexiconError, match="cycle involving concept CA"):
            load_lexicon(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "concept_id,term,is_preferred,parent_ids,group\n"
            "# comment line\n"
            "C1,term one,true,,g\n"
            "C2,only,three\n",
            encoding="utf-8",
        )
        with pytest.raises(LexiconError, match="line 4"):
            load_lexicon(path)

    def test_errors_name_the_file(self, tmp_path):
        path = write_lexicon_csv(tmp_path / "lex.csv", ["C1,term,maybe,,g"])
        with pytest.raises(LexiconError, match=re.escape(f"{path}: line 2: invalid")):
            load_lexicon(path)

    def test_duplicate_rows_collapse(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "dup.csv",
            ["C1,abuse,true,,g", "C1,Abuse,false,,g", "C1,abuse,true,,g"],
        )
        lexicon = load_lexicon(path)
        assert lexicon.get("C1").terms() == ("abuse",)

    def test_two_distinct_preferred_terms_is_error(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "pref.csv",
            ["C1,abuse,true,,g", "C1,maltreatment,true,,g"],
        )
        with pytest.raises(LexiconError, match="two preferred"):
            load_lexicon(path)

    def test_deterministic_across_line_order(self, tmp_path):
        rows = [
            "C2,leaf term,true,C1,g",
            "C0,root term,true,,g",
            "C1,middle term,true,C0,g",
        ]
        a = load_lexicon(write_lexicon_csv(tmp_path / "a.csv", rows))
        b = load_lexicon(write_lexicon_csv(tmp_path / "b.csv", rows[::-1]))
        assert [c.id for c in a.concepts] == [c.id for c in b.concepts]
        assert [c.terms() for c in a.concepts] == [c.terms() for c in b.concepts]
        assert a.term_index == b.term_index


PARSER_ERRORS = {
    "header mismatch": (
        "# comment\nconcept_id,term,is_preferred,parent_ids\nC1,a,true,\n",
        "line 2: expected header concept_id,term,is_preferred,parent_ids,group",
    ),
    "oversized header field": (
        "concept_id," + "x" * 131073 + "\n",
        "line 1: field larger than field limit (131072)",
    ),
    "wrong column count": (["C1,only,three"], "line 2: expected 5 columns, got 3"),
    "empty id": ([" ,a term,true,,g"], "line 2: empty concept_id"),
    "empty term": (["C1, ,true,,g"], "line 2: empty term for concept C1"),
    "bad is_preferred": (["C1,a,maybe,,g"], "line 2: invalid is_preferred value 'maybe'"),
    "conflicting groups": (
        ["C1,a,true,,g1", "C1,b,false,,", "C1,c,false,,g2"],
        "line 4: concept C1 has conflicting groups 'g1' and 'g2'",
    ),
    "two preferred terms": (
        ["C1,a,true,,g", "C1,A,true,,g", "C1,b,true,,g"],
        "line 4: concept C1 has two preferred terms ('a', 'b')",
    ),
    "no preferred term": (
        ["C0,x,true,,g", "C1,a,false,,g", "C1,b,false,,g"],
        "line 3: concept C1 has no preferred term",
    ),
    "unknown parent": (["C1,a,true,C9,g"], "concept C1 lists unknown parent 'C9'"),
    "cycle": (
        ["CB,b,true,CA,g", "CA,a,true,CC,g", "CC,c,true,CB,g", "C0,x,true,,g"],
        "hierarchy cycle involving concept CA",
    ),
    "two errors, the earlier reported": (
        ["C1,only,three", "C2,a,maybe,,g"],
        "line 2: expected 5 columns, got 3",
    ),
}


@pytest.mark.parametrize("content, reason", PARSER_ERRORS.values(), ids=PARSER_ERRORS.keys())
def test_parser_error_names_file_line_and_reason(tmp_path, content, reason):
    path = tmp_path / "lex.csv"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8")
    else:
        write_lexicon_csv(path, content)
    with pytest.raises(LexiconError) as excinfo:
        load_lexicon(path)
    assert str(excinfo.value) == f"{path}: {reason}"


def test_synonyms_keep_file_order_and_first_spelling(tmp_path):
    path = write_lexicon_csv(
        tmp_path / "lex.csv",
        [
            "C1,Abuse,true,,g",
            "C1,maltreatment,false,,g",
            "C1,ABUSE,false,,g",
            "C1,Maltreatment,false,,g",
            "C1,neglect,false,,g",
            "C2,harm,false,,g",
            "C2,Harm,true,,g",
        ],
    )
    lexicon = load_lexicon(path)
    assert lexicon.get("C1").preferred_name == "Abuse"
    assert lexicon.get("C1").synonyms == ("maltreatment", "neglect")
    assert lexicon.get("C2").terms() == ("Harm",)
    assert lexicon.term_index == {
        "abuse": ("C1",), "maltreatment": ("C1",), "neglect": ("C1",), "harm": ("C2",)
    }


def random_dag_rows(rng, n=30):
    # Parents only point at lower-numbered concepts, so the file is acyclic.
    rows = []
    for i in range(n):
        n_parents = int(rng.integers(0, min(i, 3) + 1))
        parents = sorted(
            {f"C{int(p):02d}" for p in rng.choice(i, size=n_parents, replace=False)}
        ) if n_parents else []
        rows.append(f"C{i:02d},term {i},true,{';'.join(parents)},g")
    return rows


class TestLeavesAndDescendants:
    def test_chain_leaf(self, tmp_path):
        lexicon = load_lexicon(make_chain(tmp_path))
        assert extract_leaf_concepts(lexicon) == {"C2"}

    def test_no_edges_all_leaves(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "flat.csv",
            ["C0,t zero,true,,g", "C1,t one,true,,g"],
        )
        lexicon = load_lexicon(path)
        assert extract_leaf_concepts(lexicon) == {"C0", "C1"}

    def test_leaves_match_brute_force_on_random_dags(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(20):
            rows = random_dag_rows(rng)
            lexicon = load_lexicon(write_lexicon_csv(tmp_path / "dag.csv", rows))
            brute = {
                c.id
                for c in lexicon.concepts
                if not any(c.id in other.parents for other in lexicon.concepts)
            }
            assert extract_leaf_concepts(lexicon) == brute

    def test_chain_descendants(self, tmp_path):
        lexicon = load_lexicon(make_chain(tmp_path))
        assert expand_descendants(lexicon, {"C0"}) == {"C0", "C1", "C2"}
        assert expand_descendants(lexicon, {"C2"}) == {"C2"}

    def test_unknown_root_is_error(self, tmp_path):
        lexicon = load_lexicon(make_chain(tmp_path))
        with pytest.raises(LexiconError, match="C9"):
            expand_descendants(lexicon, {"C9"})

    def test_descendants_match_iterative_closure(self, tmp_path):
        rng = np.random.default_rng(12)
        for trial in range(20):
            rows = random_dag_rows(rng)
            lexicon = load_lexicon(write_lexicon_csv(tmp_path / "dag.csv", rows))
            ids = [c.id for c in lexicon.concepts]
            n_roots = int(rng.integers(1, 6))
            roots = {ids[int(j)] for j in rng.choice(len(ids), n_roots, replace=False)}
            edges = [
                (pid, c.id) for c in lexicon.concepts for pid in c.parents
            ]
            closure = set(roots)
            changed = True
            while changed:
                changed = False
                for parent, child in edges:
                    if parent in closure and child not in closure:
                        closure.add(child)
                        changed = True
            result = expand_descendants(lexicon, roots)
            assert result == closure
            # Closure is idempotent and contains its roots.
            assert expand_descendants(lexicon, result) == result
            assert roots <= result

    def test_descendants_monotone_in_roots(self, tmp_path):
        rng = np.random.default_rng(13)
        rows = random_dag_rows(rng)
        lexicon = load_lexicon(write_lexicon_csv(tmp_path / "dag.csv", rows))
        ids = [c.id for c in lexicon.concepts]
        small = {ids[3], ids[17]}
        large = small | {ids[8], ids[25]}
        assert expand_descendants(lexicon, small) <= expand_descendants(lexicon, large)


class TestBuildVocabulary:
    def test_pattern_count(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "lex.csv",
            [
                "C1,child abuse,true,C0,ACE",
                "C1,abuse of child,false,C0,ACE",
                "C0,adverse experience,true,,ACE",
            ],
        )
        lexicon = load_lexicon(path)
        vocab = build_vocabulary(lexicon, {"C0", "C1"})
        assert len(vocab) == 3
        assert lexicon.n_terms() == 3
        assert vocab.longest == {"abuse": 3, "adverse": 2, "child": 2}

    def test_shared_term_maps_to_both_concepts(self, tmp_path):
        path = write_lexicon_csv(
            tmp_path / "lex.csv",
            [
                "C1,major depression,true,,g",
                "C1,depression,false,,g",
                "C2,mood trouble,true,,g",
                "C2,depression,false,,g",
            ],
        )
        lexicon = load_lexicon(path)
        vocab = build_vocabulary(lexicon, {"C1", "C2"})
        assert vocab.terms[("depression",)] == ("C1", "C2")

    def test_empty_selection_is_error(self, tmp_path):
        lexicon = load_lexicon(make_chain(tmp_path))
        with pytest.raises(LexiconError, match="empty"):
            build_vocabulary(lexicon, set())

    def test_selection_restricts_terms(self, tmp_path):
        lexicon = load_lexicon(make_chain(tmp_path))
        vocab = build_vocabulary(lexicon, {"C2"})
        assert len(vocab) == 1
        assert vocab.terms == {("leaf", "term"): ("C2",)}
