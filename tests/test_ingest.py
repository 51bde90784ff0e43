import json
import re

import pytest

from conceptmine.evaluate import GoldError, load_gold
from conceptmine.ingest import Corpus, CorpusError, Document, load_corpus, save_corpus
from conceptmine.ner import Mention, mention_line, read_mentions
from conceptmine.selflabel import read_scored


def write_jsonl(path, records):
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def test_three_lines_sorted_by_id(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "b", "text": "second"},
            {"id": "c", "text": "third", "subreddit": "r/x"},
            {"id": "a", "text": "first"},
        ],
    )
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.doc_ids() == ("a", "b", "c")
    assert corpus.docs[corpus.index_of("c")].meta == {"subreddit": "r/x"}


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    assert len(load_corpus(path)) == 0


def test_duplicate_id_is_error(tmp_path):
    path = write_jsonl(
        tmp_path / "dup.jsonl",
        [{"id": "a", "text": "one"}, {"id": "a", "text": "two"}],
    )
    with pytest.raises(CorpusError, match="duplicate doc id 'a'"):
        load_corpus(path)


def test_doc_id_with_newline_is_error(tmp_path):
    # doc_order.txt holds one id per line, so no id can carry a newline.
    path = write_jsonl(
        tmp_path / "bad.jsonl",
        [{"id": "a", "text": "one"}, {"id": "b\nc", "text": "two"}],
    )
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 2: doc id 'b\\nc'")):
        load_corpus(path)


@pytest.mark.parametrize(
    ("record", "reason"),
    [
        ({"id": "a\ud800", "text": "one"}, "doc id 'a\\ud800' is not valid UTF-8"),
        ({"id": "a", "text": "self\ud800harm"}, "text of doc 'a' is not valid UTF-8"),
    ],
    ids=["id", "text"],
)
def test_doc_id_with_lone_surrogate_is_error(tmp_path, record, reason):
    # A JSON escape can name a lone surrogate, which no UTF-8 output file
    # can hold: loading fails on it, not a later stage's writer.
    path = write_jsonl(tmp_path / "bad.jsonl", [record])
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 1: {reason}")):
        load_corpus(path)


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "text": "ok"}\n{not json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_missing_text_is_error(tmp_path):
    path = write_jsonl(tmp_path / "bad.jsonl", [{"id": "a"}])
    with pytest.raises(CorpusError, match="text"):
        load_corpus(path)


def test_empty_text_documents_are_kept(tmp_path):
    path = write_jsonl(tmp_path / "c.jsonl", [{"id": "a", "text": ""}])
    corpus = load_corpus(path)
    assert corpus.docs[corpus.index_of("a")].text == ""


def test_round_trip_stability(tmp_path):
    path = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {"id": "b", "text": "hello", "score": 3, "flag": True},
            {"id": "a", "text": "", "note": "x"},
        ],
    )
    first = load_corpus(path)
    out = tmp_path / "resaved.jsonl"
    save_corpus(first, out)
    second = load_corpus(out)
    assert first.docs == second.docs
    # Non-string metadata is canonicalized to strings on first load.
    assert first.docs[first.index_of("b")].meta == {"score": "3", "flag": "true"}


def test_order_independent_of_line_order(tmp_path):
    records = [{"id": f"d{i}", "text": f"t{i}"} for i in range(5)]
    a = load_corpus(write_jsonl(tmp_path / "a.jsonl", records))
    b = load_corpus(write_jsonl(tmp_path / "b.jsonl", records[::-1]))
    assert a.docs == b.docs


def test_index_of_unknown_doc(tmp_path):
    corpus = Corpus(docs=(Document(doc_id="a", text=""),))
    with pytest.raises(CorpusError, match="unknown doc"):
        corpus.index_of("zzz")


MENTION = json.loads(mention_line(Mention("a", "C1", 0, 1, "x")))

# reader, error class, one good record, a key the reader requires
JSONL_FORMATS = {
    "corpus": (load_corpus, CorpusError, {"id": "a", "text": "x"}, "text"),
    "gold": (
        load_gold, GoldError,
        {"doc_id": "a", "start": 0, "end": 1, "label": "NLP_TRUE"}, "label",
    ),
    "mentions": (read_mentions, ValueError, MENTION, "surface"),
    "scored": (read_scored, ValueError, {**MENTION, "score": 0.5}, "score"),
}


@pytest.mark.parametrize("defect, reason", [
    ("cut", "invalid JSON"),
    ("list", "expected a JSON object"),
    ("missing", "missing"),
])
@pytest.mark.parametrize("fmt", sorted(JSONL_FORMATS))
def test_bad_line_names_file_and_line(tmp_path, fmt, defect, reason):
    reader, error, good, key = JSONL_FORMATS[fmt]
    bad = {
        "cut": json.dumps(good)[:-5],
        "list": json.dumps([good]),
        "missing": json.dumps({k: v for k, v in good.items() if k != key}),
    }[defect]
    path = tmp_path / f"{fmt}.jsonl"
    # Blank lines still count: the bad record is on line 4.
    path.write_text(f"{json.dumps(good)}\n\n  \n{bad}\n", encoding="utf-8")
    with pytest.raises(error, match=re.escape(f"{path}: line 4: {reason}")):
        reader(path)
    if defect == "missing" and fmt != "corpus":
        with pytest.raises(error, match=f"missing field '{key}'"):
            reader(path)


def test_writers_keep_non_ascii_text(tmp_path):
    path = tmp_path / "c.jsonl"
    save_corpus(Corpus(docs=(Document(doc_id="a", text="naïve café"),)), path)
    assert path.read_text(encoding="utf-8") == '{"id": "a", "text": "naïve café"}\n'
