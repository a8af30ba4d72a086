import json
from datetime import date

import numpy as np
import pytest

from titlemap.errors import DataError, DegenerateInputError, FormatError
from titlemap.graph import (
    RECORD_FIELDS,
    JobRecord,
    ParentChildPair,
    build_transition_graph,
    canonicalize_title,
    extract_parent_child_pairs,
    load_pairs,
    load_records,
    person_sequences,
    write_pairs,
    write_records,
)

from helpers import line_by_line_load_records, load_outcome


def rec(person, title, start, end=None, company="c1"):
    """A record with the key `load_records` would give its title."""
    return JobRecord(
        person_id=person,
        title=title,
        company_id=company,
        start=date.fromisoformat(start),
        end=date.fromisoformat(end) if end else None,
        canonical_title=canonicalize_title(title),
    )


def test_canonicalize_collapses_whitespace_and_case():
    assert canonicalize_title("  Software   Engineer ") == "software engineer"


def test_canonicalize_lowercases_acronyms():
    assert canonicalize_title("SDE") == "sde"


def test_canonicalize_strips_control_characters():
    # \x00 is a control char, ​ a format char; both go
    assert canonicalize_title("data\x00 scientist​") == "data scientist"


def test_canonicalize_is_idempotent_on_random_strings():
    rng = np.random.default_rng(4)
    alphabet = list("abc XYZ \t\n-_/0009é你")
    for _ in range(200):
        raw = "".join(rng.choice(alphabet, size=rng.integers(1, 30)))
        try:
            once = canonicalize_title(raw)
        except DegenerateInputError:
            continue
        assert canonicalize_title(once) == once


def test_canonicalize_rejects_empty():
    with pytest.raises(DegenerateInputError):
        canonicalize_title(" \t ")


def test_record_rejects_start_after_end():
    with pytest.raises(DataError):
        rec("p", "engineer", "2020-05-01", "2020-04-01")


def test_single_transition_graph():
    records = [rec("p", "A", "2019-01-01", "2020-01-01"), rec("p", "B", "2020-01-01")]
    counts = build_transition_graph(person_sequences(records))
    assert counts == {"nodes": 2, "edges": 1, "transitions": 1}


def test_repeated_transition_is_one_edge():
    records = [
        rec("p1", "A", "2019-01-01", "2020-01-01"), rec("p1", "B", "2020-01-01"),
        rec("p2", "A", "2018-01-01", "2019-01-01"), rec("p2", "B", "2019-02-01"),
    ]
    counts = build_transition_graph(person_sequences(records))
    assert counts == {"nodes": 2, "edges": 1, "transitions": 2}


def test_three_transition_counts():
    records = [
        rec("p1", "A", "2015-01-01", "2016-01-01"),
        rec("p1", "B", "2016-01-01", "2017-01-01"),
        rec("p1", "C", "2017-01-01"),
        rec("p2", "A", "2015-01-01", "2016-01-01"),
        rec("p2", "C", "2016-01-01"),
    ]
    counts = build_transition_graph(person_sequences(records))
    assert counts == {"nodes": 3, "edges": 3, "transitions": 3}


def test_counts_on_random_graphs():
    rng = np.random.default_rng(7)
    records = []
    for p in range(30):
        start = date(2010, 1, 1)
        for j in range(int(rng.integers(1, 6))):
            nxt = date(2010 + j + 1, 1, 1)
            records.append(rec(f"p{p}", f"t{rng.integers(8)}", start.isoformat(), nxt.isoformat()))
            start = nxt
    sequences = person_sequences(records)
    moves = [move for seq in sequences for move in zip(seq, seq[1:])]
    assert build_transition_graph(sequences) == {
        "nodes": len({r.canonical_title for r in records}),
        "edges": len(set(moves)),
        "transitions": len(records) - len({r.person_id for r in records}),
    }
    assert len(set(moves)) < len(moves)  # some move repeats


def test_graph_is_person_order_insensitive():
    rng = np.random.default_rng(8)
    records = []
    for p in range(10):
        records.append(rec(f"p{p}", "A", "2019-01-01", "2020-01-01"))
        records.append(rec(f"p{p}", f"t{p % 3}", "2020-01-01"))
    shuffled = list(records)
    rng.shuffle(shuffled)
    counts, again = (build_transition_graph(person_sequences(r)) for r in (records, shuffled))
    assert counts == again == {"nodes": 4, "edges": 3, "transitions": 10}


def test_parent_child_orientation():
    # a move from SWE to MLE makes MLE the parent
    records = [rec("p", "SWE", "2018-01-01", "2020-01-01"), rec("p", "MLE", "2020-01-01")]
    pairs = extract_parent_child_pairs(person_sequences(records))
    assert pairs == [ParentChildPair(parent="mle", child="swe")]


def test_single_job_resume_has_no_pairs():
    assert extract_parent_child_pairs(person_sequences([rec("p", "A", "2020-01-01")])) == []


def test_five_job_resume_has_four_pairs():
    records = [
        rec("p", f"T{i}", f"201{i}-01-01", f"201{i + 1}-01-01") for i in range(5)
    ]
    assert len(extract_parent_child_pairs(person_sequences(records))) == 4


def test_self_transition_counts_in_graph_but_not_pairs():
    records = [
        rec("p", "Engineer", "2018-01-01", "2019-01-01"),
        rec("p", "engineer  ", "2019-01-01", "2020-01-01"),
        rec("p", "Manager", "2020-01-01"),
    ]
    sequences = person_sequences(records)
    assert build_transition_graph(sequences) == {"nodes": 2, "edges": 2, "transitions": 2}
    pairs = extract_parent_child_pairs(sequences)
    assert pairs == [ParentChildPair(parent="manager", child="engineer")]


def test_duplicate_pairs_are_preserved():
    records = []
    for p in ("p1", "p2"):
        records.append(rec(p, "A", "2019-01-01", "2020-01-01"))
        records.append(rec(p, "B", "2020-01-01"))
    pairs = extract_parent_child_pairs(person_sequences(records))
    assert pairs.count(ParentChildPair("b", "a")) == 2


def test_start_tie_breaks_by_end_then_input_order():
    records = [
        rec("p", "later", "2020-01-01", "2021-06-01"),
        rec("p", "earlier", "2020-01-01", "2020-06-01"),
    ]
    pairs = extract_parent_child_pairs(person_sequences(records))
    assert pairs == [ParentChildPair(parent="later", child="earlier")]
    # identical (start, end): stable input order decides
    records = [
        rec("p", "first", "2020-01-01", "2020-06-01"),
        rec("p", "second", "2020-01-01", "2020-06-01"),
    ]
    pairs = extract_parent_child_pairs(person_sequences(records))
    assert pairs == [ParentChildPair(parent="second", child="first")]


def test_jsonl_round_trip(tmp_path):
    """Each written line is the one `json.dumps(row, ensure_ascii=False)`
    writes for the five fields in `RECORD_FIELDS` order, with titles and ids
    that need escaping, raw non-ASCII, and an open-ended job; the records
    read back equal, with the same canonical titles."""
    records = [
        rec("p1", "Café Manager", "2019-01-01", "2020-01-01"),
        rec('p"1', 'Head "Chef"', "2020-01-01", "2020-06-30", company='c\\1'),
        rec("p\\2", "back\\slash\tlead", "2001-02-03", "2001-02-03"),
        rec("p2", "unit\x1fseparator officer", "2003-04-05", "2009-12-31", company="c\x1f"),
        rec("p3", "日本語 エンジニア", "1999-12-31", "2000-01-01", company="会社"),
        rec("p3", "line\u2028sep 🚀 pilot", "2000-01-01"),
    ]
    path = tmp_path / "resumes.jsonl"
    write_records(path, records)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    expected = [
        json.dumps({"person_id": r.person_id, "title": r.title, "company_id": r.company_id,
                    "start": r.start.isoformat(),
                    "end": None if r.end is None else r.end.isoformat()}, ensure_ascii=False)
        for r in records
    ]
    assert lines == expected
    assert [list(json.loads(line)) for line in lines] == [list(RECORD_FIELDS)] * len(records)
    loaded = load_records(path)
    assert loaded == records
    assert [r.canonical_title for r in loaded] == [r.canonical_title for r in records]


def test_written_record_line_holds_exactly_the_five_fields(tmp_path):
    record = rec("p1", "  Café   Manager ", "2019-01-01")
    assert record.canonical_title == "café manager"
    path = tmp_path / "resumes.jsonl"
    write_records(path, [record])
    assert list(json.loads(path.read_text())) == list(RECORD_FIELDS)


def test_jsonl_bad_json_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"person_id": "p", "title": "t", "company_id": "c", "start": "2020-01-01", "end": null}\nnot json\n')
    with pytest.raises(FormatError, match=":2"):
        load_records(path)


def test_jsonl_wrong_fields_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"person": "p"}) + "\n")
    with pytest.raises(FormatError, match="person_id"):
        load_records(path)


@pytest.mark.parametrize("field, value", [("person_id", 7), ("title", None), ("company_id", ["c"])],
                         ids=["person-id-number", "title-null", "company-id-list"])
def test_jsonl_non_string_id_or_title_rejected(tmp_path, field, value):
    # not coerced: a null title would read as "none", person 7 would merge with "7"
    row = {"person_id": "p", "title": "chef", "company_id": "c", "start": "2020-01-01",
           "end": None, field: value}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({**row, field: "ok"}) + "\n" + json.dumps(row) + "\n")
    with pytest.raises(FormatError, match=f"bad.jsonl:2: {field} must be a JSON string"):
        load_records(path)


def test_jsonl_bad_date_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        json.dumps({"person_id": "p", "title": "t", "company_id": "c",
                    "start": "20-01-01x", "end": None}) + "\n"
    )
    with pytest.raises(FormatError, match=":1"):
        load_records(path)


def _line(**fields) -> str:
    row = {"person_id": "p1", "title": "chef", "company_id": "c1",
           "start": "2010-01-01", "end": "2012-05-01", **fields}
    return json.dumps(row, ensure_ascii=False)


_LINE = _line()


@pytest.mark.parametrize("lines", [
    [_LINE, _LINE, '{"person_id": "p1", "title": '],
    [_LINE, _LINE + " " + _LINE],
    [_LINE, _LINE[:40], _LINE[40:]],
    [_LINE.replace('"chef"', '"che\\ud800f"')],
    [_LINE, _line(salary=1)],
    [_line(title=["chef"])],
    [_line(person_id=7)],
    [_LINE, _line(start="2013-01-01")],
    [_line(start="2010-02-30")],
    ["", _line(title="\u200b")],
    [_LINE, "[1, 2]"],
    ["\ufeff" + _LINE],
], ids=["invalid-json-line-3", "two-objects-on-a-line", "object-split-over-two-lines",
        "lone-surrogate-title", "extra-field", "non-string-title", "non-string-person-id",
        "start-after-end", "bad-date", "title-empty-after-canonicalization", "array-line",
        "byte-order-mark"])
def test_record_reader_errors_equal_the_line_by_line_oracle(tmp_path, lines):
    """Each malformed file ends in the oracle's error type and message, which
    names the same `path:line`."""
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = load_outcome(line_by_line_load_records, path)
    assert isinstance(expected, tuple)
    assert load_outcome(load_records, path) == expected


def test_record_reader_equals_the_oracle_on_blank_lines_and_crlf(tmp_path):
    """Blank lines are skipped, CRLF endings and JSON whitespace around an
    object are read, and a `\\u` escape decodes, as the oracle does them."""
    path = tmp_path / "resumes.jsonl"
    lines = ["", _LINE, "  \t", _line(title="Head  Chef", end=None), " " + _line(person_id="p2"),
             _LINE.replace('"chef"', '"sous\\u0020chef"') + "\t", ""]
    path.write_bytes("\r\n".join(lines).encode("utf-8"))
    loaded = load_records(path)
    assert loaded == line_by_line_load_records(path)
    assert [(r.person_id, r.canonical_title) for r in loaded] == [
        ("p1", "chef"), ("p1", "head chef"), ("p2", "chef"), ("p1", "sous chef")]


def test_pairs_file_round_trip(tmp_path):
    pairs = [ParentChildPair("mle", "swe"), ParentChildPair("cto", "mle")]
    path = tmp_path / "pairs.tsv"
    write_pairs(path, pairs)
    assert load_pairs(path) == pairs


def test_pairs_file_titles_are_canonicalized(tmp_path):
    # two spellings of one title are one node, as build-graph would write them
    path = tmp_path / "pairs.tsv"
    path.write_text("#pairs\tchild\tparent\nData Analyst\tsenior analyst\n"
                    "data  analyst\tSenior Analyst\n")
    assert load_pairs(path) == [ParentChildPair("senior analyst", "data analyst")] * 2


@pytest.mark.parametrize("row", ["\u200b\tchef", "chef\t \x01 "])
def test_pairs_file_title_empty_after_canonicalization_names_line(tmp_path, row):
    path = tmp_path / "pairs.tsv"
    path.write_text(f"#pairs\tchild\tparent\ncook\tchef\n{row}\n")
    with pytest.raises(FormatError, match=r"pairs\.tsv:3: "):
        load_pairs(path)


def test_pairs_file_self_transition_names_line(tmp_path):
    # extract_parent_child_pairs never writes one; a parent is another title
    path = tmp_path / "pairs.tsv"
    path.write_text("#pairs\tchild\tparent\ncook\tchef\nChef\t chef\n")
    with pytest.raises(FormatError, match=r"pairs\.tsv:3: .*same title 'chef'"):
        load_pairs(path)


def test_pairs_file_header_enforced(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\n")
    with pytest.raises(FormatError):
        load_pairs(path)
