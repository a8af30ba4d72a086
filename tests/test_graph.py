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
    write_pairs,
    write_records,
)


def rec(person, title, start, end=None, company="c1"):
    return JobRecord(
        person_id=person,
        title=title,
        company_id=company,
        start=date.fromisoformat(start),
        end=date.fromisoformat(end) if end else None,
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
    graph = build_transition_graph(records)
    assert graph.nodes == {"a", "b"}
    assert graph.edge_counts == {("a", "b"): 1}
    assert graph.weights[("a", "b")] == 1.0


def test_repeated_transition_normalizes_to_one():
    records = [
        rec("p1", "A", "2019-01-01", "2020-01-01"), rec("p1", "B", "2020-01-01"),
        rec("p2", "A", "2018-01-01", "2019-01-01"), rec("p2", "B", "2019-02-01"),
    ]
    graph = build_transition_graph(records)
    assert graph.edge_counts == {("a", "b"): 2}
    assert graph.weights[("a", "b")] == 1.0


def test_three_transition_weights():
    records = [
        rec("p1", "A", "2015-01-01", "2016-01-01"),
        rec("p1", "B", "2016-01-01", "2017-01-01"),
        rec("p1", "C", "2017-01-01"),
        rec("p2", "A", "2015-01-01", "2016-01-01"),
        rec("p2", "C", "2016-01-01"),
    ]
    graph = build_transition_graph(records)
    assert set(graph.edge_counts) == {("a", "b"), ("b", "c"), ("a", "c")}
    for weight in graph.weights.values():
        assert weight == pytest.approx(1 / 3)


def test_weights_sum_to_one_on_random_graphs():
    rng = np.random.default_rng(7)
    records = []
    for p in range(30):
        start = date(2010, 1, 1)
        for j in range(int(rng.integers(1, 6))):
            nxt = date(2010 + j + 1, 1, 1)
            records.append(rec(f"p{p}", f"t{rng.integers(8)}", start.isoformat(), nxt.isoformat()))
            start = nxt
    graph = build_transition_graph(records)
    assert sum(graph.weights.values()) == pytest.approx(1.0, abs=1e-9)


def test_graph_is_person_order_insensitive():
    rng = np.random.default_rng(8)
    records = []
    for p in range(10):
        records.append(rec(f"p{p}", "A", "2019-01-01", "2020-01-01"))
        records.append(rec(f"p{p}", f"t{p % 3}", "2020-01-01"))
    shuffled = list(records)
    rng.shuffle(shuffled)
    assert build_transition_graph(records).edge_counts == build_transition_graph(shuffled).edge_counts


def test_parent_child_orientation():
    # a move from SWE to MLE makes MLE the parent
    records = [rec("p", "SWE", "2018-01-01", "2020-01-01"), rec("p", "MLE", "2020-01-01")]
    assert extract_parent_child_pairs(records) == [ParentChildPair(parent="mle", child="swe")]


def test_single_job_resume_has_no_pairs():
    assert extract_parent_child_pairs([rec("p", "A", "2020-01-01")]) == []


def test_five_job_resume_has_four_pairs():
    records = [
        rec("p", f"T{i}", f"201{i}-01-01", f"201{i + 1}-01-01") for i in range(5)
    ]
    assert len(extract_parent_child_pairs(records)) == 4


def test_self_transition_counts_in_graph_but_not_pairs():
    records = [
        rec("p", "Engineer", "2018-01-01", "2019-01-01"),
        rec("p", "engineer  ", "2019-01-01", "2020-01-01"),
        rec("p", "Manager", "2020-01-01"),
    ]
    graph = build_transition_graph(records)
    assert graph.edge_counts[("engineer", "engineer")] == 1
    pairs = extract_parent_child_pairs(records)
    assert pairs == [ParentChildPair(parent="manager", child="engineer")]


def test_duplicate_pairs_are_preserved():
    records = []
    for p in ("p1", "p2"):
        records.append(rec(p, "A", "2019-01-01", "2020-01-01"))
        records.append(rec(p, "B", "2020-01-01"))
    assert extract_parent_child_pairs(records).count(ParentChildPair("b", "a")) == 2


def test_start_tie_breaks_by_end_then_input_order():
    records = [
        rec("p", "later", "2020-01-01", "2021-06-01"),
        rec("p", "earlier", "2020-01-01", "2020-06-01"),
    ]
    pairs = extract_parent_child_pairs(records)
    assert pairs == [ParentChildPair(parent="later", child="earlier")]
    # identical (start, end): stable input order decides
    records = [
        rec("p", "first", "2020-01-01", "2020-06-01"),
        rec("p", "second", "2020-01-01", "2020-06-01"),
    ]
    assert extract_parent_child_pairs(records) == [ParentChildPair(parent="second", child="first")]


def test_jsonl_round_trip(tmp_path):
    records = [
        rec("p1", "Café Manager", "2019-01-01", "2020-01-01"),
        rec("p1", "Chef", "2020-01-01"),
    ]
    path = tmp_path / "resumes.jsonl"
    write_records(path, records)
    loaded = load_records(path)
    assert loaded == records


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


def test_pairs_file_round_trip(tmp_path):
    pairs = [ParentChildPair("mle", "swe"), ParentChildPair("cto", "mle")]
    path = tmp_path / "pairs.tsv"
    write_pairs(path, pairs)
    assert load_pairs(path) == pairs


def test_pairs_file_header_enforced(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("a\tb\n")
    with pytest.raises(FormatError):
        load_pairs(path)
