"""File format parsing, validation and round-trip behaviour."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drstd.corpus_io import (Candidate, FormatError, RefOccurrence,
                             normalize_token, parse_cn_corpus,
                             parse_keyword_list, parse_occurrence_table,
                             quantize_score, write_candidates,
                             write_cn_corpus, write_keyword_list,
                             write_references)

from conftest import random_candidates, random_corpus


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCnCorpusParsing:
    def test_single_doc(self, tmp_path):
        p = tmp_path / "c.jsonl"
        doc = {"doc_id": "d1", "slots": [
            {"start": 0.0, "dur": 0.4, "arcs": [["cat", 0.7], ["<eps>", 0.3]]}]}
        p.write_text(json.dumps(doc) + "\n")
        docs = list(parse_cn_corpus(p))
        assert len(docs) == 1
        assert len(docs[0].slots) == 1
        assert len(docs[0].slots[0].arcs) == 2
        assert docs[0].slots[0].arcs[0] == ("cat", 0.7)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("")
        assert list(parse_cn_corpus(p)) == []

    def test_posterior_sum_violation(self, tmp_path):
        p = tmp_path / "c.jsonl"
        doc = {"doc_id": "d1", "slots": [
            {"start": 0.0, "dur": 0.4, "arcs": [["a", 0.6], ["b", 0.6]]}]}
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="posterior sum"):
            list(parse_cn_corpus(p))

    def test_duplicate_doc_id(self, tmp_path):
        p = tmp_path / "c.jsonl"
        doc = {"doc_id": "d1", "slots": [
            {"start": 0.0, "dur": 0.4, "arcs": [["a", 1.0]]}]}
        p.write_text(json.dumps(doc) + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="duplicate doc_id"):
            list(parse_cn_corpus(p))

    def test_malformed_line_reports_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        good = json.dumps({"doc_id": "d1", "slots": []})
        p.write_text(good + "\n{not json\n")
        with pytest.raises(FormatError) as exc:
            list(parse_cn_corpus(p))
        assert exc.value.line == 2

    @pytest.mark.parametrize("slot,message", [
        ({"start": 0.0, "dur": -0.1, "arcs": [["a", 1.0]]}, "negative duration"),
        ({"start": 0.0, "dur": 0.1, "arcs": []}, "no arcs"),
        ({"start": 0.0, "dur": 0.1, "arcs": [["a", 0.0], ["b", 1.0]]}, "outside"),
        ({"start": 0.0, "dur": 0.1, "arcs": [["a", 1.5]]}, "outside"),
        ({"start": 0.0, "dur": 0.1,
          "arcs": [["<eps>", 0.5], ["<eps>", 0.5]]}, "more than one"),
    ])
    def test_invariant_rejections(self, tmp_path, slot, message):
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps({"doc_id": "d1", "slots": [slot]}) + "\n")
        with pytest.raises(FormatError, match=message):
            list(parse_cn_corpus(p))

    @pytest.mark.parametrize("line,message", [
        ('{"doc_id": "d1", "slots": 5}', "slots of doc 'd1' is not a list"),
        ('{"doc_id": "d1", "slots": {"start": 0}}', "is not a list"),
        ('{"doc_id": "d1", "slots": ["x"]}', "malformed slot"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, "arcs": 5}]}',
         "arcs is not a list"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, "arcs": {"a1": 1}}]}',
         "arcs is not a list"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, "arcs": ["a1"]}]}',
         "not a \\[token, posterior\\] pair"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, '
         '"arcs": [["a", 1.0, 2]]}]}', "pair"),
        ('{"doc_id": "d1", "slots": [{"dur": 1, "arcs": [["a", 1.0]]}]}',
         "'start'"),
        ('{"doc_id": 7, "slots": []}', "doc_id must be"),
        ('{"doc_id": "a\\tb", "slots": []}', "doc_id 'a\\\\tb' holds a tab"),
        ('{"doc_id": "a\\nb", "slots": []}', "doc_id 'a\\\\nb' holds a tab"),
        ('{"doc_id": "a\\rb", "slots": []}', "doc_id 'a\\\\rb' holds a tab"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, "arcs": [["", 1.0]]}]}',
         "doc 'd1' slot 0: arc token '' is empty or holds whitespace"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, '
         '"arcs": [["a", 0.5], ["b\\u00a0c", 0.5]]}]}',
         "doc 'd1' slot 0: arc token 'b\\\\xa0c' is empty or holds whitespace"),
        ('{"doc_id": "d1", "slots": [{"start": 1e308, "dur": 1e308, '
         '"arcs": [["a", 1.0]]}]}',
         "doc 'd1' slot 0: span from the first slot start 1e\\+308 to end "
         "1e\\+308 \\+ 1e\\+308 is not finite"),
        ('{"doc_id": "d1", "slots": [{"start": -1e308, "dur": 0, '
         '"arcs": [["a", 1.0]]}, {"start": 1e308, "dur": 0, '
         '"arcs": [["a", 1.0]]}]}', "doc 'd1' slot 1: span"),
        ('{"slots": []}', "missing field 'doc_id'"),
        ('[1, 2]', "not a JSON object"),
        ('[' * 100000, "malformed JSON"),
    ])
    def test_malformed_structure_rejected(self, tmp_path, line, message):
        p = tmp_path / "c.jsonl"
        p.write_text(line + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            list(parse_cn_corpus(p))
        assert str(exc.value).startswith(f"{p}:1: ")

    @pytest.mark.parametrize("field", ["start", "dur", "posterior"])
    @pytest.mark.parametrize("value,message", [
        ("1e999", "not finite"), ('"inf"', "not finite"),
        ('"-inf"', "not finite"), ('"nan"', "not finite"),
        ("Infinity", "non-finite number Infinity"),
        ("-Infinity", "non-finite number -Infinity"),
        ("NaN", "non-finite number NaN"), ("null", "not a number"),
        ('"x"', "not a number"), ("[]", "not a number"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, field, value, message):
        slot = {"start": "0.0", "dur": "0.5", "posterior": "1.0"}
        slot[field] = value
        p = tmp_path / "c.jsonl"
        p.write_text(f'{{"doc_id": "d1", "slots": [{{"start": {slot["start"]}, '
                     f'"dur": {slot["dur"]}, '
                     f'"arcs": [["a", {slot["posterior"]}]]}}]}}\n')
        with pytest.raises(FormatError, match=message) as exc:
            list(parse_cn_corpus(p))
        assert str(exc.value).startswith(f"{p}:1: ")

    def test_error_after_valid_documents_surfaces_on_reaching_it(self, tmp_path):
        p = tmp_path / "c.jsonl"
        good = {"doc_id": "d1", "slots": []}
        p.write_text(json.dumps(good) + "\n" + '{"doc_id": "d2", "slots": 5}\n')
        docs = parse_cn_corpus(p)
        assert next(docs).doc_id == "d1"
        with pytest.raises(FormatError) as exc:
            next(docs)
        assert exc.value.line == 2

    def test_start_times_must_be_nondecreasing(self, tmp_path):
        p = tmp_path / "c.jsonl"
        doc = {"doc_id": "d1", "slots": [
            {"start": 1.0, "dur": 0.1, "arcs": [["a", 1.0]]},
            {"start": 0.5, "dur": 0.1, "arcs": [["a", 1.0]]}]}
        p.write_text(json.dumps(doc) + "\n")
        with pytest.raises(FormatError, match="precedes"):
            list(parse_cn_corpus(p))

    def test_tokens_normalized_at_parse(self, tmp_path):
        p = tmp_path / "c.jsonl"
        doc = {"doc_id": "d1", "slots": [
            {"start": 0.0, "dur": 0.4, "arcs": [["CaT", 1.0]]}]}
        p.write_text(json.dumps(doc) + "\n")
        assert next(parse_cn_corpus(p)).slots[0].arcs[0][0] == "cat"

    def test_corpus_round_trip(self, tmp_path):
        docs = random_corpus(np.random.default_rng(5), max_docs=20)
        p = tmp_path / "c.jsonl"
        write_cn_corpus(p, docs)
        assert list(parse_cn_corpus(p)) == docs


class TestKeywordParsing:
    def test_two_token_keyword(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW1\thello world"])
        entries = parse_keyword_list(p)
        assert entries[0].kw_id == "KW1"
        assert entries[0].tokens == ("hello", "world")

    def test_single_token(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW2\tcat"])
        assert parse_keyword_list(p)[0].tokens == ("cat",)

    def test_duplicate_kw_id(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW1\thello", "KW1\ta"])
        with pytest.raises(FormatError, match="duplicate kw_id"):
            parse_keyword_list(p)

    def test_blank_text(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW1\t "])
        with pytest.raises(FormatError, match="blank"):
            parse_keyword_list(p)

    def test_comments_ignored_and_text_normalized(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["# a comment", "KW1\tHello WORLD"])
        entries = parse_keyword_list(p)
        assert len(entries) == 1
        assert entries[0].tokens == ("hello", "world")

    def test_round_trip(self, tmp_path):
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW1\thello world", "KW2\tcat"])
        entries = parse_keyword_list(p)
        out = tmp_path / "out.tsv"
        write_keyword_list(out, entries)
        assert parse_keyword_list(out) == entries


class TestOccurrenceTables:
    def test_candidate_row(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20\t0.45\t0.87"])
        (cand,) = parse_occurrence_table(p, "candidate")
        assert cand == Candidate("KW1", "d1", 3.20, 0.45, 0.87)

    def test_ref_row(self, tmp_path):
        p = tmp_path / "ref.tsv"
        write_lines(p, ["KW1\td1\t3.20\t0.45"])
        (ref,) = parse_occurrence_table(p, "ref")
        assert ref == RefOccurrence("KW1", "d1", 3.20, 0.45)

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20\t0.45\t1.3"])
        with pytest.raises(FormatError, match="outside"):
            parse_occurrence_table(p, "candidate")

    def test_negative_duration(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20\t-0.1\t0.5"])
        with pytest.raises(FormatError, match="duration"):
            parse_occurrence_table(p, "candidate")

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20"])
        with pytest.raises(FormatError, match="columns"):
            parse_occurrence_table(p, "candidate")

    def test_decision_column(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20\t0.45\t0.87\tYES"])
        (cand,) = parse_occurrence_table(p, "candidate")
        assert cand.decision == "YES"

    def test_bad_decision_value(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW1\td1\t3.20\t0.45\t0.87\tmaybe"])
        with pytest.raises(FormatError, match="YES or NO"):
            parse_occurrence_table(p, "candidate")

    def test_rows_kept_in_file_order(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_lines(p, ["KW2\td1\t1.0\t0.2\t0.5", "KW1\td1\t0.0\t0.2\t0.5"])
        rows = parse_occurrence_table(p, "candidate")
        assert [r.kw_id for r in rows] == ["KW2", "KW1"]


    @pytest.mark.parametrize("kind,row,column", [
        ("candidate", ["K1", "d1", "{}", "0.45", "0.87"], "start"),
        ("candidate", ["K1", "d1", "3.2", "{}", "0.87"], "dur"),
        ("candidate", ["K1", "d1", "3.2", "0.45", "{}"], "score"),
        ("ref", ["K1", "d1", "{}", "0.45"], "start"),
        ("ref", ["K1", "d1", "3.2", "{}"], "dur"),
    ])
    @pytest.mark.parametrize("value,message", [
        ("inf", "not finite"), ("-inf", "not finite"), ("nan", "not finite"),
        ("1e999", "not finite"), ("Infinity", "not finite"),
        ("x", "not a number"), ("", "not a number"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, kind, row, column,
                                         value, message):
        p = tmp_path / "rows.tsv"
        write_lines(p, ["# header", "\t".join(row).format(value)])
        with pytest.raises(FormatError, match=f"column '{column}' is {message}"
                           ) as exc:
            parse_occurrence_table(p, kind)
        assert str(exc.value).startswith(f"{p}:2: ")


class TestCandidateWriting:
    def test_round_trip_100_random(self, tmp_path):
        cands = random_candidates(np.random.default_rng(1), 100)
        expected = sorted(
            (Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                       quantize_score(c.score)) for c in cands),
            key=Candidate.sort_key)
        p = tmp_path / "cand.tsv"
        write_candidates(p, cands)
        assert parse_occurrence_table(p, "candidate") == expected

    def test_empty_list_writes_header_comment(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_candidates(p, [])
        text = p.read_text()
        assert text.startswith("#")
        assert parse_occurrence_table(p, "candidate") == []

    def test_output_sorted(self, tmp_path):
        cands = [Candidate("KW2", "d1", 1.0, 0.2, 0.5),
                 Candidate("KW1", "d2", 0.0, 0.2, 0.5),
                 Candidate("KW1", "d1", 5.0, 0.2, 0.5)]
        p = tmp_path / "cand.tsv"
        write_candidates(p, cands)
        rows = parse_occurrence_table(p, "candidate")
        assert [(r.kw_id, r.doc_id, r.start) for r in rows] == [
            ("KW1", "d1", 5.0), ("KW1", "d2", 0.0), ("KW2", "d1", 1.0)]

    def test_reference_round_trip(self, tmp_path):
        refs = [RefOccurrence("KW1", "d1", 1.25, 0.5),
                RefOccurrence("KW2", "d9", 0.125, 0.25)]
        p = tmp_path / "refs.tsv"
        write_references(p, refs)
        assert parse_occurrence_table(p, "ref") == sorted(
            refs, key=lambda r: (r.kw_id, r.doc_id, r.start))


@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5),
              st.floats(0, 100, allow_nan=False),
              st.floats(0.01, 5, allow_nan=False),
              st.floats(0.000001, 1, allow_nan=False),
              st.sampled_from([None, "YES", "NO"])),
    max_size=40))
@settings(max_examples=60, deadline=None)
def test_write_parse_round_trip_property(tmp_path_factory, rows):
    """parse(write(x)) == x after 6-decimal score quantization."""
    cands = [Candidate(f"K{k}", f"d{d}", s, dur, sc, dec)
             for k, d, s, dur, sc, dec in rows]
    expected = sorted(
        (Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                   quantize_score(c.score), c.decision) for c in cands),
        key=Candidate.sort_key)
    path = tmp_path_factory.mktemp("rt") / "cand.tsv"
    write_candidates(path, cands)
    assert parse_occurrence_table(path, "candidate") == expected


def test_normalize_token_nfc_lowercase():
    assert normalize_token("CAT") == "cat"
    # decomposed e + combining acute composes to a single code point
    assert normalize_token("Café") == "café"
