"""File format parsing, validation and round-trip behaviour."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drstd import cli, corpus_io, rescore, scoring, tables
from drstd.corpus_io import (ConfusionNetworkDoc, Slot, normalize_token,
                             parse_cn_corpus, parse_keyword_list,
                             write_cn_corpus, write_keyword_list)
from drstd.tables import (Candidate, FormatError, RefOccurrence,
                          parse_occurrence_table, write_candidates,
                          write_references)

from conftest import random_candidates, random_corpus
from oracles import (candidate_order, reference_doc_from_obj,
                     reference_numbered_lines, reference_parse_occurrence_table,
                     reference_write_candidates, reference_write_cn_corpus)


def quantize_score(score: float) -> float:
    """Score equality under the 6-decimal serialization of write_candidates."""
    return float(f"{score:.{tables.SCORE_DECIMALS}f}")


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
        ('{"doc_id": 7, "slots": []}', "doc_id must be a string$"),
        ('{"doc_id": "", "slots": []}', "doc_id must be non-empty$"),
        ('{"doc_id": "a\\tb", "slots": []}', "doc_id 'a\\\\tb' holds a space or an "
         "unprintable character$"),
        ('{"doc_id": "a\\nb", "slots": []}', "doc_id 'a\\\\nb' holds a space or an "
         "unprintable character$"),
        ('{"doc_id": "a\\rb", "slots": []}', "doc_id 'a\\\\rb' holds a space or an "
         "unprintable character$"),
        ('{"doc_id": "\\ufeffd1", "slots": []}', "doc_id '\\\\ufeffd1' holds a space "
         "or an unprintable character$"),
        ('{"doc_id": "a b", "slots": []}', "doc_id 'a b' holds a space or an "
         "unprintable character$"),
        ('{"doc_id": "a\\u00a0b", "slots": []}', "doc_id 'a\\\\xa0b' holds a space "
         "or an unprintable character$"),
        ('{"doc_id": "a\\u200bb", "slots": []}', "doc_id 'a\\\\u200bb' holds a "
         "space or an unprintable character$"),
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
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, '
         '"arcs": [["a", 0.5], [null, 0.5]]}]}',
         "doc 'd1' slot 0: arc token None is not a string"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, "arcs": [[5, 1.0]]}]}',
         "doc 'd1' slot 0: arc token 5 is not a string"),
        ('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, '
         '"arcs": [[["x"], 1.0]]}]}',
         "doc 'd1' slot 0: arc token \\['x'\\] is not a string"),
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
        ("true", "not a number"), ('"1_0"', "not a number"),
        ('" 0.5 "', "not a number"), ('"\\u0661"', "not a number"),
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

    @pytest.mark.parametrize("doc,line", [
        (ConfusionNetworkDoc("d1", (Slot(0.0, 0.5, (("cat", 0.8), ("<eps>", 0.2))),)),
         '{"doc_id": "d1", "slots": [{"start": 0.0, "dur": 0.5, '
         '"arcs": [["cat", 0.8], ["<eps>", 0.2]]}]}'),
        # non-ASCII text is written as UTF-8, not as \u escapes
        (ConfusionNetworkDoc("d\u00e9", (Slot(1.0, 0.25, (("caf\u00e9", 1.0),)),)),
         '{"doc_id": "d\u00e9", "slots": [{"start": 1.0, "dur": 0.25, '
         '"arcs": [["caf\u00e9", 1.0]]}]}'),
    ], ids=["ascii", "non_ascii_token"])
    def test_corpus_line_bytes(self, tmp_path, doc, line):
        p = tmp_path / "c.jsonl"
        write_cn_corpus(p, [doc])
        assert p.read_bytes() == (line + "\n").encode("utf-8")


# Each kind breaks one check of a slot (or, "none", nothing); the
# differential test applies two to one slot, so that the order in which
# the parser reports errors is tested as well as the errors themselves.
_CORRUPTIONS = ["none", "shape", "token", "number", "no_arcs", "negative_dur",
                "decreasing_start", "span", "range", "two_eps", "sum", "drop"]


def _corrupt(draw, slot, kind):
    arcs = slot.get("arcs")
    arc = draw(st.sampled_from(arcs)) if isinstance(arcs, list) and arcs else None
    if kind == "shape":
        if arc is None:
            slot["arcs"] = "x"
        else:
            arc.append(0.5)
    elif kind == "token" and arc is not None:
        arc[0] = draw(st.sampled_from([None, True, 5, ["x"], "a b", "", "Z"]))
    elif kind == "number":
        value = draw(st.sampled_from([None, True, math.inf, -math.inf, "x",
                                      "0.5", " 0.5", "1_0", "\u0661", 1]))
        field = draw(st.sampled_from(["start", "dur", "posterior"]))
        if field != "posterior":
            slot[field] = value
        elif arc is not None:
            arc[-1] = value
    elif kind == "no_arcs":
        slot["arcs"] = []
    elif kind == "negative_dur":
        slot["dur"] = -0.1
    elif kind == "decreasing_start":
        slot["start"] = -1.5e308
    elif kind == "span":
        slot["start"] = slot["dur"] = 1e308
    elif kind == "range" and arc is not None:
        arc[-1] = draw(st.sampled_from([0, 0.0, -0.25, 1.5, 2]))
    elif kind == "two_eps" and isinstance(arcs, list):
        arcs += [["<eps>", 1e-9], ["<EPS>", 1e-9]]
    elif kind == "sum" and arc is not None:
        arc[-1] = 0.3
    elif kind == "drop" and slot:
        del slot[draw(st.sampled_from(sorted(slot)))]


# What the id rule rejects in an id that is otherwise fine: a byte-order
# mark, a no-break space, a zero-width space, a space and a tab.
_BAD_ID_PIECES = ["\ufeff", "\u00a0", "\u200b", " ", "\t"]


@st.composite
def corrupted_corpus_lines(draw):
    """Valid multi-slot documents, then two corruptions of one slot."""
    docs = []
    for d in range(draw(st.integers(1, 3))):
        # Times of +-1e308 are valid but put a slot span near overflow.
        clock = draw(st.sampled_from([0.0, 2.5, -1e308, 1e308]))
        slots = []
        for _ in range(draw(st.integers(1, 4))):
            clock += draw(st.sampled_from([0.0, 0.25, 1.0]))
            tokens = draw(st.lists(st.sampled_from(["a", "b", "C", "<eps>"]),
                                   min_size=1, max_size=3, unique=True))
            weights = draw(st.lists(st.floats(0.05, 1), min_size=len(tokens),
                                    max_size=len(tokens)))
            slots.append({"start": clock,
                          "dur": draw(st.sampled_from([0.0, 0.1, 0.4])),
                          "arcs": [[t, w / sum(weights)]
                                   for t, w in zip(tokens, weights)]})
        doc_id = f"d{d}"
        if draw(st.integers(0, 7)) == 0:  # an id the id rule rejects
            doc_id = draw(st.sampled_from(_BAD_ID_PIECES)) + doc_id
        docs.append({"doc_id": doc_id, "slots": slots})
    slot = draw(st.sampled_from(draw(st.sampled_from(docs))["slots"]))
    for kind in draw(st.lists(st.sampled_from(_CORRUPTIONS), min_size=2,
                              max_size=2)):
        _corrupt(draw, slot, kind)
    # json writes infinities as Infinity, which the parser refuses before
    # any field check; 1e999 decodes to the same float.
    return [json.dumps(doc).replace("Infinity", "1e999") for doc in docs]


def _outcome(parse):
    try:
        return repr(parse())
    except FormatError as exc:
        return str(exc)


@given(corrupted_corpus_lines())
@settings(max_examples=400, deadline=None)
@example(['{"doc_id": "d0", "slots": [{"start": -1e308, "dur": 0.1, '
          '"arcs": [["a", 1.0]]}, {"start": 0.0, "dur": 1e308, '
          '"arcs": [["a", 1.5]]}]}'])
# Slots whose error the parser's walk must name in the oracle's order: a
# first-seen token before a malformed arc, an int posterior in a slot of
# seen tokens, a boolean, and an arc that is an object whose keys unpack to
# a token and a decimal-string posterior.
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [["a", 1.0]]}, {"start": 0.1, "dur": 0.1, '
          '"arcs": [["New", 0.5], ["a", 0.5, 2]]}]}'])
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [["a", 0.5], ["b", 0.5]]}, {"start": 0.1, "dur": 0.1, '
          '"arcs": [["b", 1]]}]}'])
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [["a", 1.0]]}, {"start": 0.1, "dur": true, '
          '"arcs": [["a", 1.0]]}]}'])
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [{"a": 1, "1": 2}]}]}'])
# Three precedence rules: `start`'s finiteness before a missing `dur`; a
# non-finite posterior at its arc, after an earlier out-of-range one; and
# the shape of an object arc before its whitespace token.
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [["a", 1.0]]}, {"start": 1e999, "arcs": [["a", 1.0]]}]}'])
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [["a", 1.5], ["b", 1e999]]}]}'])
@example(['{"doc_id": "d0", "slots": [{"start": 0.0, "dur": 0.1, '
          '"arcs": [{" ": 1, "x": 2}]}]}'])
# The id rule: a leading byte-order mark, and a no-break space, a
# zero-width space and a space within a doc_id, after a valid document.
@example(['{"doc_id": "\\ufeffd0", "slots": []}'])
@example(['{"doc_id": "d0", "slots": []}', '{"doc_id": "d\\u00a01", "slots": []}'])
@example(['{"doc_id": "d0", "slots": []}', '{"doc_id": "d\\u200b1", "slots": []}'])
@example(['{"doc_id": "d0", "slots": []}', '{"doc_id": "d 1", "slots": []}'])
def test_parse_matches_reference_oracle(tmp_path_factory, lines):
    """The one-pass parser yields the straight-line checker's documents, or
    its first error message, byte for byte."""
    path = tmp_path_factory.getbasetemp() / "oracle.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seen, tokens = set(), {}
    want = _outcome(lambda: [
        reference_doc_from_obj(json.loads(text), seen, tokens, path=path,
                               line=lineno)
        for lineno, text in enumerate(lines, start=1)])
    assert _outcome(lambda: list(parse_cn_corpus(path))) == want


def test_parse_checks_numbers_inline_and_each_token_once(acceptance_synth,
                                                         monkeypatch):
    """On a well-formed corpus no number takes the slow `_finite` path and
    each distinct raw token is normalized once per pass."""
    finite_calls, normalized = [], []
    finite, normalize = corpus_io._finite, corpus_io.normalize_token

    def counting_finite(value, what):
        finite_calls.append(value)
        return finite(value, what)

    def counting_normalize(token):
        normalized.append(token)
        return normalize(token)

    monkeypatch.setattr(corpus_io, "_finite", counting_finite)
    monkeypatch.setattr(corpus_io, "normalize_token", counting_normalize)
    path = acceptance_synth.out / "corpus.jsonl"
    assert sum(1 for _ in parse_cn_corpus(path)) == 200
    raw_tokens = {arc[0] for text in path.read_text(encoding="utf-8").splitlines()
                  for slot in json.loads(text)["slots"] for arc in slot["arcs"]}
    assert finite_calls == []
    assert sorted(normalized) == sorted(raw_tokens)


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

    def test_empty_kw_id(self, tmp_path):
        # search would write candidate rows with an empty kw_id column
        p = tmp_path / "kw.tsv"
        write_lines(p, ["KW1\tcat", "\tw0001"])
        with pytest.raises(FormatError) as exc:
            parse_keyword_list(p)
        assert str(exc.value) == f"{p}:2: kw_id must be non-empty"

    @pytest.mark.parametrize("kw_id,shown", [
        ("\ufeffKW1", "\\ufeffKW1"), ("K\u00a01", "K\\xa01"),
        ("K\u200b1", "K\\u200b1"), ("K 1", "K 1"),
        ("\ufeff# kw_id", "\\ufeff# kw_id")])
    def test_kw_id_by_the_id_rule(self, tmp_path, kw_id, shown):
        p = tmp_path / "kw.tsv"
        write_lines(p, [f"{kw_id}\tcat", "KW2\tdog"])
        with pytest.raises(FormatError) as exc:
            parse_keyword_list(p)
        assert str(exc.value) == (
            f"{p}:1: kw_id '{shown}' holds a space or an unprintable character")

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
        """A 6th column is YES or NO; an empty one, as an undecided row
        with a trailing tab has, is no decision either."""
        p = tmp_path / "cand.tsv"
        for value in ("maybe", ""):
            write_lines(p, [f"KW1\td1\t3.20\t0.45\t0.87\t{value}"])
            with pytest.raises(FormatError,
                               match=f"YES or NO, got {value!r}$"):
                parse_occurrence_table(p, "candidate")

    @pytest.mark.parametrize("kind,row,column", [
        ("ref", ["", "d1", "3.2", "0.45"], "kw_id"),
        ("ref", ["K1", "", "3.2", "0.45"], "doc_id"),
        ("candidate", ["", "d1", "3.2", "0.45", "0.87"], "kw_id"),
        ("decided", ["K1", "", "3.2", "0.45", "0.87", "YES"], "doc_id"),
        # a bad decision too: the ids are checked first
        pytest.param("candidate", ["", "d1", "3.2", "0.45", "0.87", "maybe"],
                     "kw_id", id="candidate-bad-decision"),
    ])
    def test_empty_id_rejected(self, tmp_path, kind, row, column):
        # the corpus parser rejects an empty doc_id too
        p = tmp_path / "rows.tsv"
        write_lines(p, ["# header", "\t".join(row)])
        with pytest.raises(FormatError) as exc:
            parse_occurrence_table(p, kind)
        assert str(exc.value) == f"{p}:2: {column} must be non-empty"

    @pytest.mark.parametrize("kind", ["ref", "candidate", "decided"])
    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("bad,shown", [
        ("\ufeffK1", "\\ufeffK1"), ("d\u00a01", "d\\xa01"),
        ("d\u200b1", "d\\u200b1"), (" d1", " d1"), ("d\x0b1", "d\\x0b1")])
    def test_id_rule(self, tmp_path, kind, column, bad, shown):
        row = ["K1", "d1", "3.2", "0.45", "0.87", "YES"][:4 if kind == "ref" else 6]
        row[column] = bad
        p = tmp_path / "rows.tsv"
        write_lines(p, ["# header", "\t".join(row)])
        with pytest.raises(FormatError) as exc:
            parse_occurrence_table(p, kind)
        name = ("kw_id", "doc_id")[column]
        assert str(exc.value) == (
            f"{p}:2: {name} '{shown}' holds a space or an unprintable character")

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
        ("1_0", "not a number"), (" 0.5 ", "not a number"),
        ("\u0661", "not a number"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, kind, row, column,
                                         value, message):
        p = tmp_path / "rows.tsv"
        write_lines(p, ["# header", "\t".join(row).format(value)])
        with pytest.raises(FormatError, match=f"column '{column}' is {message}"
                           ) as exc:
            parse_occurrence_table(p, kind)
        assert str(exc.value).startswith(f"{p}:2: ")


    @pytest.mark.parametrize("kind,lines", [
        ("keywords", ["# kw_id\ttokens", "KW1\thello world", "KW2\tcat"]),
        ("ref", ["# header", "K1\td1\t3.2\t0.45", "K2\td2\t1e-05\t2.0"]),
        ("candidate", ["K1\td1\t3.2\t0.45\t0.87",
                       "K1\td2\t0.0\t0.0\t1.000000\tNO"]),
        ("decided", ["K1\td1\t3.2\t0.45\t0.87\tYES",
                     "K1\td2\t0.0\t0.0\t1.000000\tNO"]),
    ])
    def test_crlf_line_ends_parse_as_lf(self, tmp_path, kind, lines):
        def parse(path):
            if kind == "keywords":
                return parse_keyword_list(path)
            return parse_occurrence_table(path, kind)

        lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
        lf.write_bytes(("\n".join(lines) + "\n").encode())
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert parse(crlf) == parse(lf)


class TestUndecodableInput:
    """A byte that is not UTF-8 is a FormatError naming the path and the
    line of the byte. The valid lines before it fill more than one 8 KiB
    read chunk, and end in LF, CRLF and lone CR in turn, each counted as
    one line; comment and blank lines count too."""

    @staticmethod
    def write(path, lines, bad_line, comment):
        lines = [(comment if i % 40 == 7 else " " if i % 40 == 19 else line)
                 for i, line in enumerate(lines)]
        text = "".join(line + ("\n", "\r\n", "\r")[i % 3]
                       for i, line in enumerate(lines))
        assert len(text.encode()) > 8192
        path.write_bytes(text.encode() + bad_line + b"\n")
        return len(lines) + 1

    @pytest.mark.parametrize("kind,line,bad_line", [
        ("keywords", "K{}\tcaf\u00e9 noir", b"K\xff\tcat"),
        ("ref", "K{}\td\u00e9\t1.0\t0.5", b"K1\td1\t\xff.0\t0.5"),
        ("candidate", "K{}\td1\t1.0\t0.5\t0.5", b"K1\td1\t1.0\t0.5\t0.5\xff"),
        ("corpus", json.dumps({"doc_id": "d\u00e9{}", "slots": [
            {"start": 0.0, "dur": 0.5, "arcs": [["cat", 1.0]]}]}),
         b'{"doc_id": "\xff", "slots": []}'),
    ])
    def test_bad_byte_named_by_line(self, tmp_path, kind, line, bad_line):
        path = tmp_path / "input"
        lineno = self.write(path, [line.replace("{}", str(i))
                                   for i in range(1000)], bad_line,
                            " " if kind == "corpus" else "# note")
        parse = {"keywords": parse_keyword_list,
                 "corpus": lambda p: list(parse_cn_corpus(p))}.get(
            kind, lambda p: parse_occurrence_table(p, kind))
        with pytest.raises(FormatError) as exc:
            parse(path)
        assert str(exc.value) == (
            f"{path}:{lineno}: not UTF-8 text (byte 0xff: invalid start byte)")


@pytest.mark.parametrize("kind,text,message", [
    ("candidate", b"K1\td1\t1.0\t0.5\t0.5\nK1\td1\tbad\t0.5\t0.5\n"
     b"K1\td1\t1.0\t0.5\t0.5\nK1\td1\t1.0\t0.5\t0.5\xff\n",
     "2: column 'start' is not a number: 'bad'"),
    ("corpus", b'{"doc_id": "d1", "slots": 5}\n{"doc_id": "\xff", "slots": []}\n',
     "1: slots of doc 'd1' is not a list"),
    pytest.param("ref", b"K1\td1\t1.0\t0\nK1\td1\t1.0\t0.5\xff\n",
                 "1: reference duration must be > 0, got 0.0", id="ref-dur-0"),
])
def test_error_before_bad_byte_comes_first(tmp_path, kind, text, message):
    """A malformed line before an undecodable one is the error reported,
    although both lie in the first 8 KiB read chunk."""
    path = tmp_path / "input"
    path.write_bytes(text)
    with pytest.raises(FormatError) as exc:
        if kind == "corpus":
            list(parse_cn_corpus(path))
        else:
            parse_occurrence_table(path, kind)
    assert str(exc.value) == f"{path}:{message}"


# Pieces of the files `_numbered_lines` reads: ASCII, valid multi-byte
# characters, bytes that are never UTF-8, truncated sequences, a BOM and
# the three line ends; runs of a piece reach past the 8 KiB read chunk.
_TEXT_PIECES = [b"K1\td1", b" ", b"#", "caf\u00e9".encode(), "\u20ac".encode(),
                "\U0001d11e".encode(), b"\xef\xbb\xbf", b"\xff", b"\x80",
                b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82", b"\xf0\x9f\x98",
                b"\n", b"\r\n", b"\r"]
_TEXT_RUNS = st.tuples(st.sampled_from(
    [b"x", "\u00e9".encode(), b"ab\n", "\u20ac\r\n".encode(), b"\r"]),
    st.integers(0, 3000)).map(lambda run: run[0] * run[1])


@given(st.lists(st.sampled_from(_TEXT_PIECES) | _TEXT_RUNS, max_size=30)
       .map(b"".join))
@example(b"x" * 8191 + "\u20ac".encode() + b"\r\n\xe2\x82")
@example(b"x" * 8191 + b"\r\n" + b"y" * 9000 + b"\r\xff")
@example(b"a\nb\r\nc\rd\xe9")
@settings(max_examples=300, deadline=None)
def test_numbered_lines_match_oracle(tmp_path_factory, data):
    """`_numbered_lines` yields the oracle's lines, numbered from 1, and
    then raises its error, naming the line, the byte and the reason."""
    path = tmp_path_factory.getbasetemp() / "lines.txt"
    path.write_bytes(data)
    lines, bad = reference_numbered_lines(data)
    got, message = [], None
    try:
        for lineno, line in tables._numbered_lines(path):
            got.append((lineno, line))
    except FormatError as exc:
        message = str(exc)
    assert got == list(enumerate(lines, start=1))
    assert message == (bad and f"{path}:{bad[0]}: not UTF-8 text "
                       f"(byte 0x{bad[1]:02x}: {bad[2]})")


def test_unknown_table_kind_rejected(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("K1\td1\t0.0\t0.5\n")
    for kind in ("decision", "rescorable"):
        with pytest.raises(ValueError) as exc:
            parse_occurrence_table(path, kind)
        assert str(exc.value) == ("kind must be 'ref', 'candidate' or 'decided', "
                                  f"got {kind!r}")
        assert not isinstance(exc.value, FormatError)


# The number rule of every file format: a finite plain decimal number.
_PLAIN_DECIMAL = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?",
                            re.ASCII)


@given(st.text(alphabet="0123456789.eE+-_ \t\x1c\u00a0\u0661\uff11infaINFA",
               max_size=8))
@example("1_0")
@example(" 0.5 ")
@example("\u0661")
@example("1e999")
@example("5.")
@example("-.5e+3")
@settings(max_examples=500, deadline=None)
def test_numbers_are_finite_plain_decimals(tmp_path_factory, text):
    """A string is a number, in a TSV column or a corpus field, exactly when
    float() reads it as finite and it fully matches the decimal pattern."""
    try:
        finite = math.isfinite(float(text))
    except ValueError:
        finite = False
    want = finite and _PLAIN_DECIMAL.fullmatch(text) is not None

    def accepts(parse):
        try:
            parse()
        except ValueError:
            return False
        return True

    assert accepts(lambda: corpus_io._finite(text, "start")) == want
    path = tmp_path_factory.getbasetemp() / "number.tsv"
    path.write_text(f"K1\td1\t{text}\t0.5\n", encoding="utf-8")
    assert accepts(lambda: parse_occurrence_table(path, "ref")) == want


# Pieces of adversarial row text: tabs, comment marks, padding, a
# non-ASCII digit, digit-group underscores, exponents, signs, inf, and
# decision words in and out of case.
_ROW_PIECES = ["\t", "#", " ", "\u0661", "_", "e", "+", "-", ".", "inf",
               "YES", "NO", "yes", "0", "1", "5", "999", "K1", "d1"]
# Well-formed values of each column, so that many rows parse, and near
# misses that a looser number rule or a dropped check would let through.
_ROW_VALUES = {
    "id": ["K1", "d1", "K#3", "Ké", "文書"],
    "number": ["0", "0.5", "1.0", "1.", ".25", "-3.2", "+4", "2e-3", "1E2",
               "0.000000"],
    "decision": ["YES", "NO"],
}
_NEAR_MISSES = {
    "id": ["", " ", "#", " d2", "a b",
           *(f"{piece}K1" for piece in _BAD_ID_PIECES if piece != "\t")],
    "number": ["", "\u0661", "1\u0661", "1_0", " 0.5", "inf", "-inf", "1e",
               ".", "+-1", "1.5.", "5e999", "-5e999", "1e309", "-2E400"],
    "decision": ["", "yes", "YES ", "NO\t"],
}


@st.composite
def occurrence_lines(draw, kind):
    """One TSV line of 3 to 7 columns (more if a piece is a tab), most of
    them as wide as a `kind` row: well-formed values with up to two columns
    replaced by a near miss or adversarial pieces, the line perhaps opening
    with padding or `#`."""
    widths = {"ref": [4], "candidate": [5, 6], "decided": [6]}[kind]
    width = draw(st.one_of(st.sampled_from(widths), st.integers(3, 7)))
    roles = ["id" if column < 2 else "decision" if column == 5 else "number"
             for column in range(width)]
    fields = [draw(st.sampled_from(_ROW_VALUES[role])) for role in roles]
    pieces = st.lists(st.sampled_from(_ROW_PIECES), max_size=4).map("".join)
    for _ in range(draw(st.integers(0, 2))):
        column = draw(st.integers(0, width - 1))
        fields[column] = draw(st.one_of(
            st.sampled_from(_NEAR_MISSES[roles[column]]), pieces))
    prefix = draw(st.sampled_from(["", "", "", "#", " ", " #"]))
    return prefix + "\t".join(fields)


@st.composite
def occurrence_tables(draw):
    kind = draw(st.sampled_from(["ref", "candidate", "decided"]))
    return kind, draw(st.lists(occurrence_lines(kind), min_size=1, max_size=3))


@given(occurrence_tables())
@example(("candidate", ["#K1\td1\t1.0\t0.5\t0.5"]))
@example(("ref", ["K1\td1\t\u0661\t0.5"]))
@example(("decided", ["K1\td1\t9e999\t0.5\t0.5\tNO"]))
# The column count comes before the ids, a decided row's missing YES/NO too.
@example(("ref", ["\td1\t1.0"]))
@example(("candidate", ["\td1\t1.0"]))
@example(("decided", ["\td1\t1.0\t0.5\t0.5"]))
# The ids come before the decision, and the decision before the numbers.
@example(("candidate", ["K1\t\t1.0\t0.5\t0.5\tyes"]))
@example(("decided", ["K1\td1\tx\t0.5\t0.5\tyes"]))
# Not finite and not a number, in each numeric column, before any range.
@example(("candidate", ["K1\td1\tinf\t-1\t2"]))
@example(("candidate", ["K1\td1\t1e999\t-1\t2"]))
@example(("candidate", ["K1\td1\t 0.5\t-1\t2"]))
@example(("candidate", ["K1\td1\t1_0\t-1\t2"]))
@example(("candidate", ["K1\td1\t1.0\tinf\t2"]))
@example(("candidate", ["K1\td1\t1.0\t1e999\t2"]))
@example(("candidate", ["K1\td1\t1.0\t 0.5\t2"]))
@example(("candidate", ["K1\td1\t1.0\t1_0\t2"]))
@example(("decided", ["K1\td1\t1.0\t-1\tinf\tNO"]))
@example(("decided", ["K1\td1\t1.0\t-1\t1e999\tNO"]))
@example(("decided", ["K1\td1\t1.0\t-1\t 0.5\tNO"]))
@example(("decided", ["K1\td1\t1.0\t-1\t1_0\tNO"]))
# The ranges: a reference needs dur > 0; a candidate's dur comes first.
@example(("ref", ["K1\td1\t1.0\t0"]))
@example(("candidate", ["K1\td1\t1.0\t-0.5\t2"]))
# A score of 0, signed or not, is in range; the next row's fault is named.
@example(("candidate", ["K1\td1\t1.0\t0.5\t0.000000"]))
@example(("candidate", ["K1\td1\t1.0\t0.5\t-0\tNO", "K1\td1\tx\t0.5\t0.5"]))
# The id rule, in each id column.
@example(("ref", ["\ufeffK1\td1\t1.0\t0.5"]))
@example(("candidate", ["K1\td\u00a01\t1.0\t0.5\t0.5"]))
@example(("decided", ["K\u200b1\td1\t1.0\t0.5\t0.5\tNO"]))
@example(("candidate", ["K1\td 1\tx\t0.5\t0"]))
@settings(max_examples=400, deadline=None)
def test_occurrence_rows_match_reference_oracle(tmp_path_factory, table):
    """The one-walk row parser gives the split-and-check parser's rows, or
    its first error message, byte for byte."""
    kind, lines = table
    path = tmp_path_factory.getbasetemp() / "rows.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = _outcome(lambda: reference_parse_occurrence_table(path, kind))
    assert _outcome(lambda: parse_occurrence_table(path, kind)) == want


class TestCandidateWriting:
    def test_round_trip_100_random(self, tmp_path):
        cands = random_candidates(np.random.default_rng(1), 100)
        expected = sorted(
            (Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                       quantize_score(c.score)) for c in cands),
            key=candidate_order)
        p = tmp_path / "cand.tsv"
        write_candidates(p, cands)
        assert parse_occurrence_table(p, "candidate") == expected

    def test_empty_list_writes_header_comment(self, tmp_path):
        p = tmp_path / "cand.tsv"
        write_candidates(p, [])
        text = p.read_text()
        assert text.startswith("#")
        assert parse_occurrence_table(p, "candidate") == []

    @pytest.mark.parametrize("cands,order", [
        ([Candidate("KW2", "d1", 1.0, 0.2, 0.5),
          Candidate("KW1", "d2", 0.0, 0.2, 0.5),
          Candidate("KW1", "d1", 5.0, 0.2, 0.5)], [2, 1, 0]),
        # rows that differ only in their decision: NO before YES
        ([Candidate("K1", "d1", 0.0, 0.2, 0.5, "YES"),
          Candidate("K1", "d1", 0.0, 0.2, 0.5, "NO")], [1, 0]),
        # and undecided, "", before YES
        ([Candidate("K1", "d1", 0.0, 0.2, 0.5, "YES"),
          Candidate("K1", "d1", 0.0, 0.2, 0.5),
          Candidate("K1", "d1", 0.0, 0.2, 0.5, "YES")], [1, 0, 2]),
    ], ids=["kw_doc_start", "decision", "undecided_first"])
    def test_output_sorted(self, tmp_path, cands, order):
        """The file order is that of a plain sort of the rows."""
        p = tmp_path / "cand.tsv"
        assert write_candidates(p, cands) == sorted(cands)
        assert parse_occurrence_table(p, "candidate") == [cands[i] for i in order]

    def test_reference_round_trip(self, tmp_path):
        refs = [RefOccurrence("KW1", "d1", 1.25, 0.5),
                RefOccurrence("KW2", "d9", 0.125, 0.25)]
        p = tmp_path / "refs.tsv"
        write_references(p, refs)
        assert parse_occurrence_table(p, "ref") == sorted(
            refs, key=lambda r: (r.kw_id, r.doc_id, r.start))


# Every writer of the toolkit, each given an empty table, corpus or report.
_WRITERS = {
    "candidates": lambda path: write_candidates(path, []),
    "references": lambda path: write_references(path, []),
    "keyword_list": lambda path: write_keyword_list(path, []),
    "cn_corpus": lambda path: write_cn_corpus(path, []),
    "weight_tables": lambda path: rescore.write_weight_tables(path, {}),
    "keyword_detail": lambda path: scoring.write_keyword_detail(
        path, {"keywords": {}}),
    "csv": lambda path: scoring.write_csv(path, ("rank",), []),
    "json": lambda path: cli._write_json(path, {}),
}


@pytest.mark.parametrize("write", _WRITERS.values(), ids=_WRITERS)
def test_writer_makes_missing_nested_directories(tmp_path, write):
    path = tmp_path / "a" / "b" / "out"
    write(path)
    assert path.is_file()


# Ids the readers accept, ASCII and not: accented, Cyrillic, CJK, and one
# outside the Basic Multilingual Plane.
_IDS = ["K0", "K1", "K2", "Ké", "К1", "鍵", "\U0001d4b3"]


@given(st.lists(
    st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS),
              st.floats(0, 100, allow_nan=False),
              st.floats(0.01, 5, allow_nan=False),
              st.floats(0.000001, 1, allow_nan=False),
              st.sampled_from(["", "YES", "NO"])),
    max_size=40))
@settings(max_examples=60, deadline=None)
def test_write_parse_round_trip_property(tmp_path_factory, rows):
    """parse(write(x)) == x after 6-decimal score quantization, and write
    returns exactly the rows its file parses back to."""
    cands = [Candidate(*row) for row in rows]
    expected = sorted(
        (Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                   quantize_score(c.score), c.decision) for c in cands),
        key=candidate_order)
    path = tmp_path_factory.mktemp("rt") / "cand.tsv"
    written = write_candidates(path, cands)
    parsed = parse_occurrence_table(path, "candidate")
    assert parsed == expected
    # repr tells -0.0 from 0.0, and each float exactly
    assert repr(written) == repr(parsed)


# Scores at and next to the 6-decimal rounding edges, ties among them.
_EDGE_SCORES = [0.0, 5e-7, 4.999999e-7, 1.5e-6, 2.5e-6, 0.1234565, 0.1234575,
                0.12345649999999999, 0.5, 0.9999995, 0.99999949, 1.0]


@st.composite
def candidate_tables(draw):
    """Up to 30 candidates over few distinct values, so that rows tie on
    their first five fields; all undecided, all decided, or mixed."""
    decisions = draw(st.sampled_from([["", "YES", "NO"], [""], ["YES", "NO"]]))
    row = st.builds(Candidate, st.sampled_from(["K1", "K2", "Ké"]),
                    st.sampled_from(["d1", "d2", "文書"]),
                    st.sampled_from([-2.5, -0.0, 0.0, 0.25, 1e-7, 3.1]),
                    st.sampled_from([0.0, 0.1, 0.5]),
                    st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(0, 1)),
                    st.sampled_from(decisions))
    return draw(st.lists(row, max_size=30))


@given(candidate_tables())
@example([Candidate("K1", "d1", 0.0, 0.1, 0.5, "YES"),
          Candidate("K1", "d1", 0.0, 0.1, 0.5),
          Candidate("K1", "d1", 0.0, 0.0, 0.5, "NO")])
# Rows that tie only once their scores are rounded, in an order that is
# neither the input's nor that of the rounded rows.
@example([Candidate("K1", "d1", -0.0, 0.1, 0.1234565, "NO"),
          Candidate("K1", "d1", -0.0, 0.1, 0.1234561),
          Candidate("K1", "d1", -0.0, 0.1, 0.1234563, "YES")])
@settings(max_examples=300, deadline=None)
def test_write_candidates_matches_reference_oracle(tmp_path_factory, cands):
    """The writer gives the bytes of the former key-sorted writer, on rows
    that tie on their first five fields or once rounded, tables that mix
    decided and undecided rows or hold one kind, scores at the rounding
    edges, negative starts and non-ASCII ids; and it returns exactly the
    rows its file parses back to."""
    directory = tmp_path_factory.getbasetemp()
    written = write_candidates(directory / "got.tsv", cands)
    reference_write_candidates(directory / "want.tsv", cands)
    assert ((directory / "got.tsv").read_bytes()
            == (directory / "want.tsv").read_bytes())
    # repr tells -0.0 from 0.0, and each float exactly
    assert repr(written) == repr(parse_occurrence_table(directory / "got.tsv",
                                                        "candidate"))


def test_normalize_token_nfc_lowercase():
    assert normalize_token("CAT") == "cat"
    # decomposed e + combining acute composes to a single code point
    assert normalize_token("Café") == "café"


# Text json escapes (quote, backslash, control characters) or passes
# through as it is under ensure_ascii=False (U+2028, non-ASCII).
_JSON_TEXT = st.one_of(
    st.sampled_from(['"', "\\", "a\"b\\c", "\x00", "\x1f\x7f", "\n\t\r\b\f",
                     "\u2028", "\u2029", "café", "日本語", "\U0001f600", "<eps>"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=5))
# Numbers at the edges of float repr, and numpy float64s, whose own repr
# is `np.float64(...)` under numpy 2.
_JSON_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0,
                     1e16, 1e-7, 123456789.0]),
    st.floats(allow_nan=False, allow_infinity=False))
_JSON_NUMBERS = st.one_of(_JSON_FLOATS, _JSON_FLOATS.map(np.float64))

_EDGE_DOC = ConfusionNetworkDoc('d"\\\u2028é', (
    Slot(-0.0, 5e-324, (('"\x01\u2028', np.float64(0.5)), ("<eps>", 0.1))),
    Slot(1e308, 0.1, (("日本", 1e308), ('"\x01\u2028', -0.0)))))


@given(st.lists(st.builds(
    ConfusionNetworkDoc, _JSON_TEXT,
    st.lists(st.builds(Slot, _JSON_NUMBERS, _JSON_NUMBERS, st.lists(
        st.tuples(_JSON_TEXT, _JSON_NUMBERS), max_size=4).map(tuple)),
        max_size=4).map(tuple)), max_size=4))
@example([])
@example([ConfusionNetworkDoc("d0", ()), _EDGE_DOC])
@settings(max_examples=300, deadline=None)
def test_write_cn_corpus_matches_reference_oracle(tmp_path_factory, docs):
    """The writer gives the bytes of the former `json.dumps` writer on
    text json escapes, documents with no slots or arcs, an empty corpus,
    and numbers at the edges of float repr, numpy float64s among them."""
    directory = tmp_path_factory.getbasetemp()
    write_cn_corpus(directory / "got.jsonl", docs)
    reference_write_cn_corpus(directory / "want.jsonl", docs)
    assert ((directory / "got.jsonl").read_bytes()
            == (directory / "want.jsonl").read_bytes())
