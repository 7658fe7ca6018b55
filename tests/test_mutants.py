"""Hand mutations as a committed check: each mutant must fail its tests.

Each case copies `src/` and `tests/` to a temporary directory, applies one
replacement whose old text occurs exactly once in its file, and runs the
named tests there in a fresh `pytest -x -p no:cacheprovider` with a fixed
hypothesis seed. Exit code 1 means the tests failed, as they must; codes
2-5 (interrupted, internal or usage error, nothing collected) and a
replacement that no longer applies mean a broken mutant.

The tests are copied too: `pyproject.toml` puts the checkout's `src/` on
the path ahead of `PYTHONPATH`, so the copy runs under its own empty
`pytest.ini` instead.

A mutant is never deleted or weakened so that the suite passes. If a code
change removes a mutant's old text, restate the mutant on the new code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; any failing is enough


MUTANTS = (
    Mutant("decision-before-ids", "src/drstd/tables.py",
           '            if message := id_error(kw_id, "kw_id") or '
           'id_error(doc_id, "doc_id"):\n',
           '            if len(fields) == 6 and decision not in ("YES", "NO"):\n'
           '                raise ValueError(f"decision column must be YES or '
           'NO, got {decision!r}")\n'
           '            if message := id_error(kw_id, "kw_id") or '
           'id_error(doc_id, "doc_id"):\n',
           ("tests/test_corpus_io.py::TestOccurrenceTables::"
            "test_empty_id_rejected[candidate-bad-decision]",)),
    Mutant("ref-dur-0-accepted", "src/drstd/tables.py",
           "                if dur <= 0.0:\n",
           "                if dur < 0.0:\n",
           ("tests/test_corpus_io.py::"
            "test_error_before_bad_byte_comes_first[ref-dur-0]",)),
    Mutant("finite-without-number-fullmatch", "src/drstd/tables.py",
           "    if isinstance(value, str) and not _NUMBER.fullmatch(value):\n",
           "    if False:\n",
           ("tests/test_corpus_io.py::TestOccurrenceTables::"
            "test_non_finite_numbers_rejected"
            "[1_0-not a number-candidate-row0-start]",)),
    Mutant("usage-error-exits-2", "src/drstd/cli.py",
           "        raise ValueError(message)\n",
           "        raise OSError(message)\n",
           ("tests/test_cli.py::test_unknown_subcommand_error_names_all_of_them",)),
    Mutant("main-catches-only-format-error", "src/drstd/cli.py",
           "    except ValueError as exc:\n",
           "    except FormatError as exc:\n",
           ("tests/test_cli.py::TestErrorHandling::"
            "test_non_finite_or_non_positive_flag_rejected"
            "[argv22---trial-seconds is required with --decision kst]",)),
    Mutant("cli-imports-scoring-at-top", "src/drstd/cli.py",
           "from .tables import (",
           "from .scoring import mtwv\nfrom .tables import (",
           ("tests/test_cli.py::test_table_commands_load_no_corpus_code[rescore]",)),
    Mutant("corpus-writer-ascii", "src/drstd/corpus_io.py",
           "ensure_ascii=False, check_circular=False)",
           "ensure_ascii=True, check_circular=False)",
           ("tests/test_corpus_io.py::TestCnCorpusParsing::"
            "test_corpus_line_bytes[non_ascii_token]",)),
    Mutant("sort-key-without-decision", "src/drstd/tables.py",
           " in sorted(candidates):\n",
           " in sorted(candidates, key=lambda c: c[:5]):\n",
           ("tests/test_corpus_io.py::TestCandidateWriting::"
            "test_output_sorted[decision]",)),
    Mutant("undecided-row-gets-decision-column", "src/drstd/tables.py",
           "        if decision:\n",
           "        if decision is not None:\n",
           ("tests/test_corpus_io.py::TestCandidateWriting::"
            "test_round_trip_100_random",)),
    Mutant("decision-column-accepts-empty", "src/drstd/tables.py",
           '            if len(fields) == 6 and decision not in ("YES", "NO"):\n',
           '            if decision not in ("YES", "NO", ""):\n',
           ("tests/test_corpus_io.py::TestOccurrenceTables::"
            "test_bad_decision_value",)),
    Mutant("total-compensated", "src/drstd/tables.py",
           "    total = 0.0\n    for value in values:\n"
           "        total += value\n    return total\n",
           "    return math.fsum(values)\n",
           ("tests/test_scoring.py::TestAtwv::test_total_is_left_to_right",)),
    Mutant("inputs-hashed-after-run", "src/drstd/cli.py",
           "        inputs = _input_hashes(args)\n"
           "        _write_manifest(args, inputs, args.func(args))\n",
           "        counts = args.func(args)\n"
           "        _write_manifest(args, _input_hashes(args), counts)\n",
           ("tests/test_cli.py::TestManifests::"
            "test_in_place_run_records_the_hash_its_input_had",)),
    Mutant("flag-without-number-rule", "src/drstd/cli.py",
           "value = kind(text) if _NUMBER.fullmatch(text) else math.nan\n",
           "value = kind(text)\n",
           ("tests/test_cli.py::test_every_number_flag_rejects_bad_values"
            "[decide --trial-seconds]",)),
    Mutant("dedup-tie-latest-start", "src/drstd/index_search.py",
           "group.sort(key=lambda c: (-c.score, c.start, c.duration))",
           "group.sort(key=lambda c: (-c.score, -c.start, c.duration))",
           ("tests/test_index_search.py::TestDedupOverlaps::"
            "test_score_tie_earliest_start_wins",)),
    Mutant("dedup-overlap-at-half", "src/drstd/index_search.py",
           "    return overlap > OVERLAP_DEDUP_FRACTION * shorter\n",
           "    return overlap >= OVERLAP_DEDUP_FRACTION * shorter\n",
           ("tests/test_index_search.py::TestDedupOverlaps::"
            "test_exactly_half_overlap_kept",)),
    Mutant("search-unsorted", "src/drstd/index_search.py",
           "    hits.sort()\n",
           "",
           ("tests/test_index_search.py::TestSearchAll::"
            "test_matches_naive_scan[0]",)),
    Mutant("writer-line-end-always-lf", "src/drstd/tables.py",
           "line + end for line in lines",
           'line + "\\n" for line in lines',
           ("tests/test_scoring.py::test_write_csv_bytes_match_csv_writer[rows1]",)),
    Mutant("writer-makes-no-directory", "src/drstd/tables.py",
           "    path.parent.mkdir(parents=True, exist_ok=True)\n",
           "",
           ("tests/test_cli.py::TestSweepAndDiag::test_diag_artifacts",)),
    Mutant("writer-joins-before-writing", "src/drstd/tables.py",
           "fh.writelines(line + end for line in lines)",
           'fh.write("".join([line + end for line in lines]))',
           ("tests/test_synth.py::TestStreaming::"
            "test_corpus_writer_memory_flat_in_document_count",)),
)


def _run(tmp_path: Path, tests, mutant: Mutant | None = None
         ) -> tuple[int, str]:
    """Run `tests` on a copy of the checkout with `mutant` applied; return
    pytest's exit code and the tail of its output."""
    copy = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=skip)
    (copy / "pytest.ini").write_text("[pytest]\n")
    if mutant is not None:
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1, (
            f"mutant {mutant.name!r} no longer applies to {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=copy, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(copy / "src"),
             "PYTHONDONTWRITEBYTECODE": "1"})
    return done.returncode, done.stdout[-2000:] + done.stderr[-2000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_its_tests(tmp_path, mutant):
    code, output = _run(tmp_path, mutant.tests, mutant)
    assert code == 1, f"mutant {mutant.name!r}: pytest exit {code}\n{output}"


def test_unmutated_copy_passes_every_mutants_tests(tmp_path):
    tests = dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests)
    code, output = _run(tmp_path, tests)
    assert code == 0, output
