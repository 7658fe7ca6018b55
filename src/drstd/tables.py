"""Reference and candidate occurrence tables, and the error type, id and
number rules, line reader and line writer (`write_lines`) that every file
format of the toolkit shares, and the left-to-right float sum (`_total`)
that every total of scoring, diagnostics and synth is.

* reference occurrences: TSV ``kw_id<TAB>doc_id<TAB>start<TAB>dur``
* candidate occurrences: TSV ``kw_id<TAB>doc_id<TAB>start<TAB>dur<TAB>score[<TAB>YES|NO]``,
  each score in [0, 1]; every stage that takes candidates takes any such table

Lines starting with ``#`` and blank lines are ignored in all TSV formats.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

SCORE_DECIMALS = 6
# The defaults of beta, the global threshold and the alignment tolerance,
# here so that the flags can name them without loading decision or scoring.
DEFAULT_BETA = 999.9
DEFAULT_THRESHOLD = 0.5
DEFAULT_DELTA_SECONDS = 0.5

_INF = math.inf

# Builds a slot or a table row from its fields, without the call of the
# Python-level NamedTuple __new__: `_new_tuple(Slot, (start, dur, arcs))`.
_new_tuple = tuple.__new__


def _total(values: Iterable[float]) -> float:
    """The left-to-right float sum of `values`, on every Python: from 3.12
    on, the builtin sum() compensates its rounding errors."""
    total = 0.0
    for value in values:
        total += value
    return total


class FormatError(ValueError):
    """A file violated its schema or a type invariant.

    Carries enough location information (path and 1-based line number)
    to produce a one-line actionable message.
    """

    def __init__(self, message: str, *, path: str | Path | None = None,
                 line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        loc = ""
        if self.path is not None:
            loc = f"{self.path}:"
            if line is not None:
                loc += f"{line}:"
            loc += " "
        super().__init__(loc + message)


class RefOccurrence(NamedTuple):
    """A ground-truth occurrence of a keyword in a document."""

    kw_id: str
    doc_id: str
    start: float
    duration: float


class Candidate(NamedTuple):
    """A hypothesized keyword occurrence with its confidence score.

    ``decision`` is "" until a thresholding step sets it to "YES"/"NO".
    """

    kw_id: str
    doc_id: str
    start: float
    duration: float
    score: float
    decision: str = ""


def id_error(value: str, column: str) -> str | None:
    """The error of the id `value` in `column`, or None if it is an id: a
    non-empty printable string with no space. So an id holds no tab, line
    break, byte-order mark, no-break or zero-width space."""
    if not value:
        return f"{column} must be non-empty"
    if not value.isprintable() or " " in value:
        return f"{column} {value!r} holds a space or an unprintable character"
    return None


def parse_occurrence_table(path: str | Path,
                           kind: Literal["ref", "candidate", "decided"]
                           ) -> list[RefOccurrence] | list[Candidate]:
    """Parse a reference or candidate TSV; rows are returned in file order.

    Candidate scores are validated to [0, 1]; durations of references must
    be positive and of candidates non-negative. A "decided" table is a
    candidate table in which every row carries its YES/NO column.

    Each row is checked in one walk over its columns, and each check raises
    its own error. A row with several faults reports the first, in this
    order: the column count (a decided row's missing YES/NO included),
    kw_id, doc_id (each by `id_error`), the decision, each number in column
    order, then the duration and score ranges.
    """
    if kind not in ("ref", "candidate", "decided"):
        raise ValueError("kind must be 'ref', 'candidate' or 'decided', "
                         f"got {kind!r}")
    ref = kind == "ref"
    rows: list = []
    for lineno, line in tsv_lines(path):
        fields = line.split("\t")
        try:
            if ref:
                if len(fields) != 4:
                    raise ValueError(f"expected 4 columns for a reference row, "
                                     f"got {len(fields)}")
                kw_id, doc_id, start, dur = fields
            elif len(fields) == 6:
                kw_id, doc_id, start, dur, score, decision = fields
            elif len(fields) != 5:
                raise ValueError(f"expected 5 or 6 columns for a candidate row, "
                                 f"got {len(fields)}")
            elif kind == "decided":
                raise ValueError("row carries no YES/NO decision; "
                                 "run 'drstd decide' first")
            else:
                kw_id, doc_id, start, dur, score, decision = *fields, ""
            if message := id_error(kw_id, "kw_id") or id_error(doc_id, "doc_id"):
                raise ValueError(message)
            if ref:
                start = _finite(start, "column 'start'")
                dur = _finite(dur, "column 'dur'")
                if dur <= 0.0:
                    raise ValueError(f"reference duration must be > 0, got {dur}")
                rows.append(_new_tuple(RefOccurrence, (kw_id, doc_id, start, dur)))
                continue
            if len(fields) == 6 and decision not in ("YES", "NO"):
                raise ValueError(f"decision column must be YES or NO, got {decision!r}")
            start = _finite(start, "column 'start'")
            dur = _finite(dur, "column 'dur'")
            score = _finite(score, "column 'score'")
            if dur < 0.0:
                raise ValueError(f"negative duration {dur}")
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0, 1]")
        except ValueError as exc:
            raise FormatError(str(exc), path=path, line=lineno) from None
        rows.append(_new_tuple(Candidate, (kw_id, doc_id, start, dur, score, decision)))
    return rows


# The number rule of every file format: a plain decimal number in ASCII
# digits, which float() reads as finite. float() also takes surrounding
# whitespace, digit-group underscores, non-ASCII digits, inf and nan.
_NUMBER = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?", re.ASCII)


def _finite(value: object, what: str) -> float:
    """float(value), or ValueError unless that is a finite number.

    JSON booleans are not numbers, although float() takes them, and a
    string must be a plain decimal number (see `_NUMBER`).
    """
    if isinstance(value, bool):
        raise ValueError(f"{what} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value!r}")
    if isinstance(value, str) and not _NUMBER.fullmatch(value):
        raise ValueError(f"{what} is not a number: {value!r}")
    return number


def tsv_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for non-blank, non-comment TSV lines, each
    without its line end."""
    for lineno, raw in _numbered_lines(path):
        head = raw.lstrip()
        if head and head[0] != "#":
            yield lineno, raw.rstrip("\n")


def _numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) for the lines of the UTF-8 text file `path` up
    to its first line that is not UTF-8, then raise the FormatError naming
    that line.

    The file is opened once, so a pipe works too. Each byte that is not
    UTF-8 reads as a lone surrogate in U+DC80-U+DCFF, which valid UTF-8
    never decodes to; so a line holds a bad byte exactly when a strict
    encode of it fails, and a strict decode of its bytes names the byte.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError:
                    try:
                        line.encode("utf-8", "surrogateescape").decode()
                    except UnicodeDecodeError as bad:
                        raise FormatError(
                            f"not UTF-8 text (byte 0x{bad.object[bad.start]:02x}: "
                            f"{bad.reason})", path=path, line=lineno) from None
            yield lineno, line


def write_lines(path: str | Path, lines: Iterable[str], end: str = "\n") -> None:
    """Write each of `lines` and then `end`, untranslated, to the UTF-8 file
    `path` as `lines` yields them, once the file's missing directories are
    made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line + end for line in lines)


def candidate_table(candidates: Sequence[Candidate]
                    ) -> tuple[list[str], list[Candidate]]:
    """The lines of a candidate table: sorted, scores at 6 decimals, and a
    decision column only on a decided row.

    Also returns the rows the lines parse back to, in line order: each
    score is the float of its 6-decimal text, and `repr` writes floats
    exactly.
    """
    score_format = f".{SCORE_DECIMALS}f"
    lines = ["# kw_id\tdoc_id\tstart\tdur\tscore[\tdecision]"]
    written = []
    for kw_id, doc_id, start, dur, score, decision in sorted(candidates):
        row = [kw_id, doc_id, repr(start), repr(dur), format(score, score_format)]
        written.append(_new_tuple(Candidate, (kw_id, doc_id, start, dur,
                                              float(row[4]), decision)))
        if decision:
            row.append(decision)
        lines.append("\t".join(row))
    return lines, written


def write_candidates(path: str | Path,
                     candidates: Sequence[Candidate]) -> list[Candidate]:
    """Write `candidate_table(candidates)`; return its rows."""
    lines, written = candidate_table(candidates)
    write_lines(path, lines)
    return written


def write_references(path: str | Path, refs: Sequence[RefOccurrence]) -> None:
    """Write references sorted by kw_id, doc_id, start, then duration."""
    lines = ["# kw_id\tdoc_id\tstart\tdur"]
    for ref in sorted(refs):
        lines.append(f"{ref.kw_id}\t{ref.doc_id}\t{ref.start!r}\t{ref.duration!r}")
    write_lines(path, lines)
