"""Readers and writers for the corpus and keyword files of the toolkit.

* confusion-network corpora: JSON-lines, one document object per line,
  ``{"doc_id": str, "slots": [{"start": f, "dur": f, "arcs": [[token, posterior], ...]}, ...]}``
* keyword lists: TSV ``kw_id<TAB>token token ...``

All invariants of the in-memory types are enforced at parse time, and a
violation raises :class:`FormatError` with its line number. A corpus
slot is checked in one walk that names its own errors, so a slot with
several faults reports the first one the walk reaches. Tokens (both
confusion-network arcs and keyword text) are normalized to NFC +
lowercase at parse time so that matching elsewhere is exact-string.
"""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .tables import (_INF, FormatError, _finite, _new_tuple, _numbered_lines,
                     id_error, tsv_lines, write_lines)

EPS_TOKEN = "<eps>"

# Tolerance for the per-slot posterior sum; absorbs decimal serialization
# error without hiding real mass-accounting bugs.
POSTERIOR_SUM_TOL = 1e-6


class Slot(NamedTuple):
    """One time slot of a confusion network: competing word arcs.

    ``arcs`` holds (token, posterior) pairs; the reserved token ``<eps>``
    marks the null arc and may appear at most once per slot.
    """

    start: float
    duration: float
    arcs: tuple[tuple[str, float], ...]

    @property
    def end(self) -> float:
        return self.start + self.duration


class ConfusionNetworkDoc(NamedTuple):
    """One transcribed document: an ordered sequence of slots."""

    doc_id: str
    slots: tuple[Slot, ...]


class KeywordEntry(NamedTuple):
    """A query term: an id and one or more normalized tokens."""

    kw_id: str
    tokens: tuple[str, ...]


def normalize_token(token: str) -> str:
    """NFC-normalize and lowercase a token."""
    return unicodedata.normalize("NFC", token).lower()


def parse_cn_corpus(path: str | Path) -> Iterator[ConfusionNetworkDoc]:
    """Yield the documents of a JSON-lines confusion-network corpus.

    Documents come in file order, one at a time. A duplicate doc_id, a
    malformed line, or any violated type invariant raises FormatError with
    the line number when the pass reaches that line, so a caller writes
    nothing derived from the corpus before the pass is complete.
    """
    seen: set[str] = set()
    tokens: dict[str, str] = {}
    for lineno, raw in _numbered_lines(path):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = _JSON_DECODER.decode(raw)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"malformed JSON ({getattr(exc, 'msg', exc)})",
                              path=path, line=lineno) from exc
        yield _doc_from_obj(obj, seen, tokens, path=path, line=lineno)


def _reject_constant(name: str) -> float:
    raise ValueError(f"non-finite number {name}")


# Rejects the NaN and Infinity literals that json accepts by default.
_JSON_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _doc_from_obj(obj: object, seen: set[str], tokens: dict[str, str], *,
                  path: str | Path, line: int) -> ConfusionNetworkDoc:
    """Check and build one corpus document in one walk over its slots.

    `seen` holds the earlier lines' doc_ids and gains this one; `tokens`
    maps each raw arc token already checked in this pass to its
    normalized form, so each distinct token is normalized once. The walk
    is the one path that accepts a slot or names its error. A slot with
    several faults reports the first: arc by arc its shape, token and
    posterior number, then `start` and `dur`; then no arcs, negative
    duration, start order, span, posterior range, null arcs and sum.
    """
    if not isinstance(obj, dict):
        raise FormatError("document line is not a JSON object", path=path, line=line)
    try:
        doc_id, raw_slots = obj["doc_id"], obj["slots"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}", path=path, line=line) from exc
    if not isinstance(doc_id, str):
        raise FormatError("doc_id must be a string", path=path, line=line)
    if message := id_error(doc_id, "doc_id"):
        # Every TSV the pipeline writes keys its rows by doc_id.
        raise FormatError(message, path=path, line=line)
    if doc_id in seen:
        raise FormatError(f"duplicate doc_id {doc_id!r}", path=path, line=line)
    seen.add(doc_id)
    if not isinstance(raw_slots, list):
        raise FormatError(f"slots of doc {doc_id!r} is not a list",
                          path=path, line=line)

    def error(message: str) -> FormatError:
        return FormatError(f"doc {doc_id!r} slot {slot_idx}: {message}",
                           path=path, line=line)

    slots = []
    first_start, prev_start = None, -_INF
    for slot_idx, raw in enumerate(raw_slots):
        # Each check raises its own error; `start` is checked before `dur`
        # is read. A finite posterior outside (0, 1] is only recorded: the
        # slot-level errors after the walk take precedence over it.
        try:
            raw_arcs = raw["arcs"]
            if type(raw_arcs) is not list:
                raise TypeError(f"arcs is not a list: {raw_arcs!r}")
            arcs, total, eps_count, out_of_range = [], 0.0, 0, None
            for arc in raw_arcs:
                # A string or an object arc never matches a sequence pattern.
                match arc:
                    case [token, posterior]:
                        pass
                    case _:
                        raise TypeError(f"arc is not a [token, posterior] pair: {arc!r}")
                try:
                    token = tokens[token]
                except (KeyError, TypeError):  # first sight, or unhashable
                    if not isinstance(token, str):
                        raise error(f"arc token {token!r} is not a string")
                    raw_token, token = token, normalize_token(token)
                    if token.split() != [token]:
                        # Keyword lists split their text on whitespace, so
                        # no keyword could name this arc.
                        raise error(f"arc token {token!r} is empty or holds whitespace")
                    tokens[raw_token] = token
                if type(posterior) is not float or not 0.0 < posterior <= 1.0:
                    posterior = _finite(posterior, "posterior")
                    if out_of_range is None and not 0.0 < posterior <= 1.0:
                        out_of_range = (token, posterior)
                eps_count += token == EPS_TOKEN
                total += posterior
                arcs.append((token, posterior))
            start = raw["start"]
            if type(start) is not float or not -_INF < start < _INF:
                start = _finite(start, "start")
            dur = raw["dur"]
            if type(dur) is not float or not -_INF < dur < _INF:
                dur = _finite(dur, "dur")
        except FormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed slot in doc {doc_id!r}: {exc}",
                              path=path, line=line) from None
        if first_start is None:
            first_start = start
        if not arcs:
            raise error("slot has no arcs")
        if dur < 0.0:
            raise error(f"negative duration {dur}")
        if start < prev_start:
            raise error(f"start {start} precedes previous slot start {prev_start}")
        if not -_INF < start + dur - first_start < _INF:
            # Hit durations and corpus seconds are differences of slot times.
            raise error(f"span from the first slot start {first_start} to "
                        f"end {start} + {dur} is not finite")
        if out_of_range is not None:
            raise error(f"arc {out_of_range[0]!r} posterior {out_of_range[1]} "
                        f"outside (0, 1]")
        if eps_count > 1:
            raise error(f"more than one {EPS_TOKEN} arc")
        if abs(total - 1.0) > POSTERIOR_SUM_TOL:
            raise error(f"posterior sum {total!r} differs from 1")
        prev_start = start
        slots.append(_new_tuple(Slot, (start, dur, tuple(arcs))))
    return ConfusionNetworkDoc(doc_id, tuple(slots))


def write_cn_corpus(path: str | Path, docs: Iterable[ConfusionNetworkDoc]) -> None:
    """Write documents as JSON-lines, one object per line, as `docs` yields them.

    Each line is `json.dumps(obj, ensure_ascii=False)` of the document's
    object; the encoder writes each arc tuple as a list, and each float,
    numpy's float64 too, with `float.__repr__`. Each tree is new, so has
    no cycle to check for.
    """
    lines = (json.dumps({"doc_id": doc_id, "slots": [
                 {"start": start, "dur": dur, "arcs": arcs}
                 for start, dur, arcs in slots]},
                        ensure_ascii=False, check_circular=False)
             for doc_id, slots in docs)
    write_lines(path, lines)


def parse_keyword_list(path: str | Path) -> list[KeywordEntry]:
    """Parse a TSV keyword list; a kw_id that `id_error` rejects, a duplicate
    kw_id or blank text is an error."""
    entries: list[KeywordEntry] = []
    seen: set[str] = set()
    for lineno, line in tsv_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise FormatError(f"expected 2 tab-separated columns, got {len(fields)}",
                              path=path, line=lineno)
        kw_id, text = fields
        if message := id_error(kw_id, "kw_id"):
            raise FormatError(message, path=path, line=lineno)
        if kw_id in seen:
            raise FormatError(f"duplicate kw_id {kw_id!r}", path=path, line=lineno)
        seen.add(kw_id)
        tokens = tuple(normalize_token(tok) for tok in text.split())
        if not tokens:
            raise FormatError(f"keyword {kw_id!r} has blank text", path=path, line=lineno)
        entries.append(KeywordEntry(kw_id=kw_id, tokens=tokens))
    return entries


def write_keyword_list(path: str | Path, keywords: Iterable[KeywordEntry]) -> None:
    lines = ["# kw_id\ttokens"]
    lines += [f"{kw.kw_id}\t{' '.join(kw.tokens)}" for kw in keywords]
    write_lines(path, lines)
