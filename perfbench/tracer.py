"""In-process span tracer for the drstd benchmark.

Wraps the public drstd functions named in ``LAYERS`` wherever a drstd
module has bound them (so ``drstd.cli``'s imported names, the
``corpus_fingerprint`` call inside ``build_index`` and the ``align``
calls inside ``mtwv`` are all caught), records one span per call (name,
start, end, parent, group, collector pauses, counts) in memory, and
restores the originals on exit. A layer the program no longer defines is
listed in ``missing`` and otherwise ignored.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import io
import statistics
import time
import traceback
from dataclasses import dataclass, field

DRSTD_MODULES = ("cli", "corpus_io", "index_search", "rescore", "decision",
                 "scoring", "synth")


def _arcs(docs) -> int:
    return sum(1 for doc in docs for slot in doc.slots
               for token, _ in slot.arcs if token != "<eps>")


def _search_counts(args, result):
    index, keywords = args[0], args[2]
    first_tokens = {kw.tokens[0] for kw in keywords}
    return {"index_search.search_all.candidates": len(result),
            "index_search.build_index.used_ratio.num": sum(
                len(index.token_map.get(tok, ())) for tok in first_tokens),
            "index_search.build_index.used_ratio.den": index.posting_count}


def _mtwv_counts(args, result):
    return {"scoring.mtwv.thresholds": len({c.score for c in args[0]}) + 1,
            "scoring.mtwv.value": result[1]}


# (module, function, counter). A counter maps (args, result) to counts for
# that call; a "<metric>.num"/"<metric>.den" pair becomes the ratio
# <metric> = sum(num) / sum(den) over the calls of one pass.
LAYERS = (
    ("corpus_io", "parse_cn_corpus", lambda a, r: {
        "corpus_io.parse_cn_corpus.docs": len(r),
        "corpus_io.parse_cn_corpus.arcs": _arcs(r)}),
    ("corpus_io", "parse_occurrence_table", lambda a, r: {
        "corpus_io.parse_occurrence_table.rows": len(r)}),
    ("corpus_io", "write_candidates", lambda a, r: {
        "corpus_io.write_candidates.rows": len(a[1])}),
    ("corpus_io", "write_cn_corpus", None),
    ("index_search", "build_index", lambda a, r: {
        "index_search.build_index.postings": r.posting_count}),
    ("index_search", "corpus_fingerprint", None),
    ("index_search", "search_all", _search_counts),
    ("index_search", "dedup_overlaps", lambda a, r: {
        "index_search.dedup_overlaps.kept_ratio.num": len(r),
        "index_search.dedup_overlaps.kept_ratio.den": len(a[0])}),
    ("rescore", "rescore_candidates", None),
    ("rescore", "build_weight_tables", lambda a, r: {
        "rescore.build_weight_tables.tables": len(r)}),
    ("decision", "apply_decisions", lambda a, r: {
        "decision.apply_decisions.yes_ratio.num":
            sum(c.decision == "YES" for c in r),
        "decision.apply_decisions.yes_ratio.den": len(r)}),
    ("scoring", "score_detections", None),
    ("scoring", "mtwv", _mtwv_counts),
    ("scoring", "align", lambda a, r: {
        "scoring.align.calls": 1, "scoring.align.hypotheses": len(a[0])}),
    ("scoring", "alpha_sweep", None),
    ("scoring", "doc_rank_curves", None),
    ("scoring", "weight_performance_correlation", None),
    ("synth", "generate", None),
)

# Spans whose children are also wrapped; their self time is reported too.
SELF_TIMED = ("index_search.build_index", "scoring.mtwv")

# Every count and ratio the counters above can produce, so that each traced
# run reports the same metric names.
COUNTS = (
    "corpus_io.parse_cn_corpus.docs", "corpus_io.parse_cn_corpus.arcs",
    "corpus_io.parse_occurrence_table.rows", "corpus_io.write_candidates.rows",
    "index_search.build_index.postings", "index_search.search_all.candidates",
    "rescore.build_weight_tables.tables", "scoring.mtwv.thresholds",
    "scoring.mtwv.value", "scoring.align.calls", "scoring.align.hypotheses",
)
RATIOS = (
    "index_search.build_index.used_ratio",
    "index_search.dedup_overlaps.kept_ratio",
    "decision.apply_decisions.yes_ratio",
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int | None
    group: str
    end: float = 0.0
    gc_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans of wrapped drstd calls; use as a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[int] = []
        self._group = ""
        self._patched: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def __enter__(self):
        modules = {name: importlib.import_module(f"drstd.{name}")
                   for name in DRSTD_MODULES}
        for module_name, func_name, counter in LAYERS:
            original = getattr(modules[module_name], func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(f"{module_name}.{func_name}", original, counter)
            for module in modules.values():
                if getattr(module, func_name, None) is original:
                    self._patched.append((module, func_name, original))
                    setattr(module, func_name, wrapper)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)
        for module, func_name, original in reversed(self._patched):
            setattr(module, func_name, original)
        self._patched.clear()
        return False

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name=name, start=time.perf_counter(), parent=parent,
                    group=self._group)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, original, counter):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                try:
                    span.counts = counter(args, result)
                except (AttributeError, TypeError, IndexError, KeyError) as exc:
                    # A changed signature or return type loses the counts
                    # of this layer, never the run.
                    self.count_errors.append(f"{name}: {exc!r}")
            return result
        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._stack:
            self.spans[self._stack[-1]].gc_s += time.perf_counter() - self._gc_start

    def run_cli(self, argv: list[str], group: str) -> tuple[int, str, float]:
        """Run ``drstd.cli.main(argv)`` in this process under a root span.

        Returns (exit code, captured stderr, wall seconds). An exception
        that escapes ``main`` is returned as exit code 1 plus its traceback.
        """
        cli = importlib.import_module("drstd.cli")
        self._group = group
        err = io.StringIO()
        span = self._open(f"cli.{argv[0]}")
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(["--quiet", *argv])
        except Exception:  # reported as a failed command, as a child's would be
            code = 1
            err.write(traceback.format_exc())
        finally:
            self._close(span)
        return code, err.getvalue(), span.end - span.start

    def to_json(self) -> dict:
        return {
            "missing": self.missing,
            "count_errors": self.count_errors,
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "group": s.group, "gc_s": s.gc_s,
                       "counts": s.counts} for s in self.spans],
        }


def _self_times(spans: list[Span], indices: list[int]) -> dict[int, float]:
    selves = {i: spans[i].end - spans[i].start for i in indices}
    for i in indices:
        parent = spans[i].parent
        if parent in selves:
            selves[parent] -= spans[i].end - spans[i].start
    return selves


def group_summary(tracer: Tracer, group: str) -> dict:
    """Per-command and per-layer totals of the spans in one group."""
    spans = tracer.spans
    indices = [i for i, s in enumerate(spans) if s.group == group]
    selves = _self_times(spans, indices)
    commands, totals, self_totals, counts = [], {}, {}, {}
    gc_total = 0.0
    for i in indices:
        span = spans[i]
        duration = span.end - span.start
        gc_total += span.gc_s
        if span.parent is None:
            commands.append({
                "command": span.name, "wall_s": duration, "self_s": selves[i],
                "top_level": [{"name": spans[j].name,
                               "s": spans[j].end - spans[j].start}
                              for j in indices if spans[j].parent == i]})
            continue
        totals[span.name] = totals.get(span.name, 0.0) + duration
        self_totals[span.name] = self_totals.get(span.name, 0.0) + selves[i]
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
    return {"commands": commands, "total_s": totals, "self_s": self_totals,
            "counts": counts, "gc_pause_s": gc_total}


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Median over traced passes of every layer's time, exact counts.

    Every layer in ``LAYERS`` gets a value; one the pass never called (or
    the program no longer has) reads 0.
    """
    def median(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for module_name, func_name, _ in LAYERS:
        name = f"{module_name}.{func_name}"
        out[f"{name}.s"] = median([s["total_s"].get(name, 0.0) for s in summaries])
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = median([s["self_s"].get(name, 0.0)
                                        for s in summaries])
    for key in COUNTS:
        out[key] = median([s["counts"].get(key, 0) for s in summaries])
    for key in RATIOS:
        out[key] = median([s["counts"].get(f"{key}.num", 0)
                           / s["counts"].get(f"{key}.den", 0)
                           if s["counts"].get(f"{key}.den") else 0.0
                           for s in summaries])
    out["cli.self_s"] = median([sum(c["self_s"] for c in s["commands"])
                                for s in summaries])
    out["runtime.gc_pause_s"] = median([s["gc_pause_s"] for s in summaries])
    return out
