"""drstd: spoken term detection batch toolkit.

Searches keywords in confusion-network transcriptions, re-estimates
occurrence confidence with document ranking weights, applies threshold
decisions, and scores the result with term-weighted-value metrics.
"""

__version__ = "0.1.0"

from .corpus_io import (Candidate, ConfusionNetworkDoc, FormatError,
                        KeywordEntry, RefOccurrence, Slot)
from .decision import DecisionPolicy, apply_decisions, kst_threshold
from .index_search import dedup_overlaps, search_all
from .rescore import (build_weight_tables, reestimate_confidence,
                      rescore_candidates)
from .scoring import (AlignmentResult, align, alpha_sweep, atwv,
                      doc_rank_curves, keyword_rates, mtwv, spearman)

__all__ = [
    "AlignmentResult", "Candidate", "ConfusionNetworkDoc", "DecisionPolicy",
    "FormatError", "KeywordEntry", "RefOccurrence", "Slot",
    "SynthConfig", "align", "alpha_sweep", "apply_decisions", "atwv",
    "build_weight_tables", "dedup_overlaps", "doc_rank_curves", "generate",
    "keyword_rates", "kst_threshold", "mtwv", "reestimate_confidence",
    "rescore_candidates", "search_all", "spearman",
]


def __getattr__(name: str):
    # synth needs numpy; importing it on first use keeps numpy out of every
    # other command's startup.
    if name in ("SynthConfig", "generate"):
        from . import synth
        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
