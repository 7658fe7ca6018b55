"""drstd: spoken term detection batch toolkit.

Searches keywords in confusion-network transcriptions, re-estimates
occurrence confidence with document ranking weights, applies threshold
decisions, and scores the result with term-weighted-value metrics.
"""

__version__ = "0.1.0"
