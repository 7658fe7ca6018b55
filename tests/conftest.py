"""Shared helpers for building random test instances, and the acceptance
corpus shared by the tests that read it."""

from __future__ import annotations

import io
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple

# A test run leaves no bytecode cache beside the sources, in this process
# or in the commands it spawns: a cache left in `src/drstd` would be read
# by every later run of that checkout and skip compiling drstd.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

import numpy as np
import pytest

from drstd.cli import main
from drstd.corpus_io import ConfusionNetworkDoc, KeywordEntry, Slot
from drstd.tables import Candidate, RefOccurrence

# The fixed synthetic experiment of the acceptance criteria.
from chain_pins import ACCEPTANCE_SYNTH_ARGS


class SynthRun(NamedTuple):
    out: Path
    log: str  # the INFO lines `synth` logged


def run_synth(args: list[str], out: Path) -> SynthRun:
    """Run `drstd synth ARGS --out OUT` and capture its INFO log."""
    logger = logging.getLogger("drstd")
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        assert main(["synth", *args, "--out", str(out)]) == 0
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return SynthRun(out, stream.getvalue())


@pytest.fixture(scope="session")
def acceptance_synth(tmp_path_factory) -> SynthRun:
    return run_synth(ACCEPTANCE_SYNTH_ARGS,
                     tmp_path_factory.mktemp("acceptance_synth"))


def random_corpus(rng: np.random.Generator, max_docs: int = 50,
                  vocab_size: int = 12, eps_prob: float = 0.3,
                  max_slots: int = 25) -> list[ConfusionNetworkDoc]:
    """Small random confusion networks with a tiny, collision-heavy vocab."""
    vocab = [f"t{i}" for i in range(vocab_size)]
    docs = []
    for d in range(int(rng.integers(1, max_docs + 1))):
        slots = []
        clock = float(rng.uniform(0, 2))
        for _ in range(int(rng.integers(1, max_slots + 1))):
            duration = float(rng.uniform(0.1, 0.5))
            n_arcs = int(rng.integers(1, 4))
            tokens = list(rng.choice(vocab_size, size=n_arcs, replace=False))
            arcs = [vocab[t] for t in tokens]
            if rng.random() < eps_prob:
                arcs[-1] = "<eps>"
            weights = rng.dirichlet(np.ones(len(arcs))) * 0.98 + 0.02 / len(arcs)
            slots.append(Slot(start=clock, duration=duration,
                              arcs=tuple(zip(arcs, map(float, weights)))))
            clock += duration + float(rng.uniform(0, 0.1))
        docs.append(ConfusionNetworkDoc(doc_id=f"doc{d:03d}", slots=tuple(slots)))
    return docs


def random_keywords(rng: np.random.Generator, n: int, vocab_size: int = 12,
                    max_len: int = 3) -> list[KeywordEntry]:
    out = []
    for i in range(n):
        length = int(rng.integers(1, max_len + 1))
        tokens = tuple(f"t{int(rng.integers(vocab_size))}" for _ in range(length))
        out.append(KeywordEntry(kw_id=f"K{i:03d}", tokens=tokens))
    return out


def random_candidates(rng: np.random.Generator, n: int, n_kws: int = 10,
                      n_docs: int = 10) -> list[Candidate]:
    out = []
    for _ in range(n):
        out.append(Candidate(
            kw_id=f"K{int(rng.integers(n_kws)):03d}",
            doc_id=f"doc{int(rng.integers(n_docs)):03d}",
            start=round(float(rng.uniform(0, 600)), 3),
            duration=round(float(rng.uniform(0.1, 0.9)), 3),
            score=float(rng.uniform(0.001, 1.0))))
    return out


def random_references(rng: np.random.Generator, n: int, n_kws: int = 10,
                      n_docs: int = 10) -> list[RefOccurrence]:
    out = []
    for _ in range(n):
        out.append(RefOccurrence(
            kw_id=f"K{int(rng.integers(n_kws)):03d}",
            doc_id=f"doc{int(rng.integers(n_docs)):03d}",
            start=round(float(rng.uniform(0, 600)), 3),
            duration=round(float(rng.uniform(0.1, 0.9)), 3)))
    return out
