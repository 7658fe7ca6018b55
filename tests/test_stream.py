"""`_stream.Generator` against numpy's `default_rng`, numpy the oracle.

Each primitive must give numpy's values bit for bit and leave the stream
where numpy leaves it. A numpy release that changes its stream fails
here, before any corpus pin does.
"""

import hashlib
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from drstd import _stream
from drstd._stream import Generator

SEEDS = [0, 1, 7, 11, 2**32 - 1, 2**32, 2**64 + 5, 3**100]


@pytest.mark.parametrize("seed", SEEDS)
def test_seed_words_equal_seed_sequence(seed):
    assert (_stream.seed_words(seed)
            == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist())


def test_negative_seed_rejected_as_by_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        Generator(-1)


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg64_outputs_equal_numpy(seed):
    # more than one of pcg64's blocks
    assert (list(islice(_stream.pcg64(seed), 1000))
            == np.random.PCG64(seed).random_raw(1000).tolist())


@pytest.mark.parametrize("span", [0, 1, 3, 2**32 - 1, 4, 12, 1999])
@pytest.mark.parametrize("seed", SEEDS[:4])
def test_integers_interleaved_with_doubles_equal_numpy(seed, span):
    """`span` is numpy's inclusive range, high - 1 - low. Each int uses
    half an output and keeps the other half for the next int, also
    across the doubles between them."""
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for k in range(300):
        low = k % 5
        assert ours.integers(low, low + span + 1) == theirs.integers(
            low, low + span + 1), k
        assert ours.integers(span + 1) == theirs.integers(span + 1), k
        if k % 3 == 0:
            assert ours.random() == theirs.random(), k
        if k % 7 == 0:
            assert ours.random(k % 4) == theirs.random(k % 4).tolist(), k
    assert ours.random() == theirs.random()


def test_integers_above_2_32_rejected():
    with pytest.raises(ValueError, match="the range must be 1 to 2"):
        Generator(1).integers(2**32 + 1)


def test_standard_exponential_equals_numpy_with_both_slow_branches(monkeypatch):
    tails = []
    tail = Generator._exponential_tail

    def counting(self, idx, x):
        tails.append(idx)
        return tail(self, idx, x)

    monkeypatch.setattr(Generator, "_exponential_tail", counting)
    for seed in SEEDS[:3]:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for size in (1, 4, 5):
            assert (ours.standard_exponential(size)
                    == theirs.standard_exponential(size).tolist())
        assert (ours.standard_exponential(100_000)
                == theirs.standard_exponential(100_000).tolist()), seed
        assert ours.random() == theirs.random()
    # the base strip's tail, and the wedges above the rectangles
    assert 0 in tails and any(tails)


@pytest.mark.parametrize("n,size", [
    (1, 1), (5, 5), (10, 3), (500, 50), (2000, 50), (10000, 9000),
    (10001, 200), (10001, 201), (20000, 400), (20000, 401), (20000, 500),
], ids=lambda v: str(v))
def test_choice_without_replacement_equals_numpy(n, size):
    """Floyd's draw up to n = 10000 or size = n // 50; past both, numpy's
    tail shuffle."""
    for seed in SEEDS[:3]:
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        assert (ours.choice(n, size)
                == theirs.choice(n, size, replace=False).tolist()), seed
        assert ours.random() == theirs.random(), seed


ZIGGURAT_SHA256 = "0d6e976213179f23220006494ca271c75af26c01872ff952ef983d10305e1a95"


def test_ziggurat_table_bytes_pinned():
    table = Path(_stream.__file__).with_name("ziggurat_exp.bin").read_bytes()
    assert len(table) == 6144
    assert hashlib.sha256(table).hexdigest() == ZIGGURAT_SHA256
