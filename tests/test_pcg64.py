"""The in-package PCG64 stream against NumPy's, draw for draw."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conceptmine.pcg64 import PCG64, seed_state

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 2**96 + 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_raw_draws_are_pcg64s(seed):
    rng = PCG64(seed)
    draws = [rng._next64() for _ in range(20)]
    assert draws == np.random.PCG64(seed).random_raw(20).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_is_default_rngs(seed):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    for low, high, count in ((-0.5, 0.5, 30), (0.0, 1.0, 1), (-3.0, 7.25, 0), (2.0, 2.0, 4)):
        assert ours.uniform(low, high, count) == theirs.uniform(low, high, count).tolist()


def test_permutations_yield_successive_draws():
    ours, theirs = PCG64(7).permutations(37), np.random.default_rng(7)
    for _ in range(50):
        assert next(ours) == theirs.permutation(37).tolist()


def test_draws_interleave_as_numpys():
    # A permutation leaves half of a 64-bit draw buffered; the next
    # permutation starts from it, a uniform draw skips it.
    ours, theirs = PCG64(11), np.random.default_rng(11)
    for n in (5, 3, 16, 1, 9):
        assert next(ours.permutations(n)) == theirs.permutation(n).tolist()
        assert ours.uniform(-1.0, 1.0, 3) == theirs.uniform(-1.0, 1.0, 3).tolist()


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed"):
        PCG64(-1)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**130),
    sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4),
)
@example(seed=0, sizes=[0, 1, 2])
@example(seed=2**32 - 1, sizes=[16, 17])
@example(seed=2**32, sizes=[37, 37, 37])
@example(seed=2**64 + 3, sizes=[2, 16, 17, 37])
def test_any_seed_draws_numpys_permutations(seed, sizes):
    ours, theirs = PCG64(seed), np.random.default_rng(seed)
    assert seed_state(seed) == tuple(
        int(word) for word in np.random.SeedSequence(seed).generate_state(4, np.uint64)
    )
    for n in sizes:
        assert next(ours.permutations(n)) == theirs.permutation(n).tolist()
    assert ours.uniform(-0.25, 0.25, 5) == theirs.uniform(-0.25, 0.25, 5).tolist()
