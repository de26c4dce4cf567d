import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fishlab import burge, fixtures
from fishlab import sequences as seqs

from helpers import accepts, bad_words, outcome


def random_cayley(rng, n):
    if n == 0:
        return ()
    while True:
        k = rng.randint(1, n)
        word = tuple(rng.randint(1, k) for _ in range(n))
        if seqs.is_cayley(word):
            return word


def cayley_words(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.randoms(use_true_random=False).map(
            lambda rng: random_cayley(rng, n)
        )
    )


def test_check_tableau():
    burge.check_tableau((1, 1, 2, 3, 3), (2, 1, 3, 3, 1))
    burge.check_tableau((), ())


def test_transpose_example():
    top, bottom = burge.burge_transpose((1, 1, 2, 3, 3), (2, 1, 3, 3, 1))
    burge.check_tableau(top, bottom)
    assert sorted(zip(top, bottom)) == sorted(
        zip((2, 1, 3, 3, 1), (1, 1, 2, 3, 3))
    )


def test_transpose_involution_exhaustive():
    for n in range(6):
        for bottom in seqs.enumerate_cayley(n):
            t = (tuple(range(1, n + 1)), bottom)
            assert burge.burge_transpose(*burge.burge_transpose(*t)) == t


@given(cayley_words())
def test_transpose_involution_random(word):
    t = (tuple(range(1, len(word) + 1)), word)
    once = burge.burge_transpose(*t)
    burge.check_tableau(*once)
    assert burge.burge_transpose(*once) == t


def test_burget_example():
    word, image = fixtures.BURGET_EXAMPLE
    assert burge.burget(word) == image


def test_burget_rejects_non_cayley():
    with pytest.raises(ValueError):
        burge.burget((1, 3))


def test_burget_is_permutation_valued():
    # transposing (id; c) carries the identity row into the bottom row
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(0, 8)
        word = random_cayley(rng, n)
        image = burge.burget(word)
        assert sorted(image) == list(range(1, n + 1))


# reference oracle: burget as it was first written, through the public
# burge_transpose of the tableau (identity; c) with all its checks
def _burget_by_transpose(c):
    if not seqs.is_cayley(c):
        raise ValueError(f"not a Cayley permutation: {c}")
    _, bottom = burge.burge_transpose(tuple(range(1, len(c) + 1)), c)
    return bottom


def test_burget_matches_transpose():
    # Cayley words with repeated letters are the tie-breaking cases
    for n in range(8):
        for c in chain(seqs.enumerate_cayley(n), seqs.enumerate_inversion(n)):
            assert outcome(burge.burget, c) == outcome(_burget_by_transpose, c)
    for c in bad_words():
        assert outcome(burge.burget, c) == outcome(_burget_by_transpose, c)


@st.composite
def words_near_cayley(draw, max_n=9):
    """A Cayley permutation of length n <= max_n, with one letter replaced
    by any value in [-1, n + 1] half the time."""
    n = draw(st.integers(0, max_n))
    word = list(random_cayley(draw(st.randoms(use_true_random=False)), n))
    if n and draw(st.booleans()):
        word[draw(st.integers(0, n - 1))] = draw(st.integers(-1, n + 1))
    return tuple(word)


@settings(max_examples=300)
@given(words_near_cayley())
def test_burget_accepts_exactly_cayley_past_length_4(c):
    # Cayley: the values are 1, ..., k for k the number of distinct values
    member = set(c) == set(range(1, len(set(c)) + 1))
    assert accepts(burge.burget, c) == member
    if member:
        assert burge.burget(c) == _burget_by_transpose(c)
