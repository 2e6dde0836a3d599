from math import comb

import pytest
from hypothesis import given, strategies as st

from awalgebra.fockspace import TruncatedBasis, compositions


def test_smallest_basis_order():
    b = TruncatedBasis(legs=2, n_max=1)
    assert b.states == ((0, 0), (0, 1), (1, 0))


def test_graded_lex_order_three_legs():
    b = TruncatedBasis(legs=3, n_max=2)
    assert b.states[:4] == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))
    # weight-2 block in ascending lex order
    assert b.states[4:] == (
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    )


def test_default_size():
    b = TruncatedBasis(legs=4, n_max=6)
    assert len(b) == 210 == comb(6 + 4, 4)
    assert len(b.weight_block(6)) == 84 == comb(6 + 3, 3)


def test_blocks_are_contiguous_and_sorted():
    b = TruncatedBasis(legs=4, n_max=3)
    stop = 0
    for w in range(b.n_max + 1):
        blk = b.weight_block(w)
        assert blk.start == stop
        stop = blk.stop
        assert all(b.weights[i] == w for i in blk)
    assert stop == len(b)


def test_index_round_trip():
    b = TruncatedBasis(legs=3, n_max=4)
    for i, m in enumerate(b.states):
        assert b.index_of(m) == i
    assert b.index_of([0, 0, 0]) == 0  # accepts any sequence


def test_index_of_rejects_outside_truncation():
    b = TruncatedBasis(legs=2, n_max=1)
    with pytest.raises(KeyError):
        b.index_of((2, 0))
    with pytest.raises(KeyError):
        b.index_of((0, -1))


def test_weight_block_range_checked():
    b = TruncatedBasis(legs=2, n_max=2)
    with pytest.raises(KeyError):
        b.weight_block(3)


def test_bases_compare_by_shape():
    a, b = TruncatedBasis(legs=3, n_max=2), TruncatedBasis(legs=3, n_max=2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != TruncatedBasis(legs=3, n_max=3)
    assert a != TruncatedBasis(legs=4, n_max=2)
    assert a != (3, 2)


@pytest.mark.parametrize("legs", [0, 5])
def test_rejects_bad_legs(legs):
    with pytest.raises(ValueError):
        TruncatedBasis(legs=legs, n_max=2)


def test_rejects_bad_n_max():
    with pytest.raises(ValueError):
        TruncatedBasis(legs=2, n_max=0)


def test_compositions_count_matches_binomial():
    assert sum(1 for _ in compositions(5, 4)) == comb(5 + 3, 3)


@given(st.integers(2, 4), st.integers(1, 7))
def test_dimensions(legs, n_max):
    b = TruncatedBasis(legs, n_max)
    assert len(b) == comb(n_max + legs, legs)
    assert len(set(b.states)) == len(b)
    for w in range(n_max + 1):
        assert len(b.weight_block(w)) == comb(w + legs - 1, legs - 1)
