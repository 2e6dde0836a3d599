import random

import pytest

from awalgebra.exactnum import ONE, rational
from awalgebra.fockspace import TruncatedBasis
from awalgebra.sparse import SparseOperator
from helpers import degree_is_consistent


@pytest.fixture()
def basis():
    return TruncatedBasis(legs=2, n_max=2)


def random_operator(basis, rng, density=0.5):
    cols = {}
    n = len(basis)
    for j in range(n):
        col = {}
        for i in range(n):
            if rng.random() < density:
                v = rational(rng.randint(-9, 9), rng.randint(1, 9))
                if v:
                    col[i] = v
        if col:
            cols[j] = col
    return SparseOperator(basis, cols, degree=None)


def dense(op):
    n = len(op.basis)
    return [[op.get(i, j) for j in range(n)] for i in range(n)]


def dense_mul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), rational(0)) for j in range(n)]
        for i in range(n)
    ]


def test_zero_and_identity(basis):
    z = SparseOperator.zero(basis)
    one = SparseOperator.identity(basis)
    assert z.is_zero() and z.nnz() == 0
    assert one.nnz() == len(basis)
    assert (one * one) == one
    assert (one + z) == one
    assert (one - one).is_zero()


def test_no_stored_zeros(basis):
    rng = random.Random(7)
    a = random_operator(basis, rng)
    b = random_operator(basis, rng)
    for op in (a + b, a - a, a * b, a.scale(rational(0))):
        assert all(v != 0 for _, _, v in op.entries())
    assert (a - a).is_zero()


def test_composition_matches_dense(basis):
    rng = random.Random(21)
    for _ in range(8):
        a = random_operator(basis, rng)
        b = random_operator(basis, rng)
        assert dense(a * b) == dense_mul(dense(a), dense(b))


def test_ring_identities(basis):
    rng = random.Random(3)
    a = random_operator(basis, rng)
    b = random_operator(basis, rng)
    c = random_operator(basis, rng)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert a.scale(rational(2, 3)).scale(rational(3, 2)) == a
    assert rational(5) * a == a.scale(rational(5))
    assert a * rational(5) == a.scale(rational(5))


def test_scaling_is_exact(basis):
    a = SparseOperator.identity(basis, rational(1, 3))
    assert (a + a + a) == SparseOperator.identity(basis)


def test_diagonal(basis):
    d = SparseOperator.diagonal(basis, lambda j: rational(j))
    assert d.get(0, 0) == 0 and 0 not in d.cols
    assert d.get(2, 2) == rational(2)
    assert d.degree == 0 and degree_is_consistent(d)


def test_degree_bookkeeping(basis):
    # single-leg shift on leg 2: raises weight by one
    up = {}
    for j, m in enumerate(basis.states):
        if sum(m) < basis.n_max:
            up[j] = {basis.index_of((m[0], m[1] + 1)): ONE}
    raise_op = SparseOperator(basis, up, degree=1)
    assert degree_is_consistent(raise_op)
    assert (raise_op * raise_op).degree == 2
    assert degree_is_consistent(raise_op * raise_op)
    iden = SparseOperator.identity(basis)
    assert (raise_op + iden).degree is None
    assert (raise_op + raise_op).degree == 1


def test_degree_audit_detects_lies(basis):
    op = SparseOperator(basis, {0: {1: ONE}}, degree=0)
    assert not degree_is_consistent(op)


def test_nonzero_in_columns_restriction(basis):
    top = basis.weight_block(basis.n_max)
    cols = {top.start: {0: ONE}, 0: {0: ONE}}
    op = SparseOperator(basis, cols)
    assert op.nonzero_in_columns() == (2, "[0,0] = 1")
    below = op.restricted(range(0, top.start))
    count, sample = below.nonzero_in_columns()
    assert count == 1 and sample == "[0,0] = 1"


def test_restricted_keeps_a_column_range(basis):
    rng = random.Random(5)
    a = random_operator(basis, rng)
    block = basis.weight_block(1)
    r = a.restricted(block)
    assert r.basis is a.basis and r.degree == a.degree
    assert sorted(r.cols) == [j for j in block if j in a.cols]
    assert all(r.cols[j] is a.cols[j] for j in r.cols)  # shared, not copied
    assert a.restricted(range(len(basis))) == a
    assert a.restricted(range(0)).is_zero()


def test_subtraction_in_one_pass(basis):
    rng = random.Random(13)
    for _ in range(4):
        a = random_operator(basis, rng)
        b = random_operator(basis, rng)
        assert dense(a - b) == [
            [x - y for x, y in zip(ra, rb)] for ra, rb in zip(dense(a), dense(b))
        ]
        assert a - b == a + b.scale(-ONE)
    z = SparseOperator.zero(basis)
    assert z - a == a.scale(-ONE) and a - z == a


def test_basis_mismatch_rejected(basis):
    other = TruncatedBasis(legs=2, n_max=2)
    a = SparseOperator.identity(basis)
    b = SparseOperator.identity(other)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
    assert a != b  # same matrix, different basis object
