import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from awalgebra.exactnum import ONE, rational
from awalgebra.fockspace import TruncatedBasis
from awalgebra.sparse import SparseOperator, _exact
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
    other = TruncatedBasis(legs=3, n_max=1)
    a = SparseOperator.identity(basis)
    b = SparseOperator.identity(other)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
    assert a != b  # same matrix, different basis shape


def test_equal_shape_bases_are_interchangeable(basis):
    other = TruncatedBasis(legs=2, n_max=2)
    assert other is not basis
    rng = random.Random(11)
    a = random_operator(basis, rng)
    b = random_operator(basis, rng)
    b2 = SparseOperator(other, {j: {i: b.get(i, j) for i in col} for j, col in b.cols.items()})
    assert b2 == b and b == b2 and hash(other) == hash(basis)
    assert dense(a * b2) == dense_mul(dense(a), dense(b))
    assert a + b2 == a + b and a - b2 == a - b and b2 * a == b * a
    assert (b - b2).is_zero()


# -- the integer-numerator kernel against dense Fraction matrices --------

BASIS = TruncatedBasis(legs=2, n_max=2)
N = len(BASIS)
DENOMINATORS = (1, 2, 3, 4, 6, 9, 12, 25, 27, 49)

# zero numerators are allowed: the constructor must drop them
values = st.builds(
    Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS)
)
cells = st.dictionaries(
    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)), values, max_size=N * N
)
scalars = st.fractions(min_value=-7, max_value=7, max_denominator=12)
column_ranges = st.tuples(st.integers(0, N), st.integers(0, N)).map(
    lambda t: range(min(t), max(t))
)


@st.composite
def cancelling_pairs(draw):
    """Cells of a and b, where b holds -a on a drawn subset of a's cells."""
    a = draw(cells)
    b = draw(cells)
    for key in draw(st.sets(st.sampled_from(sorted(a)))) if a else ():
        b[key] = -a[key]
    return a, b


@st.composite
def cancelling_products(draw):
    """Cells of a and b with a * b zero in one column: column i2 of a is
    k times column i1, and column j of b takes k t at row i1, -t at i2."""
    a, b = draw(cells), draw(cells)
    i1, i2 = draw(st.lists(st.integers(0, N - 1), min_size=2, max_size=2, unique=True))
    j = draw(st.integers(0, N - 1))
    k, t = draw(values.filter(bool)), draw(values.filter(bool))
    for r in range(N):
        a.pop((r, i2), None)
        if (r, i1) in a:
            a[(r, i2)] = k * a[(r, i1)]
        b.pop((r, j), None)
    b[(i1, j)], b[(i2, j)] = k * t, -t
    return a, b, j


def build(cells_):
    cols = {}
    for (i, j), v in cells_.items():
        cols.setdefault(j, {})[i] = v
    return SparseOperator(BASIS, cols)


def oracle(cells_):
    m = [[Fraction(0)] * N for _ in range(N)]
    for (i, j), v in cells_.items():
        m[i][j] = v
    return m


def assert_canonical(op):
    nums = [v for col in op.cols.values() for v in col.values()]
    assert type(op.den) is int and op.den > 0
    assert gcd(op.den, *nums) == 1
    assert all(type(v) is int and v != 0 for v in nums)
    assert all(op.cols.values())  # no empty columns stored


def combine(x, y, f):
    return [[f(u, v) for u, v in zip(rx, ry)] for rx, ry in zip(x, y)]


settle = settings(max_examples=60, deadline=None)


@settle
@given(cells)
def test_constructor_is_canonical(c):
    op = build(c)
    assert_canonical(op)
    assert dense(op) == oracle(c)
    assert op.is_zero() == (not any(c.values()))


@settle
@given(cancelling_pairs())
def test_sum_and_difference_against_dense(pair):
    a, b = build(pair[0]), build(pair[1])
    da, db = oracle(pair[0]), oracle(pair[1])
    for out, want in (
        (a + b, combine(da, db, lambda u, v: u + v)),
        (a - b, combine(da, db, lambda u, v: u - v)),
        (b - a, combine(db, da, lambda u, v: u - v)),
    ):
        assert_canonical(out)
        assert dense(out) == want
        assert out.is_zero() == all(v == 0 for row in want for v in row)


@settle
@given(cells, cells)
def test_product_against_dense(ca, cb):
    a, b = build(ca), build(cb)
    out = a * b
    assert_canonical(out)
    assert dense(out) == dense_mul(oracle(ca), oracle(cb))


@settle
@given(cancelling_products())
def test_cancelling_product_against_dense(case):
    ca, cb, j = case
    out = build(ca) * build(cb)
    assert_canonical(out)
    assert j not in out.cols
    assert dense(out) == dense_mul(oracle(ca), oracle(cb))


@settle
@given(cells, scalars)
def test_scale_against_dense(c, k):
    a = build(c)
    want = [[k * v for v in row] for row in oracle(c)]
    for out in (a.scale(k), a * k, k * a):
        assert_canonical(out)
        assert dense(out) == want
    assert a.scale(Fraction(0)).is_zero()
    assert (-a).scale(-1) == a


@settle
@given(cells, cells, column_ranges, scalars)
def test_restricted_views_against_dense(ca, cb, cols, k):
    a, b = build(ca), build(cb)
    view = a.restricted(cols)
    kept = {key: v for key, v in ca.items() if key[1] in cols}
    assert view.den == a.den
    assert dense(view) == oracle(kept)
    assert view == build(kept)  # value equality across denominators
    dv, db = oracle(kept), oracle(cb)
    assert dense(view * b) == dense_mul(dv, db)
    assert dense(b * view) == dense_mul(db, dv)
    assert dense(view - b) == combine(dv, db, lambda u, v: u - v)
    assert dense(view.scale(k)) == [[k * v for v in row] for row in dv]
    for out in (view * b, b * view, view.scale(k)):
        assert_canonical(out)
    if not (view.is_zero() or b.is_zero()):
        assert_canonical(view + b)


@settle
@given(cells, cells)
def test_equality_is_value_equality(ca, cb):
    a, b = build(ca), build(cb)
    assert (a == b) == (oracle(ca) == oracle(cb))
    assert a == a.scale(Fraction(7, 3)).scale(Fraction(3, 7))
    if not a.is_zero():
        j = min(a.cols)
        i = min(a.cols[j])
        bumped = a + SparseOperator(BASIS, {j: {i: Fraction(1, a.den)}})
        assert bumped != a and bumped.restricted(range(N)) != a


# -- the fused kernel lincomb against the dense Fraction oracle -----------

WEIGHTS = BASIS.weights
DEGREES = (-1, 0, 1, None)


@st.composite
def operands(draw):
    """(operator, dense matrix): degree-typed cells, sometimes zero, and
    sometimes a restricted view, whose den need not be canonical."""
    degree = draw(st.sampled_from(DEGREES))
    c = draw(st.just({}) | cells)
    if degree is not None:
        c = {(i, j): v for (i, j), v in c.items() if WEIGHTS[i] == WEIGHTS[j] + degree}
    cols = {}
    for (i, j), v in c.items():
        cols.setdefault(j, {})[i] = v
    op = SparseOperator(BASIS, cols, degree)
    if draw(st.booleans()):
        kept = draw(column_ranges)
        op = op.restricted(kept)
        c = {key: v for key, v in c.items() if key[1] in kept}
    return op, oracle(c)


@st.composite
def term_lists(draw):
    """1-4 terms (c, A) or (c, A, B) with dense values; coefficients
    include 0 and negatives, and a drawn term may be followed by its
    exact negation."""
    terms, mats = [], []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(scalars | st.integers(-3, 3))
        ops = draw(st.lists(operands(), min_size=1, max_size=2))
        terms.append((c, *(op for op, _ in ops)))
        mats.append((c, *(m for _, m in ops)))
        if draw(st.integers(0, 3)) == 0:
            terms.append((-c, *terms[-1][1:]))
            mats.append((-c, *mats[-1][1:]))
    return terms, mats


def dense_lincomb(mats):
    out = [[Fraction(0)] * N for _ in range(N)]
    for c, *ms in mats:
        m = ms[0] if len(ms) == 1 else dense_mul(ms[0], ms[1])
        out = combine(out, m, lambda u, v: u + c * v)
    return out


def expected_degree(terms, out):
    """Common degree of the nonzero terms, None when they differ, 0 for
    a zero result."""
    if out.is_zero():
        return 0
    degrees = set()
    for c, *ops in terms:
        if c and all(not op.is_zero() for op in ops):
            ds = [op.degree for op in ops]
            degrees.add(None if None in ds else sum(ds))
    return degrees.pop() if len(degrees) == 1 else None


@settings(max_examples=150, deadline=None)
@given(term_lists())
def test_lincomb_against_dense(case):
    terms, mats = case
    out = SparseOperator.lincomb(BASIS, terms)
    assert_canonical(out)
    want = dense_lincomb(mats)
    assert dense(out) == want
    assert out.is_zero() == all(v == 0 for row in want for v in row)
    assert out.degree == expected_degree(terms, out)
    assert degree_is_consistent(out)


@settle
@given(cells, cells, scalars)
def test_lincomb_cancelling_terms_give_canonical_zero(ca, cb, k):
    a, b = build(ca), build(cb)
    out = SparseOperator.lincomb(BASIS, [(k, a, b), (k, a), (-k, a, b), (-k, a)])
    assert out.is_zero() and out.cols == {} and out.den == 1 and out.degree == 0


def test_lincomb_of_no_terms_is_zero():
    out = SparseOperator.lincomb(BASIS, [])
    assert out.is_zero() and out.den == 1 and out.degree == 0


def test_lincomb_takes_one_or_two_operators_per_term():
    a = SparseOperator.identity(BASIS)
    for terms in ([(1,)], [(1, a, a, a)], [(0, a, a, SparseOperator.zero(BASIS))]):
        with pytest.raises(ValueError):
            SparseOperator.lincomb(BASIS, terms)


def test_lincomb_basis_mismatch_raises():
    other = TruncatedBasis(legs=3, n_max=1)
    a = SparseOperator.identity(BASIS)
    b = SparseOperator.identity(other)
    for terms in ([(1, b)], [(1, a), (1, a, b)], [(0, b)], [(1, a, SparseOperator.zero(other))]):
        with pytest.raises(ValueError):
            SparseOperator.lincomb(BASIS, terms)


# -- exact scalars at the kernel boundary ---------------------------------

INEXACT = (0.5, 0.1, True, False, "x", "1/2", None)


@pytest.mark.parametrize("c", INEXACT, ids=repr)
def test_inexact_scalars_are_rejected(c):
    a = SparseOperator.identity(BASIS, rational(2, 3))
    with pytest.raises(TypeError):
        SparseOperator.identity(BASIS, c)
    with pytest.raises(TypeError):
        a.scale(c)
    with pytest.raises(TypeError):
        a * c
    with pytest.raises(TypeError):
        SparseOperator.lincomb(BASIS, [(c, a)])
    with pytest.raises(TypeError):
        SparseOperator.lincomb(BASIS, [(1, a), (c, a, a)])
    with pytest.raises(TypeError):
        c * a


def test_exact_scalars_are_accepted():
    a = SparseOperator.identity(BASIS, Fraction(1, 3))
    for c in (3, Fraction(3), rational(3)):
        assert a.scale(c) == a * c == c * a == SparseOperator.identity(BASIS)
        assert SparseOperator.identity(BASIS, c) == SparseOperator.lincomb(BASIS, [(c, a.scale(3))])


def test_exact_scalars_give_int_parts():
    # an int or a Fraction of int parts gives its parts as they are; a
    # Fraction of numpy integers or an int subclass is converted to int
    class Count(int):
        pass

    cases = ((7, (7, 1)), (Fraction(-2, 6), (-1, 3)), (Fraction(np.int64(3), np.int64(4)), (3, 4)), (Count(5), (5, 1)))
    for c, want in cases:
        got = _exact(c)
        assert got == want and all(type(x) is int for x in got), c


@pytest.mark.parametrize("v", (True, False, 0.5, 1.0, "1"), ids=repr)
def test_inexact_entries_are_rejected(v):
    with pytest.raises(TypeError):
        SparseOperator(BASIS, {0: {0: v}})
    with pytest.raises(TypeError):
        SparseOperator.diagonal(BASIS, lambda j: v)


def test_exact_entries_are_accepted():
    for v in (2, Fraction(2, 3), rational(2, 3)):
        op = SparseOperator(BASIS, {0: {0: v, 1: 0}, 1: {1: v}})
        assert op.get(0, 0) == v and op.nnz() == 2
        assert SparseOperator.diagonal(BASIS, lambda j: v) == SparseOperator.identity(BASIS, v)
