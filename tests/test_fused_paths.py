"""The fused kernel against the chained evaluation it replaced.

Every builder and residual that is one SparseOperator.lincomb call, or
a term tuple evaluated by Generators.combine, is rebuilt here the old
way, as the oracle: each product materialized, then scaled and summed
pairwise, with a gcd reduction per step.  At legs=4, nmax=3 and both
acceptance parameter sets the two must agree entry for entry; both are
canonical, so numerators and den agree too.
"""

import pytest

from awalgebra import relcheck
from awalgebra.exactnum import ONE, inverse, rational
from awalgebra.opalgebra import (
    DERIVED_DEFS,
    build_registry,
    consecutive_subsets,
    involute_monomial,
    label_of_subset,
)
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import (
    RepParams,
    _leg_ops,
    casimir,
    casimir_unshifted,
    interval_ops,
)
from helpers import monomial

PARAMS = (
    RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3),
    RepParams(q=rational(2, 5), k=(2, 1, 1, 1), legs=4, n_max=3),
)
INTERVALS = consecutive_subsets(4)


@pytest.fixture(scope="module", params=PARAMS, ids=("q=5/3", "q=2/5"))
def reg(request):
    return build_registry(request.param)


def assert_identical(got, want):
    assert (got.den, got.cols) == (want.den, want.cols)
    assert list(got.entries()) == list(want.entries())


# -- the chained evaluation ----------------------------------------------


def chained_bracket(q, a, b):
    return (a * b).scale(q) - (b * a).scale(inverse(q))


def fold(left, right):
    return {
        "E": left["K"] * right["E"] + left["E"] * right["Kinv"],
        "F": left["K"] * right["F"] + left["F"] * right["Kinv"],
        "K": left["K"] * right["K"],
        "Kinv": left["Kinv"] * right["Kinv"],
    }


def shifted_casimir(q, ops):
    iq = ONE / q
    k2 = ops["K"] * ops["K"]
    ki2 = ops["Kinv"] * ops["Kinv"]
    ef = ops["E"] * ops["F"]
    return (k2.scale(iq) + ki2.scale(q) + ef.scale((q - iq) ** 2)).scale(-ONE / (q + iq))


def derived(reg, left, right, subs):
    q = reg.params.q
    correction = SparseOperator.zero(reg.basis)
    for fa, fb in subs:
        correction = correction + reg[fa] * reg[fb]
    return chained_bracket(q, reg[left], reg[right]).scale(inverse(q - inverse(q))) - correction


def aw3_residual(reg, rel, assign):
    def resolve(subset):
        return assign.get(subset, label_of_subset(subset))

    q = reg.params.q
    l1, l2 = (resolve(x) for x in rel["left"])
    lhs = chained_bracket(q, reg[l1], reg[l2]).scale(inverse(q - inverse(q)))
    rhs = reg[resolve(rel["lone"])]
    for mono in rel["monomials"]:
        rhs = rhs + monomial(reg, involute_monomial(tuple(resolve(x) for x in mono)))
    return lhs - rhs


def master_residual(reg, row):
    q = reg.params.q
    (a, b, c), (al, be, ga), (x, y, z) = row.triples
    resid = SparseOperator.zero(reg.basis)
    for sign, (u, v, w) in (
        (1, (a, b, c)),
        (1, (al, be, ga)),
        (1, (x, y, z)),
        (-1, (a, be, z)),
        (-1, (x, b, ga)),
        (-1, (al, y, c)),
    ):
        term = chained_bracket(q, chained_bracket(q, reg[u], reg[v]), reg[w])
        resid = resid + term if sign > 0 else resid - term
    return resid


def linear_residual(reg, x, y, closing):
    """[[x,y]_q,x]_q - (q-q^-1)^2 (B x + y + the closing products), B =
    Q1 Q3 + Q2 Q123."""
    q = reg.params.q
    b = reg["Q1"] * reg["Q3"] + reg["Q2"] * reg["Q123"]
    rhs = b * reg[x] + reg[y]
    for fa, fb in closing:
        rhs = rhs + reg[fa] * reg[fb]
    return chained_bracket(q, chained_bracket(q, reg[x], reg[y]), reg[x]) - rhs.scale((q - inverse(q)) ** 2)


def defining_residuals(p, ops):
    q = p.q
    e, f, k, ki = ops["E"], ops["F"], ops["K"], ops["Kinv"]
    comm = e * f - f * e
    return [
        k * ki - SparseOperator.identity(p.basis),
        k * e - (e * k).scale(q),
        (k * f).scale(q) - f * k,
        comm - (k * k - ki * ki).scale(inverse(q - inverse(q))),
    ]


@pytest.fixture()
def residuals(monkeypatch):
    """The residual operators relcheck hands to residual_report."""
    seen = []
    monkeypatch.setattr(relcheck, "residual_report", lambda **kw: seen.append(kw["residual"]))
    return seen


# -- fused equals chained --------------------------------------------------


def test_folds_match_chained(reg):
    p = reg.params
    for lo, hi in INTERVALS:
        legs = [_leg_ops(p, leg) for leg in range(lo, hi + 1)]
        left, right = legs[0], legs[-1]
        for nxt in legs[1:]:
            left = fold(left, nxt)
        for prev in reversed(legs[:-1]):
            right = fold(prev, right)
        for name in ("E", "F", "K", "Kinv"):
            assert_identical(interval_ops(p, (lo, hi))[name], left[name])
            assert_identical(interval_ops(p, (lo, hi), "right")[name], right[name])


def test_casimirs_match_chained(reg):
    p = reg.params
    q = p.q
    s2, t = (q - inverse(q)) ** 2, q + inverse(q)
    for iv in INTERVALS:
        want = shifted_casimir(q, interval_ops(p, iv))
        assert_identical(casimir(p, iv), want)
        iden = SparseOperator.identity(p.basis, 2)
        assert_identical(casimir_unshifted(p, iv), (want.scale(t) + iden).scale(-ONE / s2))


def test_derived_generators_match_chained(reg):
    for base, ((left, right), subs) in DERIVED_DEFS.items():
        assert_identical(reg[base], derived(reg, left, right, subs))
        assert_identical(reg["I" + base], derived(reg, right, left, subs))


def test_aw3_residuals_match_chained(reg):
    for triple in relcheck.enumerate_allowable():
        fermionic = relcheck._fermionic_subsets(triple)
        plain = {s: label_of_subset(s) for s in fermionic}
        flipped = {s: label_of_subset(s, flipped=True) for s in fermionic}
        for rel in relcheck._aw3_rotations(triple):
            for assign in (plain, flipped):
                got = relcheck._aw3_residual(reg, rel, assign).residual
                assert_identical(got, aw3_residual(reg, rel, assign))


def test_master_rows_match_chained(reg, residuals):
    rows = list(relcheck.load_master_rows())
    # wrong rows (first two labels exchanged): nonzero residuals compared too
    for row in rows[:20]:
        (a, b, c), *rest = row.triples
        rows.append(row._replace(triples=((b, a, c), *rest)))
    for row in rows:
        relcheck.check_master(reg, row)
    assert len(residuals) == len(rows) == 40
    assert sum(not r.is_zero() for r in residuals) == 20
    for got, row in zip(residuals, rows):
        assert_identical(got, master_residual(reg, row))


@pytest.mark.parametrize("legs", [4, 3])
def test_linear_pair_matches_chained(reg, residuals, legs):
    # embedded (terms on the quotient, then the full table) and three-leg
    # (products through GeneratorRegistry.product, on the full table)
    if legs == 3:
        reg = build_registry(reg.params.interval_realization((1, 3)))
    relcheck.check_aw3_linear(reg)
    want = [
        linear_residual(reg, "Q12", "Q23", (("Q1", "Q123"), ("Q2", "Q3"))),
        linear_residual(reg, "Q23", "Q12", (("Q3", "Q123"), ("Q1", "Q2"))),
    ]
    assert len(residuals) == 2 and all(r.is_zero() for r in want)
    for got, expected in zip(residuals, want):
        assert_identical(got, expected)


def test_defining_residuals_match_chained(reg, residuals):
    p = reg.params
    relcheck.check_defining_relations(p)
    want = [r for iv in INTERVALS for r in defining_residuals(p, interval_ops(p, iv))]
    assert len(residuals) == len(want) == 40
    # the E, F commutator, every fourth, is evaluated on the columns its
    # report checks, those of weight <= nmax - 1
    checked = range(p.basis.weight_block(p.n_max - 1).stop)
    for n, (got, expected) in enumerate(zip(residuals, want)):
        if n % 4 == 3:
            expected = SparseOperator.lincomb(p.basis, [(1, expected.restricted(checked))])
        assert_identical(got, expected)
