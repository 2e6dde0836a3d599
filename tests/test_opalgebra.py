import pytest

from awalgebra.exactnum import ONE, inverse, parse, rational
from awalgebra.opalgebra import (
    DERIVED_DEFS,
    GeneratorRegistry,
    Generators,
    bracket,
    build_registry,
    consecutive_subsets,
    derived_terms,
    involute_monomial,
    involution,
    is_consecutive,
    label_of_subset,
    nonempty_subsets,
    subset_of_label,
)
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import RepParams, casimir
from helpers import degree_is_consistent, is_derived_label, monomial


@pytest.fixture(scope="module")
def reg():
    return build_registry(RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=2))


def test_label_round_trip():
    assert label_of_subset((2, 1)) == "Q12"
    assert label_of_subset((1, 2, 4), flipped=True) == "IQ124"
    assert label_of_subset(()) == "Q0"
    assert subset_of_label("IQ134") == (1, 3, 4)
    assert subset_of_label("Q0") == ()
    assert subset_of_label("Q1234") == (1, 2, 3, 4)


def test_consecutive_classification():
    assert is_consecutive((2, 3, 4)) and is_consecutive((1,))
    assert not is_consecutive((1, 3)) and not is_consecutive(())
    assert is_derived_label("Q13") and is_derived_label("IQ124")
    assert not is_derived_label("Q123") and not is_derived_label("Q0")


def test_consecutive_subsets_enumeration():
    assert consecutive_subsets(2) == [(1, 1), (2, 2), (1, 2)]
    assert len(consecutive_subsets(4)) == 10
    assert len(list(nonempty_subsets(4))) == 15


def test_involution_on_labels():
    for fixed in ("Q0", "Q2", "Q12", "Q234", "Q1234"):
        assert involution(fixed) == fixed
    assert involution("Q13") == "IQ13"
    assert involution("IQ124") == "Q124"
    for label in ("Q13", "IQ14", "Q134", "Q23"):
        assert involution(involution(label)) == label


def test_involute_monomial_keeps_order():
    assert involute_monomial(("Q1", "Q13")) == ("Q1", "IQ13")
    assert involute_monomial(("IQ24", "Q12", "Q14")) == ("Q24", "Q12", "IQ14")
    assert involute_monomial(()) == ()


def expansion(terms) -> dict:
    """{label monomial: coefficient} of terms over labels alone."""
    out = {}
    for c, *labels in terms:
        out[tuple(labels)] = out.get(tuple(labels), 0) + c
    return {m: c for m, c in out.items() if c}


@pytest.mark.parametrize("qtxt", ["5/3", "-2/5"])
def test_involution_maps_each_definition_to_its_partner(qtxt):
    # q -> q^-1 with E <-> F maps the derived generator X, written at
    # 1/q, to involution(X) at q, each label mapped in place
    q = parse(qtxt)
    labels = [*DERIVED_DEFS, *("I" + x for x in DERIVED_DEFS)]
    assert len(labels) == 10
    for label in labels:
        image = {
            involute_monomial(m): c for m, c in expansion(derived_terms(label, inverse(q))).items()
        }
        assert image == expansion(derived_terms(involution(label), q)), label


def test_q_commutator_of_scalars():
    p = RepParams(q=rational(2), k=(1, 1), legs=2, n_max=1)
    table = Generators(p, {"A": SparseOperator.identity(p.basis, rational(3))})
    c = SparseOperator.identity(p.basis, rational(5))
    out = table.combine(bracket(rational(2), "A", c))
    assert out == SparseOperator.identity(p.basis, rational(45, 2))


def test_bracket_terms():
    q = rational(5, 3)
    assert bracket(q, "a", "b") == ((q, "a", "b"), (-rational(3, 5), "b", "a"))
    assert bracket(q, "a", "b", -2) == ((-2 * q, "a", "b"), (rational(6, 5), "b", "a"))
    assert bracket(1, "a", "b") == ((1, "a", "b"), (-1, "b", "a"))


def test_q_commutator_identities(reg):
    q = reg.params.q
    x = reg["Q12"]
    s = q - inverse(q)
    assert reg.combine(bracket(q, "Q12", "Q12")) == (x * x).scale(s)
    # [a,b]_q + [b,a]_(1/q) = 0
    assert reg.combine((*bracket(q, "Q12", "Q23"), *bracket(inverse(q), "Q23", "Q12"))).is_zero()


def test_commutator_and_anticommutator(reg):
    x = reg["Q12"]
    iden = SparseOperator.identity(reg.basis)
    assert reg.combine(bracket(1, "Q12", "Q12")).is_zero()
    assert iden * x + x * iden == x.scale(rational(2))
    assert reg.combine(bracket(1, "Q1", "Q23")).is_zero()
    assert reg.combine(bracket(1, "Q12", "Q23")) == x * reg["Q23"] - reg["Q23"] * x


def counting_lincomb(monkeypatch):
    """The number of SparseOperator.lincomb calls from now on, as a list
    of the term counts of the calls."""
    calls = []
    real = SparseOperator.lincomb.__func__
    monkeypatch.setattr(
        SparseOperator, "lincomb", classmethod(lambda cls, basis, terms: calls.append(len(terms)) or real(cls, basis, terms))
    )
    return calls


def test_combine_evaluates_each_nested_tuple_once(reg, monkeypatch):
    q = reg.params.q
    x, y = reg["Q12"], reg["Q23"]
    inner = bracket(q, "Q12", "Q23")
    calls = counting_lincomb(monkeypatch)
    # [[x, y]_q, x]_q holds inner twice: one lincomb for it, one for the whole
    got = reg.combine(bracket(q, inner, "Q12"))
    assert calls == [2, 2]
    del calls[:]
    chained = (x * y).scale(q) - (y * x).scale(inverse(q))
    assert got == (chained * x).scale(q) - (x * chained).scale(inverse(q))
    # an equal tuple that is another object is another lincomb
    del calls[:]
    reg.combine(((1, inner, bracket(q, "Q12", "Q23")),))
    assert calls == [2, 2, 1]


def test_combine_takes_operators_and_no_terms(reg, monkeypatch):
    x = reg["Q12"]
    calls = counting_lincomb(monkeypatch)
    assert reg.combine(()) == SparseOperator.zero(reg.basis) and not calls
    got = reg.combine(((2, x, "Q23"), (-1, "Q0")))
    assert calls == [2]
    assert got == (x * reg["Q23"]).scale(rational(2)) + reg["Q0"].scale(-ONE)
    with pytest.raises(KeyError):
        reg.combine(((1, "Q5"),))


def test_registry_labels_at_each_rank():
    p2 = RepParams(q=parse("5/3"), k=(1, 2), legs=2, n_max=1)
    r2 = build_registry(p2)
    assert r2.labels() == ("Q0", "Q1", "Q2", "Q12")
    p3 = RepParams(q=parse("5/3"), k=(1, 2, 1), legs=3, n_max=1)
    r3 = build_registry(p3)
    assert r3.labels() == (
        "Q0",
        "Q1",
        "Q2",
        "Q3",
        "Q12",
        "Q23",
        "Q123",
        "Q13",
        "IQ13",
    )


@pytest.mark.parametrize("legs", [2, 3, 4])
def test_registry_lives_on_the_parameters_basis(legs):
    p = RepParams(q=parse("7/2"), k=(2, 1, 3, 1)[:legs], legs=legs, n_max=2)
    reg = build_registry(p)
    assert reg.basis is p.basis
    assert (reg.basis.legs, reg.basis.n_max) == (p.legs, p.n_max)
    assert all(op.basis == p.basis for op in reg.table.values())


def test_registry_cache_keeps_two_realizations():
    info = build_registry.cache_info()
    assert info.maxsize == 2
    for n_max in (1, 2, 3):
        p = RepParams(q=parse("9/4"), k=(3, 1, 2), legs=3, n_max=n_max)
        assert build_registry(p) is build_registry(p)
    assert build_registry.cache_info().currsize <= 2


def test_registry_full_rank_labels(reg):
    assert len(reg.labels()) == 21
    assert "Q14" in reg and "IQ134" in reg
    with pytest.raises(KeyError):
        reg["Q5"]


def test_q0_is_minus_identity(reg):
    assert reg["Q0"] == SparseOperator.identity(reg.basis, -ONE)


def test_singletons_are_scalar(reg):
    # Q^(i) = -(q^(2k_i-1)+q^(1-2k_i))/(q+q^-1) times the identity
    q = reg.params.q
    t = q + inverse(q)
    for leg, k in enumerate(reg.params.k, start=1):
        lam = -(q ** (2 * k - 1) + q ** (1 - 2 * k)) / t
        assert reg[f"Q{leg}"] == SparseOperator.identity(reg.basis, lam)


def test_consecutive_entries_are_casimirs(reg):
    # a registry cached by an earlier test may outlive its Casimirs'
    # cache entries, so build this one afresh
    build_registry.cache_clear()
    fresh = build_registry(reg.params)
    assert fresh["Q234"] is casimir(reg.params, (2, 4))
    assert fresh["Q1234"] is casimir(reg.params, (1, 4))


def test_derived_generators_are_degree_zero(reg):
    for label in reg.labels():
        op = reg[label]
        assert op.degree == 0
        assert degree_is_consistent(op)


def test_derived_differs_from_involuted_partner(reg):
    for base in DERIVED_DEFS:
        assert reg[base] != reg["I" + base]


def test_derived_definition_is_reproduced(reg):
    # spot check Q13 against its defining combination
    q = reg.params.q
    s = q - inverse(q)
    lhs = reg.combine(bracket(q, "Q12", "Q23", inverse(s)))
    rhs = reg["Q13"] + reg["Q1"] * reg["Q3"] + reg["Q2"] * reg["Q123"]
    assert lhs == rhs


def test_total_casimir_commutes_with_derived(reg):
    # Q^(1234) is central, and that is not a scalar statement
    assert reg["Q1234"].nnz() > len(reg.basis)
    assert reg.combine(bracket(1, "Q13", "Q1234")).is_zero()
    assert reg.combine(bracket(1, "IQ24", "Q1234")).is_zero()


def test_double_q_commutator_with_q0(reg):
    # [[Q0, y]_q, z]_q = -(q-q^-1) [y, z]_q since Q0 = -1
    q = reg.params.q
    s = q - inverse(q)
    lhs = reg.combine(bracket(q, bracket(q, "Q0", "Q12"), "Q23"))
    assert lhs == reg.combine(bracket(q, "Q12", "Q23", -s))


def test_product_cache(reg):
    a = reg.product("Q12", "Q23")
    assert a == reg.product("Q12", "Q23")
    assert a == reg["Q12"] * reg["Q23"]
    d = reg.product("Q13", "Q24")
    assert d == reg.product("Q13", "Q24")
    assert d == reg["Q13"] * reg["Q24"]


def test_commutator_of_remembers_only_commuting_pairs(reg, monkeypatch):
    fresh = GeneratorRegistry(reg.params, reg.table)
    zero = fresh.commutator_of("Q12", "Q34")
    assert zero.residual.is_zero()
    assert fresh.commutator_of("Q34", "Q12") is zero
    assert zero.residual == SparseOperator.zero(reg.basis)
    crossing = fresh.commutator_of("Q12", "Q23")
    assert not crossing.residual.is_zero()
    assert crossing.residual == reg["Q12"] * reg["Q23"] - reg["Q23"] * reg["Q12"]
    assert fresh._commuting == {frozenset(("Q12", "Q34")): zero}
    # the crossing pair is entered as a pair, with no operator held
    assert fresh._noncommuting == {frozenset(("Q12", "Q23"))}
    assert not fresh.commutes("Q23", "Q12")
    # and commutator_of evaluates it again
    calls = []
    real = GeneratorRegistry.residual
    monkeypatch.setattr(GeneratorRegistry, "residual", lambda self, t: calls.append(t) or real(self, t))
    again = fresh.commutator_of("Q23", "Q12")
    assert len(calls) == 1 and calls[0]
    assert again.residual == SparseOperator.zero(reg.basis) - crossing.residual
    assert fresh.restricted(1)._commuting == {}
    assert fresh.restricted(1)._noncommuting == set()


def test_monomial(reg):
    assert monomial(reg, ()) == SparseOperator.identity(reg.basis)
    assert monomial(reg, ("Q1", "Q12")) == reg["Q1"] * reg["Q12"]


@pytest.mark.parametrize("name", ["default_registry", "alt_registry"])
def test_restricted_equals_shallow_truncation(name, request):
    # blocks <= 3 of the nmax=6 realization are the nmax=3 realization
    full = request.getfixturevalue(name)
    p = full.params
    small = RepParams(q=p.q, k=p.k, legs=p.legs, n_max=3)
    shallow = build_registry(small)
    probe = full.restricted(3)
    assert probe.labels() == shallow.labels() == full.labels()
    for label in full.labels():
        # bases of different shapes, so compare the entries' values
        got, want = probe[label].entries(), shallow[label].entries()
        assert list(got) == list(want), label


def test_restricted_shares_parameters_and_basis(reg):
    probe = reg.restricted(1)
    assert probe.params is reg.params and probe.basis is reg.basis
    leading = range(0, reg.basis.weight_block(1).stop)
    assert monomial(probe, ()) == SparseOperator.identity(reg.basis).restricted(leading)
    assert monomial(probe, ("Q12", "Q23")) == (reg["Q12"] * reg["Q23"]).restricted(leading)


def test_restricted_is_none_without_degree_zero(reg):
    table = dict(reg.table)
    table["Q13"] = SparseOperator(reg.basis, {0: {1: ONE}}, degree=1)
    assert GeneratorRegistry(reg.params, table).restricted(1) is None
