"""Relation residuals evaluated on the quotient realization M_w =
block_w / Delta(E)(block_(w-1)) (lifting.py, GeneratorRegistry.residual),
against the full lincomb evaluation as the oracle: a registry whose
quotient certificate never holds evaluates every residual on the full
table."""

import json

import pytest
import sympy

from awalgebra import cli, opalgebra, relcheck
from awalgebra.compass import CompassError, build_compass
from awalgebra.exactnum import parse, rational
from awalgebra.lifting import (
    commutes_below_top,
    is_scalar,
    quotient_operator,
    quotient_table,
    remainder,
    seed_states,
)
from awalgebra.opalgebra import GeneratorRegistry, bracket, build_registry
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import RepParams, casimir, interval_ops, predicted_eigenvalues
from helpers import FullEvaluation, bumped

LIFT_FIELDS = ("columns_computed", "certificate_held")
PARAMS = {
    "default": RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=4),
}


def full(reg):
    return FullEvaluation(reg.params, reg.held)


def fresh(p):
    """A registry of p that has built nothing yet (build_registry's is
    shared by every test)."""
    return GeneratorRegistry(p, build_registry(p).held)


def total_e(p):
    return interval_ops(p, (1, p.legs))["E"]


def seeds_to(basis, top):
    return [j for w in range(top + 1) for j in seed_states(basis, w)]


def certificate(ops, p, top=None, lams=None):
    """lifting.quotient_table of ops with the total Casimir and the
    predicted eigenvalues of the total interval (or lams)."""
    top = p.n_max if top is None else top
    lams = predicted_eigenvalues(p, (1, p.legs), top) if lams is None else lams
    return quotient_table(ops, "Q1234", total_e(p), lams)


def suites(reg, probe=None):
    """Reports of prop1, prop2, aw3 and master on reg."""
    return (
        relcheck.check_prop1(reg)
        + relcheck.check_prop2(reg)
        + [r for t in relcheck.enumerate_allowable() for r in relcheck.check_aw3_symmetric(reg, t, probe)]
        + relcheck.check_master_all(reg)
    )


def without_lift_fields(report):
    out = report.to_json()
    out["residual_summary"] = {k: v for k, v in out["residual_summary"].items() if k not in LIFT_FIELDS}
    return out


@pytest.mark.parametrize("name", PARAMS)
def test_quotient_generators_equal_the_reductions_of_the_full_ones(name):
    reg = fresh(PARAMS[name])
    basis = reg.basis
    seeds = seeds_to(basis, basis.n_max)
    assert set(reg.quotient) == set(reg.held)  # derived ones are built on first use
    e = total_e(reg.params)
    for label in reg.labels():
        assert reg.quotient[label] == quotient_operator(reg[label], e, seeds), label
    assert all(i in seeds for op in reg.quotient.values() for j, col in op.cols.items() for i in (j, *col))
    # the total Casimir is the scalar lambda_w on M_w
    lams = predicted_eigenvalues(reg.params, (1, 4), basis.n_max)
    assert reg.quotient["Q1234"] == SparseOperator(basis, {s: {s: lams[basis.weights[s]]} for s in seeds}, 0)


@pytest.mark.parametrize("name", PARAMS)
def test_seed_reports_equal_full_reports(name):
    reg = fresh(PARAMS[name])
    basis = reg.basis
    lifted = suites(reg, reg.restricted(3))
    oracle = suites(full(reg))
    assert [without_lift_fields(r) for r in lifted] == [without_lift_fields(r) for r in oracle]
    assert set(reg._full) == set(reg.held)  # no full derived generator was needed
    seeds = len(seeds_to(basis, basis.n_max))
    checked = [r for r in lifted if "columns_computed" in r.residual_summary]
    assert len(checked) == 45 + 150 + 30 + 20  # every check but prop1/structure
    for r in checked:
        zero = r.residual_summary["nonzero_entries"] == 0
        assert r.residual_summary["certificate_held"]
        assert r.residual_summary["columns_computed"] == (seeds if zero else len(basis)), r.id
    # the five crossing pairs of prop1 are the only nonzero residuals
    assert sum(r.status == "fail" for r in checked) == 5
    assert all(
        r.residual_summary["columns_computed"] == len(basis) and not r.residual_summary["certificate_held"]
        for r in oracle
        if "columns_computed" in r.residual_summary
    )


@pytest.mark.parametrize("name", PARAMS)
def test_nonzero_residuals_equal_the_oracle(name):
    # wrong orientations of aw3, and master rows with exchanged labels:
    # nonzero on the quotient, so computed in full
    reg = build_registry(PARAMS[name])
    oracle = full(reg)
    nonzero = 0
    for triple in relcheck.enumerate_allowable()[:4]:
        fermionic = relcheck._fermionic_subsets(triple)
        for flipped in (False, True):
            assign = {s: relcheck.label_of_subset(s, flipped) for s in fermionic}
            for rel in relcheck._aw3_rotations(triple):
                got = relcheck._aw3_residual(reg, rel, assign).residual
                assert got == relcheck._aw3_residual(oracle, rel, assign).residual
                nonzero += not got.is_zero()
    assert nonzero > 0
    for row in relcheck.load_master_rows():
        (a, b, c), *rest = row.triples
        swapped = row._replace(triples=((b, a, c), *rest))
        got = relcheck.check_master(reg, swapped)
        assert got.to_json() == {
            **relcheck.check_master(oracle, swapped).to_json(),
            "residual_summary": got.residual_summary,
        }
        assert got.status == "fail"
        assert got.residual_summary["columns_computed"] == len(reg.basis)
        assert got.residual_summary["certificate_held"]


@pytest.mark.parametrize("name", ["default", "alt"])
def test_embedded_linear_pair_is_decided_on_the_quotient(name, monkeypatch, default_registry, alt_registry):
    # at four legs each line of the linearized aw3 pair is one
    # registry residual, zero on the seeds, with no
    # GeneratorRegistry.product; at three legs the pair still forms its
    # products through it
    reg = {"default": default_registry, "alt": alt_registry}[name]
    products, lifts = [], []
    real_product, real_residual = GeneratorRegistry.product, GeneratorRegistry.residual
    monkeypatch.setattr(GeneratorRegistry, "product", lambda self, *ab: products.append(ab) or real_product(self, *ab))
    monkeypatch.setattr(GeneratorRegistry, "residual", lambda self, t: lifts.append(real_residual(self, t)) or lifts[-1])
    got = relcheck.check_aw3_linear(reg)
    assert [r.status for r in got] == ["pass", "pass"]
    seeds = len(seeds_to(reg.basis, reg.basis.n_max))
    assert [(x.columns, x.certified) for x in lifts] == [(seeds, True)] * 2
    # and each report carries its line's lift
    assert [tuple(r.residual_summary[f] for f in LIFT_FIELDS) for r in got] == [(seeds, True)] * 2
    assert [without_lift_fields(r) for r in got] == [without_lift_fields(r) for r in relcheck.check_aw3_linear(full(reg))]
    assert not products
    reg3 = build_registry(reg.params.interval_realization((1, 3)))
    assert [r.status for r in relcheck.check_aw3_linear(reg3)] == ["pass", "pass"]
    assert len(products) == 6


def test_changed_entry_off_the_seeds_refuses_the_certificate():
    # one diagonal numerator of Q12 changed in a column with a quantum
    # on leg 1: the quotient does not see it, so only the certificate
    # stands between the change and a false pass
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    e = total_e(reg.params)
    seeds = seeds_to(basis, basis.n_max)
    j = basis.index_of((1, 0, 1, 0))
    assert j not in seeds
    bad = bumped(reg, "Q12", j)
    assert quotient_operator(bad["Q12"], e, seeds) == reg.quotient["Q12"]
    assert not bad.combine(bracket(1, "Q12", "Q34")).is_zero()
    assert bad.quotient is None
    got, want = suites(bad), suites(full(bad))
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    failed = {r.id for r in got if not r.ok}
    assert {"prop1/Q12-Q34", "prop1/Q12-Q1234", "prop1/structure"} <= failed
    assert any(x.startswith("master/") for x in failed)
    for r in got:
        if "columns_computed" in r.residual_summary:
            assert r.residual_summary["columns_computed"] == len(basis)
            assert not r.residual_summary["certificate_held"]


def test_block_not_spanned_by_lifting_refuses_the_certificate():
    p = PARAMS["default"]
    reg = build_registry(p)
    basis = reg.basis
    e = total_e(p)
    lams = predicted_eigenvalues(p, (1, 4), basis.n_max)
    assert quotient_table(reg.held, "Q1234", e, lams) is not None
    # drop the entry of E that lifts (0, 1, 1, 0) to (1, 1, 1, 0)
    row, col = basis.index_of((1, 1, 1, 0)), basis.index_of((0, 1, 1, 0))
    cols = {j: dict(c) for j, c in e.cols.items()}
    del cols[col][row]
    bad = SparseOperator._raw(basis, cols, e.degree, e.den)
    assert quotient_table(reg.held, "Q1234", bad, lams) is None
    assert quotient_table(reg.held, "Q1234", bad, lams[:3]) is not None  # the entry lifts into block 3
    # E cut off out of block 3 as well: every generator still commutes
    # with it below the top, but the top block has no pivots
    cut = e.restricted(range(0, basis.weight_block(2).stop))
    assert all(commutes_below_top(op, cut, 4) for op in reg.held.values())
    assert quotient_table(reg.held, "Q1234", cut, lams) is None
    assert quotient_table(reg.held, "Q1234", cut, lams[:4]) is not None


def lowest_weight_projector(p):
    """Y: on block w, the projector onto the eigenvalue lambda_w of the
    total Casimir C along its other eigenvalues, prod_(x<w) (C -
    lambda_x) / (lambda_w - lambda_x).  A polynomial in C on each block,
    it commutes with C, but not with E, and Ybar = 1: the lowest-weight
    part of a seed s is s less a vector of E(block w-1)."""
    basis = p.basis
    c = casimir(p, (1, p.legs))
    pieces = []
    for w in range(p.n_max + 1):
        *lower, lam = predicted_eigenvalues(p, (1, p.legs), w)
        r = SparseOperator(basis, {j: {j: rational(1)} for j in basis.weight_block(w)}, 0)
        for x in lower:
            r = SparseOperator.lincomb(basis, ((1 / (lam - x), c, r), (-x / (lam - x), r)))
        pieces.append((1, r))
    return SparseOperator.lincomb(basis, pieces)


def test_operand_outside_the_registry_is_checked_against_e():
    # an explicit table entry that commutes with C and reduces to the
    # one it replaces, Q1 = lambda(k_1) times the identity, but does not
    # commute with E: every residual goes to the full table, where an
    # aw3 relation with a Q1 monomial fails
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    e = total_e(reg.params)
    y = reg["Q1"] * lowest_weight_projector(reg.params)
    assert y != reg["Q1"] and not commutes_below_top(y, e, basis.n_max)
    assert reg.combine(bracket(1, y, "Q1234")).is_zero()
    assert quotient_operator(y, e, seeds_to(basis, 4)) == reg.quotient["Q1"]
    bad = GeneratorRegistry(reg.params, {**reg.held, "Q1": y})
    assert bad.quotient is None
    # Q1 - Q1 Q0 Q0
    lift = bad.residual(((1, "Q1"), (-1, ((1, "Q1", "Q0"),), "Q0")))
    assert lift.residual.is_zero() and (lift.columns, lift.certified) == (len(basis), False)
    triple = ((1,), (2,), (3,))
    plain = {s: relcheck.label_of_subset(s) for s in relcheck._fermionic_subsets(triple)}
    got = [relcheck._aw3_residual(bad, rel, plain).residual for rel in relcheck._aw3_rotations(triple)]
    assert got == [relcheck._aw3_residual(full(bad), rel, plain).residual for rel in relcheck._aw3_rotations(triple)]
    assert not all(r.is_zero() for r in got)


def test_wrong_eigenvalue_refuses_the_separation_step():
    p = PARAMS["q=-2/5"]
    reg = build_registry(p)
    lams = predicted_eigenvalues(p, (1, 4), p.n_max)
    assert certificate(reg.held, p, lams=lams) is not None
    for w in range(p.n_max + 1):
        wrong = list(lams)
        wrong[w] += rational(1, lams[w].denominator)
        assert certificate(reg.held, p, lams=wrong) is None, w


def string_map(p, source, target):
    """The operator that commutes with the total E and sends the seed
    state source to E applied to the seed state target, and every other
    seed to zero: E^i source -> E^(i+1) target, and zero on every other
    string E^i s.  Zero on the quotient, it is the separation step's
    counterexample."""
    basis = p.basis
    e = total_e(p)
    to_sympy = lambda x: sympy.Rational(int(x.numerator), int(x.denominator))
    dense_e = sympy.zeros(len(basis), len(basis))
    for i, j, v in e.entries():
        dense_e[i, j] = to_sympy(v)
    unit = lambda j: sympy.Matrix([int(i == j) for i in range(len(basis))])
    cols = {}
    for w in range(p.n_max + 1):
        block = basis.weight_block(w)
        strings, images = [], []
        for v in range(w + 1):
            for s in seed_states(basis, v):
                strings.append(dense_e ** (w - v) * unit(s))
                images.append(dense_e ** (w - v + 1) * unit(target) if s == source else sympy.zeros(len(basis), 1))
        x = sympy.Matrix.hstack(*images) * sympy.Matrix.hstack(*strings)[list(block), :].inv()
        for a, j in enumerate(block):
            col = {i: rational(int(x[i, a].p), int(x[i, a].q)) for i in range(len(basis)) if x[i, a]}
            if col:
                cols[j] = col
    return SparseOperator(basis, cols, 0)


def test_casimir_not_commuting_with_c_refuses_the_separation_step():
    p = RepParams(q=parse("5/3"), k=(1, 2), legs=2, n_max=3)
    reg = build_registry(p)
    basis = reg.basis
    e = total_e(p)
    x = string_map(p, basis.index_of((0, 2)), basis.index_of((0, 1)))
    assert commutes_below_top(x, e, p.n_max) and not x.is_zero()
    assert quotient_operator(x, e, seeds_to(basis, p.n_max)).is_zero()
    assert not reg.combine(bracket(1, x, "Q12")).is_zero()
    bad = GeneratorRegistry(p, {**reg.held, "Q1": x})
    lams = predicted_eigenvalues(p, (1, 2), p.n_max)
    assert quotient_table(reg.held, "Q12", e, lams) is not None
    assert quotient_table(bad.held, "Q12", e, lams) is None
    assert bad.quotient is None
    # without the separation step this commutator would be certified zero
    assert bad.commutator_of("Q1", "Q12").residual == x * reg["Q12"] - reg["Q12"] * x


def test_repeated_eigenvalue_refuses_the_separation_step():
    # C = -1 passes (i)-(iv) with every lambda_w = -1, but separates
    # nothing: the string map, zero on the quotient, would pass with it
    p = RepParams(q=parse("5/3"), k=(1, 2), legs=2, n_max=3)
    reg = build_registry(p)
    basis = reg.basis
    x = string_map(p, basis.index_of((0, 2)), basis.index_of((0, 1)))
    ops = {"Q0": reg["Q0"], "Q12": x}
    assert quotient_table(ops, "Q0", total_e(p), [rational(-1)] * 4) is None


@pytest.mark.parametrize("n_max", [4, 5, 6])
@pytest.mark.parametrize("name", PARAMS)
def test_probe_takes_the_certified_quotient_restricted(name, n_max, monkeypatch):
    # made before the registry's quotient is built or after, the probe
    # takes the registry's quotient restricted to weight <= 3, which is
    # the table the certificate gives its own entries at top 3
    p = PARAMS[name].replace(n_max=n_max)
    before = fresh(p).restricted(3)
    reg = fresh(p)
    assert reg.quotient is not None
    with monkeypatch.context() as m:
        m.setattr(opalgebra, "quotient_table", None)
        after = reg.restricted(3)
    direct = certificate(before.held, p, top=3)
    assert direct is not None and set(direct) == set(before.held)
    for probe in (before, after):
        assert len(probe.labels()) == 21
        assert set(probe.quotient) == set(direct)
        for label, op in direct.items():
            assert probe.quotient[label] == op, label
    assert before.central == after.central == reg.central


def test_probe_of_a_refused_certificate_has_no_quotient():
    p = PARAMS["default"]
    j = p.basis.index_of((1, 0, 1, 0))
    reg = bumped(build_registry(p), "Q12", j)
    probe = reg.restricted(1)
    # the change is off the seeds, and above weight 1: the probe's own
    # entries would pass a certificate, but it takes none
    assert reg.quotient is None and probe.quotient is None
    got = [r for t in relcheck.enumerate_allowable() for r in relcheck.check_aw3_symmetric(reg, t, probe)]
    want = [r for t in relcheck.enumerate_allowable() for r in relcheck.check_aw3_symmetric(full(reg), t)]
    assert [r.status for r in got] == [r.status for r in want]


def test_serial_aw3_suite_certifies_one_quotient(monkeypatch):
    # the probe screens on the registry's own certificate; a registry
    # built afresh, so that no earlier test's quotient is reused
    calls = []
    real = opalgebra.quotient_table
    monkeypatch.setattr(opalgebra, "quotient_table", lambda *args: calls.append(args) or real(*args))
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    monkeypatch.setattr(cli, "build_registry", build_registry.__wrapped__)
    assert cli.main(["verify", "--suite", "aw3"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("interval", [(1, 4), (2, 3), (3, 4)])
def test_reduction_finds_exactly_the_image_of_e(interval):
    # E v for v a combination of block w-1 reduces to zero; adding any
    # nonzero multiple of a seed state leaves a remainder, scaled; on
    # the interval's own realization, whose first leg is its leg lo
    p = PARAMS["q=-2/5"].interval_realization(interval)
    basis = p.basis
    e = interval_ops(p, (1, p.legs))["E"]
    for w in range(1, p.n_max + 1):
        below = basis.weight_block(w - 1)
        v = SparseOperator(basis, {0: {j: rational(3 * j - 7, j % 4 + 1) for j in below}}, None)
        image = (e * v).cols.get(0, {})
        assert image and remainder(image, e)[0] == {}
        doubled = {i: 2 * x for i, x in image.items()}
        for s in seed_states(basis, w):
            rest, scale = remainder({**doubled, s: doubled.get(s, 0) + 1}, e)
            assert scale > 0 and rest == {s: scale}
        rest, scale = remainder({s: -1 for s in seed_states(basis, w)}, e)
        assert scale == 1 and rest == {s: -1 for s in seed_states(basis, w)}


# -- commutators answered by rule (the corollary of lifting.py) --------


def three_legs(p, n_max=4):
    return p.replace(legs=3, k=p.k[:3], n_max=n_max)


@pytest.mark.parametrize("name", ["default", "alt"])
def test_certificate_names_the_central_labels(name, default_registry, alt_registry):
    reg = {"default": default_registry, "alt": alt_registry}[name]
    assert reg.central == {"Q0", "Q1", "Q2", "Q3", "Q4", "Q1234"}
    assert fresh(three_legs(reg.params)).central == {"Q0", "Q1", "Q2", "Q3", "Q123"}
    # the rule agrees with the full commutators, derived generators included
    small = build_registry(reg.params.replace(n_max=3))
    for x in small.central:
        for y in small.labels():
            assert small.combine(bracket(1, x, y)).is_zero(), (x, y)


def test_no_label_is_central_when_the_certificate_refuses():
    reg = build_registry(PARAMS["default"])
    bad = bumped(reg, "Q12", reg.basis.index_of((1, 0, 1, 0)))
    assert bad.quotient is None and bad.central == frozenset()
    assert full(reg).central == frozenset()
    # so a central label's commutators are evaluated, and found nonzero
    assert not bad.commutator_of("Q1234", "Q12").residual.is_zero()


def test_central_pairs_are_not_evaluated(monkeypatch):
    reg = fresh(PARAMS["q=-2/5"])
    # the quotient and the two derived generators, built before counting
    reg.quotient["Q13"], reg.quotient["IQ24"]
    calls = []
    real = SparseOperator.lincomb.__func__
    monkeypatch.setattr(SparseOperator, "lincomb", classmethod(lambda *args: calls.append(args) or real(*args)))
    out = reg.commutator_of("Q1234", "IQ13")
    assert out == (SparseOperator.zero(reg.basis), len(seeds_to(reg.basis, 4)), True)
    assert not calls
    reg.commutator_of("Q13", "IQ24")
    assert len(calls) == 1
    with pytest.raises(KeyError):
        reg.commutator_of("Q1", "Q5")


def test_a_wrongly_central_label_is_caught(default_registry):
    # Q12 added to the rule's labels answers [Q12, Q23] with zero: the
    # pentagon's non-commuting pairs no longer match the derived table.
    # Set before the first commutator, since a pair once decided is read
    # from the commutation table
    p = default_registry.params.replace(n_max=2)
    assert build_compass(fresh(p))
    reg = fresh(p)
    reg.central = reg.central | {"Q12"}
    with pytest.raises(CompassError):
        build_compass(reg)


# -- commutators answered by the commutant closure ---------------------


def closure_off(reg):
    """reg with the commutant closure switched off: every pair outside
    the central rule is evaluated."""
    reg._closed = lambda x, y: False
    return reg


@pytest.mark.parametrize("name", PARAMS)
def test_closure_decided_pairs_equal_the_full_evaluation(name, monkeypatch):
    p = PARAMS[name]
    closed = []
    real = GeneratorRegistry._closed
    monkeypatch.setattr(GeneratorRegistry, "_closed", lambda self, x, y: real(self, x, y) and not closed.append((x, y)))
    runs = {}
    for key, reg in {
        "rule": fresh(p),
        "evaluated": closure_off(fresh(p)),
        "full rule": full(build_registry(p)),
        "full evaluated": closure_off(full(build_registry(p))),
    }.items():
        del closed[:]
        runs[key] = relcheck.check_prop1(reg) + relcheck.check_prop2(reg)
        runs[key + " closed"] = {frozenset(pair) for pair in closed}
    # after prop1 the rule decides the derived generators' pairs with an
    # interval, in both orientations; with no central rule it also takes
    # pairs with Q1..Q4 and Q1234 once their premises are recorded
    derived_interval = {("Q13", "Q123"), ("Q24", "Q234"), ("Q14", "Q23"), ("Q124", "Q12"), ("Q134", "Q34")}
    want = {frozenset((i + x, y)) for x, y in derived_interval for i in ("", "I")}
    assert runs["rule closed"] == want
    assert runs["full rule closed"] > want
    assert runs["evaluated closed"] == runs["full evaluated closed"] == set()
    # equal reports, and the lift fields of a zero found on the quotient
    # or, with the certificate refused, on every column
    assert [r.to_json() for r in runs["rule"]] == [r.to_json() for r in runs["evaluated"]]
    assert [r.to_json() for r in runs["full rule"]] == [r.to_json() for r in runs["full evaluated"]]
    assert [without_lift_fields(r) for r in runs["rule"]] == [without_lift_fields(r) for r in runs["full rule"]]
    small = fresh(p.replace(n_max=2))
    for pair in want:
        assert small.combine(bracket(1, *pair)).is_zero(), pair


def test_a_pair_with_a_noncommuting_premise_is_evaluated(monkeypatch):
    # Q134 is defined from Q234, Q12, Q1, Q34, Q2 and Q1234; with Q12
    # bumped on one diagonal entry, Q12 and Q34 no longer commute
    p = PARAMS["default"]
    reg = fresh(p)
    bad = bumped(reg, "Q12", reg.basis.weight_block(1).start)
    premises = ("Q234", "Q12", "Q1", "Q2", "Q1234")
    for r in (reg, bad):
        for c in premises:
            r.commutes(c, "Q34")
    assert bad._noncommuting == {frozenset(("Q12", "Q34"))}
    calls = []
    real = GeneratorRegistry.residual
    monkeypatch.setattr(GeneratorRegistry, "residual", lambda self, t: (calls.append(1) if t else None) or real(self, t))
    assert reg.commutator_of("Q34", "Q134").residual.is_zero()
    assert not calls
    got = bad.commutator_of("Q134", "Q34")
    assert len(calls) == 1
    assert got.residual == full(bad).combine(bracket(1, "Q134", "Q34"))
    assert not got.residual.is_zero()


# -- scalar operators in the certificate -------------------------------


def test_is_scalar_needs_every_column_on_the_diagonal_with_one_value():
    p = PARAMS["default"]
    basis = fresh(p).basis
    sigma = rational(-7, 3)
    scalar = SparseOperator.identity(basis, sigma)
    assert is_scalar(scalar) and is_scalar(build_registry(p)["Q0"])
    assert all(is_scalar(build_registry(p)[x]) for x in ("Q1", "Q2", "Q3", "Q4"))
    dropped = SparseOperator(basis, {j: {j: sigma} for j in range(1, len(basis))}, 0)
    changed = SparseOperator(basis, {j: {j: sigma + (j == 0)} for j in range(len(basis))}, 0)
    off = SparseOperator(basis, {j: {(j + 1) % len(basis): sigma} for j in range(len(basis))}, None)
    k1 = interval_ops(p, (1, 1))["K"]  # diagonal, one value per leg-1 occupation
    for op in (dropped, changed, off, k1, SparseOperator.zero(basis), build_registry(p)["Q12"]):
        assert not is_scalar(op)


def count_lincombs(monkeypatch):
    calls = []
    real = SparseOperator.lincomb.__func__
    monkeypatch.setattr(SparseOperator, "lincomb", classmethod(lambda *args: calls.append(args) or real(*args)))
    return calls


def test_the_certificate_forms_no_product_for_a_scalar(monkeypatch):
    p = PARAMS["default"]
    reg = build_registry(p)
    c = {"Q1234": reg["Q1234"]}
    basis, e = reg.basis, total_e(p)
    sigma = rational(-7, 3)
    calls = count_lincombs(monkeypatch)
    alone = certificate(c, p)
    n_alone = len(calls)
    del calls[:]
    with_scalar = certificate({**c, "S": SparseOperator.identity(basis, sigma)}, p)
    assert len(calls) == n_alone  # sigma I adds no lincomb
    assert alone is not None and with_scalar is not None
    seeds = seeds_to(basis, p.n_max)
    assert with_scalar["S"] == quotient_operator(SparseOperator.identity(basis, sigma), e, seeds)
    # a diagonal non-scalar, and sigma I with a column dropped or a value
    # changed, are still checked, and none of them commutes with E
    dropped = SparseOperator(basis, {j: {j: sigma} for j in range(1, len(basis))}, 0)
    changed = SparseOperator(basis, {j: {j: sigma + (j == 0)} for j in range(len(basis))}, 0)
    for op in (interval_ops(p, (1, 1))["K"], dropped, changed):
        del calls[:]
        assert certificate({**c, "S": op}, p) is None
        assert any(len(t) == 3 and t[1] is op for args in calls for t in args[2])


@pytest.mark.parametrize("name", PARAMS)
def test_the_registry_certificate_forms_products_for_six_held_operators(name, monkeypatch):
    p = PARAMS[name]
    reg = fresh(p)
    total_e(p)  # the total fold, built before counting
    calls = count_lincombs(monkeypatch)
    assert reg.quotient is not None
    # (i) for the six non-scalar held operators, (iii) for five of them
    products = [t for args in calls for t in args[2] if len(t) == 3]
    assert len(calls) == 11
    assert {x for x, op in reg.held.items() if any(op is f for t in products for f in t[1:])} == {
        "Q12", "Q23", "Q34", "Q123", "Q234", "Q1234",
    }


# -- whole runs against the quotient switched off ----------------------


def verify_report(tmp_path, argv):
    path = tmp_path / "report.json"
    assert cli.main(["verify", *argv, "--report", str(path)]) == 0
    payload = json.loads(path.read_text())
    del payload["timings_ms"]
    return payload


@pytest.mark.parametrize(
    "argv",
    [
        ["--q=-3/7", "--k", "2,3,1,1", "--legs", "4", "--nmax", "2"],
        ["--q=-7/2", "--k", "1,3,2", "--legs", "3", "--nmax", "3"],
    ],
)
def test_verify_reports_equal_the_run_without_quotient(tmp_path, monkeypatch, argv):
    got = verify_report(tmp_path, argv)
    monkeypatch.setattr(cli, "build_registry", lambda p: full(build_registry(p)))
    want = verify_report(tmp_path, argv)
    # the registry's residuals differ in their lift fields alone: seed
    # columns under the certificate against every column without it
    lifted = 0
    for a, b in zip(got["checks"], want["checks"]):
        sa, sb = a["residual_summary"], b["residual_summary"]
        if sa != sb:
            assert sa["certificate_held"] and not sb["certificate_held"], a["id"]
            for field in LIFT_FIELDS:
                del sa[field], sb[field]
            lifted += 1
    assert lifted > 0
    assert got == want
