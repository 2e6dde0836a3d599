"""Relation residuals evaluated on the quotient realization M_w =
block_w / Delta(E)(block_(w-1)) (lifting.py, GeneratorRegistry.lifted),
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
    block_scalar,
    commutes_below_top,
    quotient_operator,
    quotient_table,
    remainder,
    seed_states,
)
from awalgebra.opalgebra import GeneratorRegistry, build_registry, commutator
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import RepParams, casimir, interval_ops, predicted_eigenvalues
from helpers import FullEvaluation

LIFT_FIELDS = ("columns_computed", "certificate_held")
PARAMS = {
    "default": RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=4),
}


def full(reg):
    return FullEvaluation(reg.params, reg.held, reg.top)


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


def bumped(reg, label, j):
    """reg's held entries with 1 added to the numerator of the diagonal
    entry (j, j) of one of them."""
    op = reg[label]
    bump = SparseOperator(reg.basis, {j: {j: rational(1, op.den)}}, degree=0)
    return GeneratorRegistry(reg.params, {**reg.held, label: op + bump})


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
    # wrong orientations and monomial orders of aw3, and master rows
    # with exchanged labels: nonzero on the quotient, so computed in full
    reg = build_registry(PARAMS[name])
    oracle = full(reg)
    nonzero = 0
    for triple in relcheck.enumerate_allowable()[:4]:
        fermionic = relcheck._fermionic_subsets(triple)
        for flipped in (False, True):
            assign = {s: relcheck.label_of_subset(s, flipped) for s in fermionic}
            for rel in relcheck._aw3_rotations(triple):
                for order in ("direct", "reversed"):
                    got = relcheck._aw3_residual(reg, rel, assign, order).residual
                    assert got == relcheck._aw3_residual(oracle, rel, assign, order).residual
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
    # at four legs each line of the linearized aw3 pair is one lifted
    # residual, zero on the seeds, with no GeneratorRegistry.product; at
    # three legs the pair still forms its products through it
    reg = {"default": default_registry, "alt": alt_registry}[name]
    products, lifts = [], []
    real_product, real_lifted = GeneratorRegistry.product, GeneratorRegistry.lifted
    monkeypatch.setattr(GeneratorRegistry, "product", lambda self, *ab: products.append(ab) or real_product(self, *ab))
    monkeypatch.setattr(GeneratorRegistry, "lifted", lambda self, f: lifts.append(real_lifted(self, f)) or lifts[-1])
    got = [r.to_json() for r in relcheck.check_aw3_linear(reg)]
    assert [r["status"] for r in got] == ["pass", "pass"]
    seeds = len(seeds_to(reg.basis, reg.basis.n_max))
    assert [(x.columns, x.certified) for x in lifts] == [(seeds, True)] * 2
    assert got == [r.to_json() for r in relcheck.check_aw3_linear(full(reg))]
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
    assert not commutator(bad["Q12"], bad["Q34"]).is_zero()
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
    assert commutator(y, reg["Q1234"]).is_zero()
    assert quotient_operator(y, e, seeds_to(basis, 4)) == reg.quotient["Q1"]
    bad = GeneratorRegistry(reg.params, {**reg.held, "Q1": y})
    assert bad.quotient is None
    lift = bad.lifted(lambda gens: gens["Q1"] - gens["Q1"] * gens["Q0"] * gens["Q0"])
    assert lift.residual.is_zero() and (lift.columns, lift.certified) == (len(basis), False)
    triple = ((1,), (2,), (3,))
    plain = {s: relcheck.label_of_subset(s) for s in relcheck._fermionic_subsets(triple)}
    got = [relcheck._aw3_residual(bad, rel, plain, "direct").residual for rel in relcheck._aw3_rotations(triple)]
    assert got == [relcheck._aw3_residual(full(bad), rel, plain, "direct").residual for rel in relcheck._aw3_rotations(triple)]
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
    assert not commutator(x, reg["Q12"]).is_zero()
    bad = GeneratorRegistry(p, {**reg.held, "Q1": x})
    lams = predicted_eigenvalues(p, (1, 2), p.n_max)
    assert quotient_table(reg.held, "Q12", e, lams) is not None
    assert quotient_table(bad.held, "Q12", e, lams) is None
    assert bad.quotient is None
    # without the separation step this commutator would be certified zero
    assert bad.commutator_of("Q1", "Q12").residual == commutator(x, reg["Q12"])


def test_repeated_eigenvalue_refuses_the_separation_step():
    # C = -1 passes (i)-(iv) with every lambda_w = -1, but separates
    # nothing: the string map, zero on the quotient, would pass with it
    p = RepParams(q=parse("5/3"), k=(1, 2), legs=2, n_max=3)
    reg = build_registry(p)
    basis = reg.basis
    x = string_map(p, basis.index_of((0, 2)), basis.index_of((0, 1)))
    ops = {"Q0": reg["Q0"], "Q12": x}
    assert quotient_table(ops, "Q0", total_e(p), [rational(-1)] * 4) is None


def test_probe_certifies_itself_up_to_its_top():
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5)
    reg = build_registry(p)
    basis = reg.basis
    probe = reg.restricted(3)
    # restricted generators commute with E only below their own top
    assert certificate(probe.held, p) is None
    assert not commutes_below_top(probe["Q12"], total_e(p), p.n_max)
    seeds = seeds_to(basis, 3)
    assert certificate(probe.held, p, top=3) is not None
    assert probe.quotient is not None
    assert all(set(op.cols) <= set(seeds) for op in probe.quotient.values())
    oracle = full(probe)
    triple = ((1,), (2, 4), (3,))
    fermionic = relcheck._fermionic_subsets(triple)
    for flipped in (False, True):
        assign = {s: relcheck.label_of_subset(s, flipped) for s in fermionic}
        for rel in relcheck._aw3_rotations(triple):
            for order in ("direct", "reversed"):
                got = relcheck._aw3_residual(probe, rel, assign, order).residual
                assert got == relcheck._aw3_residual(oracle, rel, assign, order).residual
    lift = probe.lifted(lambda gens: SparseOperator.zero(basis))
    assert (lift.columns, lift.certified) == (len(seeds), True)
    assert probe.lifted(lambda gens: gens["Q12"]).columns == basis.weight_block(3).stop
    # a change off the seeds inside the probe's blocks refuses it too
    j = basis.index_of((1, 0, 1, 0))
    assert bumped(reg, "Q12", j).restricted(3).quotient is None


@pytest.mark.parametrize("n_max", [4, 5, 6])
@pytest.mark.parametrize("name", PARAMS)
def test_probe_takes_the_certified_quotient_restricted(name, n_max, monkeypatch):
    # before the registry's quotient is built the probe certifies its
    # own; after, it takes the registry's, which is the same table
    reg = fresh(PARAMS[name].replace(n_max=n_max))
    own = reg.restricted(3)
    assert own.quotient is not None and reg.quotient is not None
    monkeypatch.setattr(opalgebra, "quotient_table", None)
    probe = reg.restricted(3)
    assert probe.labels() == own.labels() and len(own.labels()) == 21
    for label in own.labels():
        assert probe.quotient[label] == own.quotient[label], label
    assert probe.central == own.central and own.central


def test_probe_of_a_refused_certificate_certifies_its_own():
    p = PARAMS["default"]
    j = p.basis.index_of((1, 0, 1, 0))
    reg = bumped(build_registry(p), "Q12", j)
    assert reg.quotient is None
    # the change is off the seeds of weight <= 1
    assert reg.restricted(1).quotient is not None


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
def test_block_scalar_labels_are_the_central_ones(name, default_registry, alt_registry):
    reg = {"default": default_registry, "alt": alt_registry}[name]
    assert reg.central == {"Q0", "Q1", "Q2", "Q3", "Q4", "Q1234"}
    assert fresh(three_legs(reg.params)).central == {"Q0", "Q1", "Q2", "Q3", "Q123"}
    # the rule agrees with the full commutators, derived generators included
    small = build_registry(reg.params.replace(n_max=3))
    for x in small.central:
        for y in small.labels():
            assert commutator(small[x], small[y]).is_zero(), (x, y)


def test_no_label_is_central_when_the_certificate_refuses():
    reg = build_registry(PARAMS["default"])
    bad = bumped(reg, "Q12", reg.basis.index_of((1, 0, 1, 0)))
    assert bad.quotient is None and bad.central == frozenset()
    assert full(reg).central == frozenset()
    # so a central label's commutators are evaluated, and found nonzero
    assert not bad.commutator_of("Q1234", "Q12").residual.is_zero()


def test_block_scalar_needs_one_value_per_block_on_the_seeds():
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    top = basis.n_max
    assert block_scalar(reg.quotient["Q1234"], top)
    assert not block_scalar(reg.quotient["Q12"], top)
    seeds = seeds_to(basis, top)
    lam = {s: rational(basis.weights[s] + 2) for s in seeds}
    assert block_scalar(SparseOperator(basis, {s: {s: lam[s]} for s in seeds}, 0), top)
    assert block_scalar(SparseOperator.zero(basis), top)
    s, t = seed_states(basis, 2)[:2]
    cases = [
        {**lam, s: lam[s] + 1},  # two values in block 2
        {x: v for x, v in lam.items() if x != s},  # an absent column is 0 for block 2
    ]
    for diag in cases:
        assert not block_scalar(SparseOperator(basis, {x: {x: v} for x, v in diag.items()}, 0), top)
    off = {x: {x: v} for x, v in lam.items()}
    off[s] = {s: lam[s], t: rational(1)}
    assert not block_scalar(SparseOperator(basis, off, 0), top)
    j = basis.index_of((1, 0, 1, 0))  # a column off the seeds
    assert not block_scalar(SparseOperator(basis, {**{x: {x: v} for x, v in lam.items()}, j: {j: rational(4)}}, 0), top)


def test_central_pairs_are_not_evaluated(monkeypatch):
    reg = fresh(PARAMS["q=-2/5"])
    calls = []
    real = opalgebra.commutator
    monkeypatch.setattr(opalgebra, "commutator", lambda *args: calls.append(args) or real(*args))
    out = reg.commutator_of("Q1234", "IQ13")
    assert out == (SparseOperator.zero(reg.basis), len(seeds_to(reg.basis, 4)), True)
    assert not calls
    reg.commutator_of("Q13", "IQ24")
    assert len(calls) == 1
    with pytest.raises(KeyError):
        reg.commutator_of("Q1", "Q5")


def test_a_wrongly_central_label_is_caught(default_registry):
    # Q12 added to the rule's labels answers [Q12, Q23] with zero: the
    # pentagon's non-commuting pairs no longer match the derived table
    reg = fresh(default_registry.params.replace(n_max=2))
    assert build_compass(reg)
    reg.central = reg.central | {"Q12"}
    with pytest.raises(CompassError):
        build_compass(reg)


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
