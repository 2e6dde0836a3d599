"""Relation residuals evaluated on seed columns and lifted through the
total Delta(E) (lifting.py, GeneratorRegistry.lifted), against the full
lincomb evaluation as the oracle: a registry whose certificate is never
consulted evaluates every residual on every column."""

from dataclasses import replace

import pytest

from awalgebra import relcheck
from awalgebra.exactnum import parse, rational
from awalgebra.lifting import certified_seeds, commutes_below_top, on_columns, reduces_to_zero, seed_states
from awalgebra.opalgebra import GeneratorRegistry, build_registry, commutator
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import RepParams, interval_ops

LIFT_FIELDS = ("columns_computed", "certificate_held")
PARAMS = {
    "default": RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=4),
}


class FullEvaluation(GeneratorRegistry):
    """The oracle: no lift certificate, so every residual is computed
    on every column."""

    seeds = None


def full(reg):
    return FullEvaluation(reg.params, reg.table, reg.top)


def seed_count(basis, top):
    return sum(1 for j in range(basis.weight_block(top).stop) if basis.states[j][0] == 0)


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
    """reg with 1 added to the numerator of the diagonal entry (j, j) of
    one generator."""
    op = reg[label]
    bump = SparseOperator(reg.basis, {j: {j: rational(1, op.den)}}, degree=0)
    return GeneratorRegistry(reg.params, {**reg.table, label: op + bump})


@pytest.mark.parametrize("name", PARAMS)
def test_seed_reports_equal_full_reports(name):
    reg = build_registry(PARAMS[name])
    basis = reg.basis
    lifted = suites(reg, reg.restricted(3))
    oracle = suites(full(reg))
    assert [without_lift_fields(r) for r in lifted] == [without_lift_fields(r) for r in oracle]
    seeds = seed_count(basis, basis.n_max)
    assert reg.seeds == [j for j, m in enumerate(basis.states) if m[0] == 0]
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
    # with exchanged labels: nonzero on the seeds, so computed in full
    reg = build_registry(PARAMS[name])
    oracle = full(reg)
    nonzero = 0
    for triple in relcheck.enumerate_allowable()[:4]:
        fermionic = relcheck._fermionic_subsets(triple)
        for flipped in (False, True):
            assign = {s: relcheck.label_of_subset(s, flipped) for s in fermionic}
            for rel in relcheck._aw3_rotations(triple):
                for order in ("direct", "reversed"):
                    got = relcheck._aw3_residual(reg, rel, assign, order)
                    assert got == relcheck._aw3_residual(oracle, rel, assign, order)
                    nonzero += not got.is_zero()
    assert nonzero > 0
    for row in relcheck.load_master_rows():
        (a, b, c), *rest = row.triples
        swapped = replace(row, triples=((b, a, c), *rest))
        got = relcheck.check_master(reg, swapped)
        assert got.to_json() == {
            **relcheck.check_master(oracle, swapped).to_json(),
            "residual_summary": got.residual_summary,
        }
        assert got.status == "fail"
        assert got.residual_summary["columns_computed"] == len(reg.basis)
        assert got.residual_summary["certificate_held"]


def test_changed_entry_off_the_seeds_refuses_the_certificate():
    # one diagonal numerator of Q12 changed in a column with a quantum
    # on leg 1: the seed columns of [Q12, Q34] do not see it, so only
    # the certificate stands between the change and a false pass
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    j = basis.index_of((1, 0, 1, 0))
    assert j not in reg.seeds
    bad = bumped(reg, "Q12", j)
    assert commutator(bad["Q12"], bad["Q34"], reg.seeds).is_zero()
    assert not commutator(bad["Q12"], bad["Q34"]).is_zero()
    assert bad.seeds is None
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
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    e = interval_ops(reg.params, (1, 4))["E"]
    assert certified_seeds(reg.table.values(), e, basis.n_max) == reg.seeds
    # drop the entry of E that lifts (0, 1, 1, 0) to (1, 1, 1, 0)
    row, col = basis.index_of((1, 1, 1, 0)), basis.index_of((0, 1, 1, 0))
    cols = {j: dict(c) for j, c in e.cols.items()}
    del cols[col][row]
    bad = SparseOperator._raw(basis, cols, e.degree, e.den)
    assert certified_seeds([reg["Q0"]], bad, basis.n_max) is None
    assert certified_seeds([reg["Q0"]], bad, 2) is not None  # the entry lifts into block 3


def test_operand_outside_the_registry_is_checked_against_e():
    reg = build_registry(PARAMS["default"])
    basis = reg.basis
    seeds = reg.seeds
    # zero on the seed states, one elsewhere: block diagonal, but E
    # carries seeds to the other states, so it does not commute with E
    off_seeds = SparseOperator.diagonal(basis, lambda j: rational(basis.states[j][0] > 0))
    terms = ((1, reg["Q1234"], off_seeds),)

    def evaluate(cols):
        return SparseOperator.lincomb(basis, on_columns(terms, cols))

    assert evaluate(seeds).is_zero() and not evaluate(None).is_zero()
    lift = reg.lifted(evaluate, (off_seeds,))
    assert lift.residual == evaluate(None)
    assert (lift.columns, lift.certified) == (len(basis), False)
    # a product of generators commutes with E, so it may be lifted
    product = reg["Q12"] * reg["Q34"]
    lift = reg.lifted(lambda cols: commutator(product, reg["Q1234"], cols), (product,))
    assert lift.residual.is_zero() and (lift.columns, lift.certified) == (len(seeds), True)


def test_probe_certifies_itself_up_to_its_top():
    reg = build_registry(RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5))
    basis = reg.basis
    probe = reg.restricted(3)
    e = interval_ops(reg.params, (1, 4))["E"]
    # restricted generators commute with E only below their own top
    assert certified_seeds(probe.table.values(), e, basis.n_max) is None
    assert not commutes_below_top(probe["Q12"], e)
    assert probe.seeds == [j for j in range(basis.weight_block(3).stop) if basis.states[j][0] == 0]
    oracle = full(probe)
    triple = ((1,), (2, 4), (3,))
    fermionic = relcheck._fermionic_subsets(triple)
    for flipped in (False, True):
        assign = {s: relcheck.label_of_subset(s, flipped) for s in fermionic}
        for rel in relcheck._aw3_rotations(triple):
            for order in ("direct", "reversed"):
                got = relcheck._aw3_residual(probe, rel, assign, order)
                assert got == relcheck._aw3_residual(oracle, rel, assign, order)
    lift = probe.lift_record(SparseOperator.zero(basis))
    assert (lift.columns, lift.certified) == (seed_count(basis, 3), True)
    assert probe.lift_record(reg["Q12"]).columns == basis.weight_block(3).stop
    # a change off the seeds inside the probe's blocks refuses it too
    j = basis.index_of((1, 0, 1, 0))
    assert bumped(reg, "Q12", j).restricted(3).seeds is None


@pytest.mark.parametrize("interval", [(1, 4), (2, 3), (3, 4)])
def test_reduction_finds_exactly_the_image_of_e(interval):
    # E v for v a combination of block w-1 reduces to zero; adding any
    # nonzero multiple of a seed state leaves a remainder
    p = PARAMS["q=-2/5"]
    basis = p.basis
    lo = interval[0]
    e = interval_ops(p, interval)["E"]
    for w in range(1, p.n_max + 1):
        below = basis.weight_block(w - 1)
        v = SparseOperator(basis, {0: {j: rational(3 * j - 7, j % 4 + 1) for j in below}}, None)
        image = (e * v).cols.get(0, {})
        assert image and reduces_to_zero(image, e, lo)
        doubled = {i: 2 * x for i, x in image.items()}
        for s in seed_states(basis, lo, w):
            assert not reduces_to_zero({**doubled, s: doubled.get(s, 0) + 1}, e, lo)
        assert not reduces_to_zero({s: -1 for s in seed_states(basis, lo, w)}, e, lo)
