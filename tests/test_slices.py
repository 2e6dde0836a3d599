"""The slice lemma of lifting.py: on the states with fixed quanta outside
an interval A, A's generators and Casimir are those of A's own
realization p_A, cut at A-weight n_max - (outside quanta).  Under
mutants of a leg table, a cached table and the coupling, the defining
suite flips exactly the checks they break, the embedded linearized aw3
pair, a residual in legs 1..3 that is decided on the quotient, flips as
its evaluation on the full table does, and the spectra suite, decided
on each p_A, flips the intervals a leg-table mutant reaches."""

import pytest

from awalgebra import relcheck, uqrep
from awalgebra.cli import main
from awalgebra.exactnum import Rational, parse
from awalgebra.fockspace import TruncatedBasis
from awalgebra.opalgebra import GeneratorRegistry, consecutive_subsets, subset_of_label
from awalgebra.sparse import SparseOperator
from awalgebra.spectra import annihilating_residual, spectrum_reports
from awalgebra.uqrep import RepParams, casimir, casimir_eigenvalue, interval_ops, predicted_eigenvalues
from helpers import FullEvaluation, clear_operator_caches

SETS = {"5/3": (1, 2, 1, 3), "-2/5": (2, 1, 1, 1)}
CASES = [(q, legs, n) for q in SETS for legs in (2, 3, 4) for n in (3, 4)]


def params(q, legs, n_max):
    return RepParams(q=parse(q), k=SETS[q][:legs], legs=legs, n_max=n_max)


def outside(state, lo, hi):
    return state[: lo - 1] + state[hi:]


def slices(basis, lo, hi):
    """outside part -> the indices of its slice, in index order."""
    out = {}
    for j, m in enumerate(basis.states):
        out.setdefault(outside(m, lo, hi), []).append(j)
    return out


def on_slice(op, cols, lo, hi, sub_basis):
    """op's entries on the columns cols, keyed by the inner parts' indices
    in sub_basis; every row lies in its column's slice."""
    states = op.basis.states
    out = {}
    for j in cols:
        for i, v in op.cols.get(j, {}).items():
            assert outside(states[i], lo, hi) == outside(states[j], lo, hi)
            key = sub_basis.index_of(states[i][lo - 1 : hi]), sub_basis.index_of(states[j][lo - 1 : hi])
            out[key] = Rational(v, op.den)
    return out


def cut(op, top, raising):
    """op's entries on the columns of weight <= top, the columns of
    weight top dropped when op raises the weight."""
    weights = op.basis.weights
    return {
        (i, j): Rational(v, op.den)
        for j, col in op.cols.items()
        if weights[j] < top or (weights[j] == top and not raising)
        for i, v in col.items()
    }


def interval_operators(p, interval):
    """name -> operator: both folds' generators and the Casimir."""
    lo, hi = interval
    ops = {f"left {x}": op for x, op in interval_ops(p, interval).items()}
    if hi - lo >= 2:
        ops.update({f"right {x}": op for x, op in interval_ops(p, interval, "right").items()})
    ops["Casimir"] = casimir(p, interval)
    return ops


@pytest.mark.parametrize("q, legs, n_max", CASES)
def test_zero_outside_slice_is_the_interval_realization(q, legs, n_max):
    p = params(q, legs, n_max)
    for lo, hi in consecutive_subsets(legs):
        sub = p.interval_realization((lo, hi))
        assert (sub.legs, sub.k, sub.q, sub.n_max) == (hi - lo + 1, p.k[lo - 1 : hi], p.q, n_max)
        cols = slices(p.basis, lo, hi)[(0,) * (legs - hi + lo - 1)]
        mine = interval_operators(p, (lo, hi))
        theirs = interval_operators(sub, (1, sub.legs))
        for name, op in mine.items():
            other = theirs.get(name, theirs[name.replace("right", "left")])
            assert on_slice(op, cols, lo, hi, sub.basis) == cut(other, n_max, False), (lo, hi, name)


@pytest.mark.parametrize("q, legs, n_max", CASES)
def test_each_slice_is_the_interval_realization_cut_below(q, legs, n_max):
    p = params(q, legs, n_max)
    for lo, hi in consecutive_subsets(legs):
        sub = p.interval_realization((lo, hi))
        theirs = interval_operators(sub, (1, sub.legs))
        for o, cols in slices(p.basis, lo, hi).items():
            top = n_max - sum(o)
            for name, op in interval_operators(p, (lo, hi)).items():
                other = theirs.get(name, theirs[name.replace("right", "left")])
                expected = cut(other, top, name.endswith(" E"))
                assert on_slice(op, cols, lo, hi, sub.basis) == expected, (lo, hi, o, name)


def test_single_leg_realization_builds():
    basis = TruncatedBasis(1, 3)
    assert basis.states == ((0,), (1,), (2,), (3,))
    p = RepParams(q=parse("5/3"), k=(2,), legs=1, n_max=3)
    assert p.basis == basis
    lam = casimir_eigenvalue(p.q, 2)
    assert casimir(p, (1, 1)) == SparseOperator.identity(p.basis, lam)


@pytest.mark.parametrize("command", [["spectrum", "--op", "Q1"], ["verify"]])
def test_command_line_keeps_two_to_four_legs(capsys, command):
    assert main([*command, "--legs", "1", "--nmax", "2"]) == 2
    assert "--legs" in capsys.readouterr().err


# -- mutants and the checks they flip -----------------------------------


@pytest.fixture
def cold_caches():
    """Empty operator caches before and after, so that a mutant's
    operators neither meet cached ones nor outlive the test."""
    clear_operator_caches()
    yield clear_operator_caches
    clear_operator_caches()


def scaled_leg_2_e_entry(monkeypatch):
    """The E table of weight label 2 (leg 2 of k = 1,2,1,3) with the
    entry of occupation 1 doubled, in every realization that has the
    label, as a table computed from q and the label would be."""
    real = uqrep.primitive_generator

    def generator(p, leg, which):
        op = real(p, leg, which)
        if (p.k[leg - 1], which) != (2, "E"):
            return op
        states = op.basis.states
        cols = {j: {i: 2 * v if states[j][leg - 1] == 1 else v for i, v in col.items()} for j, col in op.cols.items()}
        return SparseOperator._reduced(op.basis, cols, op.degree, op.den)

    monkeypatch.setattr(uqrep, "primitive_generator", generator)


def perturbed_cached_e_table(monkeypatch):
    """The cached E table of weight label 2 with the entry of occupation
    1 doubled.  The table is keyed on q, the label, n_max and the
    generator, with no leg index, so every leg of label 2 in every
    realization reads the perturbed entry."""
    real = uqrep.leg_table

    def table(q, k, n_max, which):
        nums, den = real(q, k, n_max, which)
        if (k, which) == (2, "E"):
            nums = (nums[0], 2 * nums[1], *nums[2:])
        return nums, den

    monkeypatch.setattr(uqrep, "leg_table", table)


def doubled_coupling_term(monkeypatch):
    """Delta(E) = K (x) E + 2 E (x) Kinv in every coupling, so that the
    left and right folds of three or more legs differ."""
    real = uqrep._couple

    def couple(left, right):
        ops = real(left, right)
        terms = ((1, left["K"], right["E"]), (2, left["E"], right["Kinv"]))
        return {**ops, "E": SparseOperator.lincomb(left["K"].basis, terms)}

    monkeypatch.setattr(uqrep, "_couple", couple)


def defining_reports(p):
    return relcheck.check_defining_relations(p) + relcheck.check_coassociativity(p)


@pytest.mark.parametrize("mutant", [scaled_leg_2_e_entry, doubled_coupling_term, perturbed_cached_e_table])
def test_defining_suite_flips_under_table_and_coupling_mutants(cold_caches, monkeypatch, mutant):
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4)
    assert all(r.ok for r in defining_reports(p))
    cold_caches()
    mutant(monkeypatch)
    first = [r.to_json() for r in defining_reports(p)]
    flipped = [r["id"] for r in first if not r["ok"]]
    ef_with_leg_2 = [f"defining/{x}/EF" for x in ("Q2", "Q12", "Q23", "Q123", "Q234", "Q1234")]
    coassoc = [x for x in flipped if x.startswith("defining/coassoc/")]
    if mutant is not doubled_coupling_term:
        # both folds read the one table, so coassociativity still holds
        assert flipped == ef_with_leg_2
        # counted on every column, not on the zero-outside slice alone
        count = next(r["residual_summary"]["nonzero_entries"] for r in first if r["id"] == "defining/Q2/EF")
        assert count > len(slices(p.basis, 2, 2)[(0, 0, 0)])
    else:
        assert coassoc == [f"defining/coassoc/{x}/E" for x in ("Q123", "Q234", "Q1234")]


def test_embedded_linear_pair_flips_what_every_column_flips(cold_caches, monkeypatch):
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=3)

    def reports(registry=GeneratorRegistry):
        table = {"Q0": SparseOperator.identity(p.basis, -1)}
        for lo, hi in consecutive_subsets(4):
            table["Q" + "".join(map(str, range(lo, hi + 1)))] = casimir(p, (lo, hi))
        return [r.to_json() for r in relcheck.check_aw3_linear(registry(p, table))]

    assert all(r["ok"] for r in reports())
    cold_caches()
    doubled_coupling_term(monkeypatch)
    first = reports()
    # the oracle: no quotient, so both lines are evaluated on every column
    assert first == reports(FullEvaluation)
    assert [r["id"] for r in first if not r["ok"]] == ["aw3/linear-embedded/line1", "aw3/linear-embedded/line2"]


@pytest.mark.parametrize("label", ["Q2", "Q23", "Q123"])
def test_spectrum_of_a_mutated_table_equals_the_four_leg_count(cold_caches, monkeypatch, capsys, label):
    scaled_leg_2_e_entry(monkeypatch)
    spectrum_equals_the_four_leg_count(capsys, label)


@pytest.mark.parametrize("label", ["Q2", "Q23"])
def test_spectrum_of_a_perturbed_cached_table_equals_the_four_leg_count(cold_caches, monkeypatch, capsys, label):
    perturbed_cached_e_table(monkeypatch)
    spectrum_equals_the_four_leg_count(capsys, label)


def spectrum_equals_the_four_leg_count(capsys, label):
    # label 2's E table scaled at occupation 1: the Casimirs of intervals
    # holding leg 2 are off on the states with two quanta there, in
    # p_A's block 2 and in every four-leg block from weight 2 on
    from test_spectrum_lines import _whole_block_lines

    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=4)
    subset = subset_of_label(label)
    interval = (subset[0], subset[-1])
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(5)}
    for weights in ([], ["--weight", "3"]):
        code = main(["spectrum", "--op", label, "--nmax", "4", *weights])
        lines = capsys.readouterr().out.splitlines()[1:]
        shown = lams if not weights else {3: lams[3]}
        assert lines == _whole_block_lines(p, label, shown)
        assert code == 1 and lines[-1].endswith("NONZERO RESIDUAL")


def test_spectra_suite_flips_the_intervals_holding_leg_2(cold_caches, monkeypatch):
    # p and every p_A holding leg 2 read the perturbed table, so p_A's
    # certificate refuses and the whole counts flip; the other intervals
    # stay certified
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=3)
    perturbed_cached_e_table(monkeypatch)
    failed = set()
    for lo, hi in consecutive_subsets(p.legs):
        label = "Q" + "".join(map(str, range(lo, hi + 1)))
        op = casimir(p, (lo, hi))
        reports = spectrum_reports(p, (lo, hi), range(p.n_max + 1), op)
        for w, r in enumerate(reports):
            lams = predicted_eigenvalues(p, (lo, hi), w)
            whole = annihilating_residual(op, lams, p.basis.weight_block(w))
            assert r.residual_summary["nonzero_entries"] == whole, r.id
            assert r.residual_summary["certificate_held"] == (not lo <= 2 <= hi and w > 0), r.id
            if not r.ok:
                failed.add(label)
    assert failed == {"Q2", "Q12", "Q23", "Q123", "Q234", "Q1234"}


def test_registry_entry_off_the_slice_is_not_taken_on_trust(default_registry):
    # one diagonal entry of Q12 bumped on the state (0, 0, 0, 1), which
    # lies outside the zero-outside slice of legs 1..3: both lines fail
    # as on the full table
    reg = default_registry
    q12 = reg["Q12"]
    j = reg.basis.index_of((0, 0, 0, 1))
    bump = SparseOperator(reg.basis, {j: {j: Rational(1, q12.den)}}, degree=0)
    table = {**reg.held, "Q12": q12 + bump}
    reports = relcheck.check_aw3_linear(GeneratorRegistry(reg.params, table))
    assert [r.status for r in reports] == ["fail", "fail"]
    assert all(r.residual_summary["nonzero_entries"] > 0 for r in reports)
    oracle = relcheck.check_aw3_linear(FullEvaluation(reg.params, table))
    assert [r.to_json() for r in reports] == [r.to_json() for r in oracle]
