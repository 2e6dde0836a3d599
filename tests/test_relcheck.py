import random

import pytest

from awalgebra.exactnum import parse, rational
from awalgebra.opalgebra import GeneratorRegistry, build_registry
from awalgebra.sparse import fraction_free_rank
from awalgebra.uqrep import RepParams
from awalgebra import opalgebra, relcheck
from awalgebra.relcheck import (
    MasterRow,
    NONCENTRAL_LABELS,
    check_aw3_quadratic,
    check_aw3_symmetric,
    check_coassociativity,
    check_defining_relations,
    check_independence,
    check_master,
    check_master_all,
    check_prop1,
    check_prop2,
    check_spectra,
    enumerate_allowable,
    load_master_rows,
    triple_text,
)


def registry(qtxt, k, n_max):
    p = RepParams(q=parse(qtxt), k=tuple(k), legs=len(k), n_max=n_max)
    return build_registry(p)


@pytest.fixture(scope="module")
def reg4():
    return registry("5/3", (1, 2, 1, 3), 2)


@pytest.fixture(scope="module")
def reg3():
    return registry("5/3", (1, 2, 1), 3)


# -- defining ----------------------------------------------------------


def test_defining_relations_all_pass(reg4):
    reports = check_defining_relations(reg4.params)
    assert len(reports) == 40  # ten intervals, four relations each
    assert all(r.status == "pass" for r in reports)


def test_coassociativity_all_pass(reg4):
    reports = check_coassociativity(reg4.params)
    assert len(reports) == 12  # intervals 123, 234, 1234 x four generators
    assert all(r.status == "pass" for r in reports)


# -- prop1 -------------------------------------------------------------


def test_prop1_counts_and_cycle(reg4):
    reports = check_prop1(reg4)
    assert len(reports) == 46  # 45 pairs + structure
    assert all(r.ok for r in reports)
    structure = reports[-1]
    assert structure.id == "prop1/structure"
    assert structure.inputs["noncommuting"] == [
        ["Q12", "Q23"],
        ["Q12", "Q234"],
        ["Q23", "Q34"],
        ["Q34", "Q123"],
        ["Q123", "Q234"],
    ]


def test_prop1_crossing_pairs_expected_nonzero(reg4):
    reports = {r.id: r for r in check_prop1(reg4)}
    r = reports["prop1/Q12-Q23"]
    assert r.expected == "nonzero" and r.status == "fail" and r.ok
    r = reports["prop1/Q12-Q34"]
    assert r.expected == "zero" and r.status == "pass"


def test_prop1_lower_rank():
    reports = check_prop1(registry("5/3", (1, 2, 1), 2))
    structure = reports[-1]
    assert structure.status == "pass"
    assert structure.inputs["noncommuting"] == [["Q12", "Q23"]]
    reports = check_prop1(registry("5/3", (1, 2), 2))
    assert reports[-1].inputs["noncommuting"] == []
    assert all(r.ok for r in reports)


def test_cycle_detector():
    cyc = [("a", "b"), ("b", "c"), ("c", "a")]
    assert relcheck._is_single_cycle(cyc)
    assert not relcheck._is_single_cycle(cyc[:2])
    two = cyc + [("x", "y"), ("y", "z"), ("z", "x")]
    assert not relcheck._is_single_cycle(two)


# -- prop2 -------------------------------------------------------------


def test_prop2_all_pass(reg4):
    reports = check_prop2(reg4)
    assert len(reports) == 150  # ordered nested (100) + disjoint (50)
    assert all(r.status == "pass" for r in reports)
    ids = {r.id for r in reports}
    assert "prop2/Q13-IQ24" in ids  # disjoint, both derived
    assert "prop2/Q24-Q1234" in ids  # nested; the consecutive label is fixed
    assert "prop2/Q12-Q23" not in ids  # crossing pairs are not claimed


def test_prop2_after_prop1_equals_prop2_alone(monkeypatch):
    # prop2 takes its 40 commuting interval pairs both ways, so alone it
    # computes 110 of its 150 commutators; after prop1, which remembers
    # those 40 pairs, only the other 70 (each on the seed columns alone)
    base = registry("5/3", (1, 2, 1, 3), 3)
    calls = []
    real = opalgebra.commutator
    monkeypatch.setattr(opalgebra, "commutator", lambda *args: calls.append(1) or real(*args))
    alone = check_prop2(GeneratorRegistry(base.params, base.table))
    alone_calls = len(calls)
    warm = GeneratorRegistry(base.params, base.table)
    check_prop1(warm)
    del calls[:]
    after = check_prop2(warm)
    assert [r.to_json() for r in after] == [r.to_json() for r in alone]
    assert (alone_calls, len(calls)) == (110, 70)


def test_prop2_needs_four_legs(reg3):
    with pytest.raises(ValueError):
        check_prop2(reg3)


# -- allowable triples and symmetric relations -------------------------


def test_enumerate_allowable_canonical_list():
    got = [triple_text(t) for t in enumerate_allowable()]
    assert got == [
        "(1,2,3)",
        "(1,2,4)",
        "(1,3,4)",
        "(2,3,4)",
        "(3,{1,2},4)",
        "(2,{1,3},4)",
        "(2,{1,4},3)",
        "(1,{2,3},4)",
        "(1,{2,4},3)",
        "(1,{3,4},2)",
    ]


def canonical_rotation(triple):
    """Allowable rotation of an ordered triple, or None."""
    slots = tuple(tuple(sorted(s)) for s in triple)
    allowed = set(enumerate_allowable())
    for shift in range(3):
        rot = slots[shift:] + slots[:shift]
        if rot in allowed:
            return rot
    return None


def test_canonical_rotation():
    assert canonical_rotation(((2,), (3,), (1,))) == ((1,), (2,), (3,))
    assert canonical_rotation(((4,), (1,), (2, 3))) == ((1,), (2, 3), (4,))
    # the reflected ordering is not allowable in any rotation
    assert canonical_rotation(((4,), (2, 3), (1,))) is None
    assert canonical_rotation(((2,), (1,), (3,))) is None


def test_aw3_all_triples_default_orientation(reg4):
    for triple in enumerate_allowable():
        reports = check_aw3_symmetric(reg4, triple)
        assert [r.status for r in reports] == ["pass"] * 3, triple
        for r in reports:
            assert r.inputs["monomial_order"] == "direct"
            assert all(k == v for k, v in r.inputs["assignment"].items())


def test_aw3_rel1_of_123_is_the_definition(reg4):
    reports = check_aw3_symmetric(reg4, ((1,), (2,), (3,)))
    assert reports[0].status == "pass"
    assert reports[0].inputs["relation"] == 1


def test_aw3_search_recovers_swapped_orientation(reg4):
    # a registry whose Q13/IQ13 entries are traded makes the default
    # assignment fail; the search must land on the flipped labels
    table = dict(reg4.table)
    table["Q13"], table["IQ13"] = table["IQ13"], table["Q13"]
    swapped = GeneratorRegistry(reg4.params, table)
    reports = check_aw3_symmetric(swapped, ((1,), (2,), (3,)))
    assert [r.status for r in reports] == ["pass"] * 3
    assert reports[0].inputs["assignment"] == {"Q13": "IQ13"}


def test_aw3_restricted_probe_recovers_swapped_orientation(default_registry):
    table = dict(default_registry.table)
    table["Q13"], table["IQ13"] = table["IQ13"], table["Q13"]
    swapped = GeneratorRegistry(default_registry.params, table)
    reports = check_aw3_symmetric(swapped, ((1,), (2,), (3,)), swapped.restricted(3))
    assert [r.status for r in reports] == ["pass"] * 3
    assert reports[0].inputs["assignment"] == {"Q13": "IQ13"}


def test_aw3_probe_registry_agrees(reg4):
    probe = reg4.restricted(1)
    triple = ((1,), (2, 4), (3,))
    with_probe = check_aw3_symmetric(reg4, triple, probe_reg=probe)
    without = check_aw3_symmetric(reg4, triple)
    assert [r.status for r in with_probe] == [r.status for r in without]
    assert with_probe[0].inputs == without[0].inputs


def test_aw3_linear_pair(reg3, reg4):
    for reg in (reg3, reg4):
        reports = relcheck.check_aw3_linear(reg)
        assert [r.status for r in reports] == ["pass", "pass"]


# -- quadratic pair ----------------------------------------------------


def test_aw3_quadratic_as_printed(reg3):
    reports = {r.id: r for r in check_aw3_quadratic(reg3)}
    assert reports["aw3-quadratic/line1"].status == "pass"
    assert reports["aw3-quadratic/line2"].status == "pass"
    assert not reports["aw3-quadratic/line1"].gating
    assert reports["aw3/linear/line1"].status == "pass"
    assert reports["aw3/linear/line2"].gating


def test_aw3_quadratic_needs_three_legs(reg4):
    with pytest.raises(ValueError):
        check_aw3_quadratic(reg4)


def test_residual_diagnosis(reg3):
    from awalgebra.relcheck import _diagnose_residual
    from awalgebra.sparse import SparseOperator
    from awalgebra.uqrep import casimir_unshifted

    basis = reg3.basis
    lone = casimir_unshifted(reg3.params, (2, 3))
    c = rational(-7, 3)
    d = rational(1, 2)
    scalar_only = SparseOperator.identity(basis, c)
    assert "(-7/3) * identity" in _diagnose_residual(scalar_only, lone, "U23")
    mixed = scalar_only + lone.scale(d)
    msg = _diagnose_residual(mixed, lone, "U23")
    assert "(1/2) * U23" in msg and "(-7/3) * identity" in msg
    shapeless = lone * lone + scalar_only
    assert "no scalar/lone-term" in _diagnose_residual(shapeless, lone, "U23")


# -- master ------------------------------------------------------------


def test_master_rows_load():
    rows = load_master_rows()
    assert len(rows) == 20
    assert rows[0].table == "table1" and rows[0].index == 1
    assert rows[0].triples == (
        ("Q234", "Q12", "Q23"),
        ("Q1", "Q2", "Q4"),
        ("Q0", "Q34", "Q123"),
    )
    assert rows[10].table == "table2"
    assert rows[10].triples == (
        ("Q12", "Q23", "Q12"),
        ("Q3", "Q2", "Q0"),
        ("Q0", "Q1", "Q123"),
    )


def test_master_all_rows_pass(reg4):
    reports = check_master_all(reg4)
    assert len(reports) == 20
    assert all(r.status == "pass" for r in reports)


def test_master_identity_has_teeth(reg4):
    # scrambling one triple must break the exchange identity
    row = load_master_rows()[0]
    scrambled = MasterRow(
        table=row.table,
        index=row.index,
        triples=(row.triples[0][::-1],) + row.triples[1:],
    )
    assert check_master(reg4, scrambled).status == "fail"


# -- independence ------------------------------------------------------


def test_independence_rank_15(reg4):
    rep = check_independence(reg4)
    assert rep.status == "pass"
    assert "rank 15 of 15" in rep.residual_summary["note"]


def test_independence_is_not_vacuous(reg4):
    # swap one generator for a combination of two others: rank drops
    n = len(reg4.basis)
    rows = []
    for label in NONCENTRAL_LABELS:
        op = reg4[label] if label != "Q13" else (
            reg4["Q12"].scale(rational(2)) + reg4["Q23"]
        )
        rows.append({i * n + j: v for i, j, v in op.entries()})
    assert fraction_free_rank(rows) == 14


def test_fraction_free_rank_against_gaussian():
    def gaussian_rank(rows, width):
        mat = [[row.get(c, rational(0)) for c in range(width)] for row in rows]
        rank = 0
        for col in range(width):
            piv = next(
                (r for r in range(rank, len(mat)) if mat[r][col] != 0), None
            )
            if piv is None:
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            inv = 1 / mat[rank][col]
            mat[rank] = [x * inv for x in mat[rank]]
            for r in range(len(mat)):
                if r != rank and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
            rank += 1
        return rank

    rng = random.Random(5)
    for _ in range(25):
        rows = []
        for _ in range(rng.randint(1, 6)):
            row = {
                c: rational(rng.randint(-5, 5), rng.randint(1, 4))
                for c in range(rng.randint(1, 7))
                if rng.random() < 0.7
            }
            rows.append({c: v for c, v in row.items() if v})
        assert fraction_free_rank(rows) == gaussian_rank(rows, 8)


def test_fraction_free_rank_simple_cases():
    one = rational(1)
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([{}]) == 0
    assert fraction_free_rank([{0: one}, {0: one + one}]) == 1
    assert fraction_free_rank([{0: one}, {1: one}, {0: one, 1: one}]) == 2


# -- spectra suite -----------------------------------------------------


def test_spectra_suite(reg4):
    reports = check_spectra(reg4)
    assert len(reports) == 10 * (reg4.params.n_max + 1)
    assert all(r.status == "pass" for r in reports)
