import random
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from awalgebra.exactnum import parse, rational
from awalgebra.opalgebra import (
    DERIVED_DEFS,
    GeneratorRegistry,
    bracket,
    build_registry,
    involute_monomial,
    label_of_subset,
)
from awalgebra.sparse import RANK_PRIME, fraction_free_rank, rank_mod_prime
from awalgebra.uqrep import RepParams
from awalgebra import cli, relcheck
from helpers import FullEvaluation, bumped
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


def test_four_leg_crossing_pairs_are_the_derived_operand_pairs():
    # the pairs prop1/structure expects not to commute at four legs; in
    # DERIVED_DEFS order each pair's second label is the next one's
    # first, so they close into the 5-cycle the structure note states
    subsets = relcheck._interval_subsets(4)
    crossing = {
        frozenset((label_of_subset(a), label_of_subset(b)))
        for a, b in combinations(subsets, 2)
        if not relcheck._qualifying(a, b)
    }
    pairs = [operands for operands, _ in DERIVED_DEFS.values()]
    assert crossing == {frozenset(pair) for pair in pairs}
    assert [b for _, b in pairs] == [a for a, _ in pairs[1:] + pairs[:1]]
    assert len({a for a, _ in pairs}) == 5


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
    # 120 of prop2's 150 commutators have a central operand (Q1..Q4,
    # Q1234) and are answered by rule.  Of the other
    # 30, five pairs of intervals come both ways, ten pair a derived
    # generator with an interval, and ten are derived pairs of opposite
    # orientation.  Alone it computes 20: each interval pair once, the
    # ten derived pairs, and the five derived-interval pairs met before
    # the interval pairs that close them (commutant closure).  After
    # prop1, which records every interval pair, only the ten derived
    # pairs (each on the seed columns alone)
    base = registry("5/3", (1, 2, 1, 3), 3)
    calls = []
    real = GeneratorRegistry.residual
    # a central pair's residual has no terms
    monkeypatch.setattr(GeneratorRegistry, "residual", lambda self, t: (calls.append(1) if t else None) or real(self, t))
    alone = check_prop2(GeneratorRegistry(base.params, base.table))
    alone_calls = len(calls)
    warm = GeneratorRegistry(base.params, base.table)
    check_prop1(warm)
    del calls[:]
    after = check_prop2(warm)
    assert [r.to_json() for r in after] == [r.to_json() for r in alone]
    assert (alone_calls, len(calls)) == (20, 10)


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
            assert all(k == v for k, v in r.inputs["assignment"].items())


@pytest.mark.parametrize("qtxt,k", [("5/3", (1, 2, 1, 3)), ("-2/5", (2, 1, 1, 1))])
def test_aw3_monomial_factors_commute(qtxt, k):
    # why _aw3_residual keeps each monomial in its written order: under
    # every assignment its two factors are a prop2 pair, which commutes
    reg = registry(qtxt, k, 4)
    prop2 = check_prop2(reg)
    assert all(r.ok for r in prop2)
    prop2_pairs = {frozenset(r.id.removeprefix("prop2/").split("-")) for r in prop2}
    pairs = set()
    for triple in enumerate_allowable():
        fermionic = relcheck._fermionic_subsets(triple)
        for flips in product((False, True), repeat=len(fermionic)):
            assign = {s: label_of_subset(s, f) for s, f in zip(fermionic, flips)}
            for rel in relcheck._aw3_rotations(triple):
                for mono in rel["monomials"]:
                    pairs.add(involute_monomial(tuple(assign.get(x, label_of_subset(x)) for x in mono)))
    assert len(pairs) == 60
    for a, b in pairs:
        assert frozenset((a, b)) in prop2_pairs, (a, b)
        assert reg.combine(bracket(1, a, b)).is_zero(), (a, b)


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
    assert reports["aw3/linear/line1"].status == "pass"


def chained_quadratic_reports(reg3, const):
    """The quadratic pair on the full space, each line a chain of +,
    * and scale on the unshifted Casimirs with constant term const times
    the identity: the oracle of check_aw3_quadratic."""
    from awalgebra.reporting import residual_report
    from awalgebra.sparse import SparseOperator
    from awalgebra.uqrep import casimir_unshifted

    p = reg3.params
    q = p.q
    s2 = (q - 1 / q) ** 2
    t = q + 1 / q
    q_commutator = lambda q, a, b: (a * b).scale(q) - (b * a).scale(1 / q)
    u = {f"U{x}": casimir_unshifted(p, (int(x[0]), int(x[-1]))) for x in ("1", "2", "3", "12", "23", "123")}
    central_sum = u["U1"] + u["U2"] + u["U3"] + u["U123"]
    gg = u["U1"] * u["U3"] + u["U2"] * u["U123"]
    b = gg.scale(s2) + central_sum.scale(2)
    const = SparseOperator.identity(reg3.basis).scale(const)
    reports = []
    for name, x, y, (m1, m2, m3, m4) in (
        ("line1", "U12", "U23", ("U1", "U123", "U2", "U3")),
        ("line2", "U23", "U12", ("U3", "U123", "U1", "U2")),
    ):
        d = gg.scale(2) - central_sum.scale(2 * q / (q + 1) ** 2) - (u[m1] * u[m2] + u[m3] * u[m4]).scale(t) + const
        anti = u["U12"] * u["U23"] + u["U23"] * u["U12"]
        resid = q_commutator(q, q_commutator(q, u[x], u[y]), u[x]) - (
            (u[x] * u[x]).scale(-2) - anti.scale(2) + b * u[x] + u[y] + d
        )
        reports.append(
            residual_report(
                id=f"aw3-quadratic/{name}",
                kind="quadratic-aw3",
                inputs={"relation": name, "normalization": "unshifted"},
                residual=resid,
            )
        )
    return reports


def with_lift_fields(report, columns, certified):
    """report.to_json() with the two fields a registry residual's
    report adds to its summary."""
    out = report.to_json()
    out["residual_summary"] = {**out["residual_summary"], "columns_computed": columns, "certificate_held": certified}
    return out


# the three-leg sub-realizations of the default verify, of
# --q -2/5 --k 2,1,1,1 --nmax 4, and of --legs 3 --nmax 5
QUADRATIC_CONFIGS = [("5/3", (1, 2, 1), 6), ("-2/5", (2, 1, 1), 4), ("5/3", (1, 2, 1), 5)]


@pytest.mark.parametrize("qtxt,k,n_max", QUADRATIC_CONFIGS)
def test_aw3_quadratic_equals_the_full_space_path(qtxt, k, n_max):
    reg = registry(qtxt, k, n_max)
    got = check_aw3_quadratic(reg)
    want = chained_quadratic_reports(reg, relcheck.quadratic_constant(reg.params.q))
    # each line one registry residual, certified on the seed columns
    assert [r.to_json() for r in got[:2]] == [with_lift_fields(r, reg._seed_count, True) for r in want]
    assert [r.status for r in got] == ["pass"] * 4


@pytest.mark.parametrize("qtxt,k,n_max", QUADRATIC_CONFIGS[1:])
def test_aw3_quadratic_wrong_constant_fails_like_the_full_space_path(qtxt, k, n_max, monkeypatch):
    reg = registry(qtxt, k, n_max)
    wrong = relcheck.quadratic_constant(reg.params.q) + rational(1, 7)
    monkeypatch.setattr(relcheck, "quadratic_constant", lambda q: wrong)
    got = check_aw3_quadratic(reg)[:2]
    want = chained_quadratic_reports(reg, wrong)
    # the quotient leaves each line nonzero, so it is recomputed on
    # every column
    assert [r.to_json() for r in got] == [with_lift_fields(r, len(reg.basis), True) for r in want]
    for r in got:
        assert r.status == "fail" and not r.ok


def test_aw3_quadratic_needs_three_legs(reg4):
    with pytest.raises(ValueError):
        check_aw3_quadratic(reg4)


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


def reading_full_rows(monkeypatch):
    """The rank calls of check_independence, each as the labels it read
    from a registry's full table for its rows (none for quotient rows)."""
    reads, ranks = [], []
    real_item, real_rank = GeneratorRegistry.__getitem__, relcheck.fraction_free_rank
    monkeypatch.setattr(GeneratorRegistry, "__getitem__", lambda self, x: reads.append(x) or real_item(self, x))

    def rank(rows):
        ranks.append(tuple(reads))
        del reads[:]
        return real_rank(rows)

    monkeypatch.setattr(relcheck, "fraction_free_rank", rank)
    return ranks


@pytest.mark.parametrize("fixture", ["default_registry", "alt_registry", "reg4"])
def test_independence_on_the_quotient_equals_the_restricted_rank(fixture, request, monkeypatch):
    reg = request.getfixturevalue(fixture)
    want = check_independence(FullEvaluation(reg.params, reg.held)).to_json()
    restricted = check_independence(FullEvaluation(reg.params, reg.restricted(2).held)).to_json()
    ranks = reading_full_rows(monkeypatch)
    assert check_independence(reg).to_json() == want == restricted
    # the quotient rank is full at the first cap: no row of the full table read
    assert want["status"] == "pass" and ranks == [()]


def test_independence_reads_one_table_per_certificate_state(monkeypatch):
    # Q13 replaced by 2 Q12 + Q23: rank 14.  While the certificate holds
    # every cap reads the quotient rows alone, and the report equals the
    # full evaluation's: the quotient rank is the full rank at each cap
    base = registry("-2/5", (2, 1, 1, 1), 3)
    table = {**base.table, "Q13": base["Q12"].scale(rational(2)) + base["Q23"]}
    reg = GeneratorRegistry(base.params, table)
    assert reg.quotient is not None
    want = check_independence(FullEvaluation(reg.params, table)).to_json()
    ranks = reading_full_rows(monkeypatch)
    got = check_independence(reg).to_json()
    assert ranks == [(), ()]  # caps 2 and 3
    assert got == want
    assert got["status"] == "fail" and got["residual_summary"]["note"] == "rank 14 of 15"
    assert got["inputs"]["certified_at_weight"] == 3


def test_independence_of_a_refused_certificate_reads_the_full_rows(monkeypatch):
    # a diagonal entry of Q12 off the seeds bumped: the certificate is
    # refused, so the rows are the full generators', at the first cap
    reg = registry("5/3", (1, 2, 1, 3), 3)
    bad = bumped(reg, "Q12", reg.basis.index_of((1, 0, 1, 0)))
    assert bad.quotient is None
    ranks = reading_full_rows(monkeypatch)
    got = check_independence(bad).to_json()
    assert ranks == [NONCENTRAL_LABELS]
    assert got["status"] == "pass" and got["inputs"]["certified_at_weight"] == 2


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


def test_fraction_free_rank_against_gaussian():
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


WIDTH = 6
entries = st.builds(rational, st.integers(-6, 6), st.integers(1, 4))
rows_ = st.lists(st.dictionaries(st.integers(0, WIDTH - 1), entries, max_size=WIDTH), max_size=6)


@st.composite
def rank_cases(draw):
    """Rows, with a rational combination of them appended (dependent over
    Q), or with a copy of one of them plus P times a fresh coordinate
    appended (independent over Q but dependent mod P), or as drawn."""
    rows = [{c: v for c, v in r.items() if v} for r in draw(rows_)]
    kind = draw(st.sampled_from(("plain", "dependent", "mod-p")))
    if kind == "dependent" and rows:
        combo = {}
        for r in rows:
            f = draw(entries)
            for c, v in r.items():
                combo[c] = combo.get(c, 0) + f * v
        rows.append({c: v for c, v in combo.items() if v})
    if kind == "mod-p" and any(rows):
        r = draw(st.sampled_from([r for r in rows if r]))
        scale = lcm(*(int(v.denominator) for v in r.values()))
        integral = {c: v * scale for c, v in r.items()}
        rows += [integral, {**integral, WIDTH: rational(RANK_PRIME)}]
    return kind, rows


@settings(max_examples=150, deadline=None)
@given(rank_cases())
def test_fraction_free_rank_against_gaussian_on_dependent_rows(case):
    kind, rows = case
    assert fraction_free_rank(rows) == gaussian_rank(rows, WIDTH + 1)
    if kind == "mod-p" and any(rows):
        # the modular pass falls short, so the Bareiss elimination ran
        integral = [{c: int(v) for c, v in r.items()} for r in rows[-2:]]
        assert rank_mod_prime(integral) == 1 < gaussian_rank(rows[-2:], WIDTH + 1) == 2


def test_modular_rank_shortfall_falls_back_to_bareiss():
    one = rational(1)
    rows = [{0: one}, {0: one, 1: rational(RANK_PRIME)}]
    assert rank_mod_prime([{0: 1}, {0: 1, 1: RANK_PRIME}]) == 1
    assert fraction_free_rank(rows) == 2
    assert rank_mod_prime([{0: 2, 1: 3}, {0: 4, 1: 6}]) == 1
    assert rank_mod_prime([{0: 2, 1: 3}, {1: 5}, {0: -1}]) == 2


def test_fraction_free_rank_simple_cases():
    one = rational(1)
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([{}]) == 0
    assert fraction_free_rank([{0: one}, {0: one + one}]) == 1
    assert fraction_free_rank([{0: one}, {1: one}, {0: one, 1: one}]) == 2


# -- spectra suite -----------------------------------------------------


def test_spectra_suite(reg4):
    reports = cli.run_suite("spectra", reg4.params)
    assert len(reports) == 10 * (reg4.params.n_max + 1)
    assert all(r.status == "pass" for r in reports)
