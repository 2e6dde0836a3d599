"""A check that cannot fail proves nothing: a one-unit change in a single
stored numerator of Q12 must flip the checks that use it to FAIL, and so
must two exchanged labels in a master row, one flipped monomial sign in
an aw3 relation, one wrong product in the definition of Q13 and, for
the spectra, which read uqrep's Casimirs, one wrong entry of a leg's E
table.  A realization that is not block diagonal must end verify and
spectrum in a failing report, not an exception."""

import json

import pytest

from awalgebra import cli, opalgebra, relcheck
from awalgebra.exactnum import rational
from awalgebra.opalgebra import GeneratorRegistry, build_registry
from awalgebra.sparse import SparseOperator
from awalgebra.spectra import annihilating_residual
from awalgebra.uqrep import RepParams, predicted_eigenvalues
from helpers import FullEvaluation, clear_operator_caches, degree_breaking_couple

WEIGHT = 1  # the bumped entry sits on the diagonal of this weight block


@pytest.fixture(scope="module")
def reg():
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=2)
    return build_registry(p)


@pytest.fixture(scope="module")
def mutated(reg):
    """reg with 1 added to the numerator of one diagonal entry of Q12."""
    q12 = reg["Q12"]
    j = reg.basis.weight_block(WEIGHT).start
    assert j in q12.cols and j in q12.cols[j]
    bump = SparseOperator(reg.basis, {j: {j: rational(1, q12.den)}}, degree=0)
    bumped = q12 + bump
    assert (bumped - q12).nnz() == 1
    return GeneratorRegistry(reg.params, {**reg.table, "Q12": bumped})


def flipped(good, bad):
    """Ids of the reports that are ok on good and not ok on bad."""
    assert [r.id for r in good] == [r.id for r in bad]
    assert all(r.ok for r in good)
    return [b.id for g, b in zip(good, bad) if not b.ok]


def test_prop1_flips(reg, mutated):
    # Q1..Q4 are scalars and Q123 is diagonal at the bumped state, so
    # only these commuting partners can see the change
    assert flipped(relcheck.check_prop1(reg), relcheck.check_prop1(mutated)) == [
        "prop1/Q12-Q34",
        "prop1/Q12-Q1234",
        "prop1/structure",
    ]


def test_master_flips(reg, mutated):
    rows_with_q12 = [
        f"master/{row.table}/row{row.index}"
        for row in relcheck.load_master_rows()
        if any("Q12" in triple for triple in row.triples)
    ]
    assert len(rows_with_q12) == 16
    bad = relcheck.check_master_all(mutated)
    assert flipped(relcheck.check_master_all(reg), bad) == rows_with_q12
    assert all(r.status == "fail" for r in bad if r.id in rows_with_q12)


def test_spectra_flips(monkeypatch):
    # spectra reads uqrep's Casimirs, not a registry, so the bumped Q12
    # reaches prop1 and master but not spectra.  The perturbed E table of
    # label 2 (test_slices) reaches it: the suite flips the Casimirs of
    # exactly the intervals holding leg 2, from block 2 on, where they
    # meet two quanta on that leg
    from test_slices import perturbed_cached_e_table

    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    clear_operator_caches()
    try:
        good = cli.run_suite("spectra", p)
        clear_operator_caches()
        perturbed_cached_e_table(monkeypatch)
        bad = cli.run_suite("spectra", p)
    finally:
        monkeypatch.undo()
        clear_operator_caches()
    holding_2 = ("Q2", "Q12", "Q23", "Q123", "Q234", "Q1234")
    assert flipped(good, bad) == [f"spectra/{x}/w{w}" for x in holding_2 for w in (2, 3)]


def test_shifted_eigenvalue_leaves_a_residual(reg):
    op = reg["Q12"]
    block = reg.basis.weight_block(WEIGHT)
    lams = predicted_eigenvalues(reg.params, (1, 2), WEIGHT)
    assert annihilating_residual(op, lams, block) == 0
    for x in range(len(lams)):
        shifted = list(lams)
        shifted[x] += rational(1, op.den)
        assert annihilating_residual(op, shifted, block) > 0


def test_master_row_with_exchanged_labels_fails(reg):
    # [[b, a]_q, c]_q in place of [[a, b]_q, c]_q in the first triple
    for row in relcheck.load_master_rows():
        (a, b, c), *rest = row.triples
        swapped = row._replace(triples=((b, a, c), *rest))
        assert relcheck.check_master(reg, row).ok
        assert relcheck.check_master(reg, swapped).status == "fail", row


def first_monomial_sign_flipped(residual):
    """GeneratorRegistry.residual with the sign of its fourth term
    flipped.  check_aw3_symmetric hands residual only the aw3 terms: the
    two products of the q-commutator, the lone term, then the
    monomials."""

    def flipped(self, terms):
        terms = list(terms)
        c, *factors = terms[3]
        terms[3] = (-c, *factors)
        return residual(self, terms)

    return flipped


def test_aw3_with_a_flipped_monomial_sign_fails(reg, monkeypatch):
    # no orientation assignment or monomial order may rescue it
    triples = relcheck.enumerate_allowable()
    good = [r for t in triples for r in relcheck.check_aw3_symmetric(reg, t)]
    monkeypatch.setattr(GeneratorRegistry, "residual", first_monomial_sign_flipped(GeneratorRegistry.residual))
    bad = [r for t in triples for r in relcheck.check_aw3_symmetric(reg, t)]
    assert len(good) == len(bad) == 30 and all(r.ok for r in good)
    assert all(r.status == "fail" for r in bad)


def every_suite(reg):
    """The reports of verify's suites at reg's parameters, every
    registry suite on reg (with no aw3 probe, as at nmax 3),
    aw3-quadratic on reg's three-leg sub-realization, built alike, and
    spectra, which reads no registry."""
    p = reg.params
    reg3 = type(reg)(p.interval_realization((1, 3)), build_registry(p.interval_realization((1, 3))).held)
    reports = relcheck.check_defining_relations(p) + relcheck.check_coassociativity(p)
    reports += relcheck.check_prop1(reg) + relcheck.check_prop2(reg)
    for triple in relcheck.enumerate_allowable():
        reports += relcheck.check_aw3_symmetric(reg, triple)
    reports += relcheck.check_aw3_linear(reg) + relcheck.check_aw3_quadratic(reg3)
    reports += relcheck.check_master_all(reg) + cli.run_suite("spectra", p)
    return reports + [relcheck.check_independence(reg)]


def test_wrong_derived_definition_flips_what_it_touches(monkeypatch):
    # Q13 defined with Q2 Q12 subtracted in place of Q2 Q123; the
    # registries are built afresh, so their derived generators follow
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    held = build_registry(p).held
    good = every_suite(GeneratorRegistry(p, held))
    monkeypatch.setitem(opalgebra.DERIVED_DEFS, "Q13", (("Q12", "Q23"), (("Q1", "Q3"), ("Q2", "Q12"))))
    bad = every_suite(GeneratorRegistry(p, held))
    oracle = every_suite(FullEvaluation(p, held))
    assert len(bad) == 345
    assert [r.status for r in bad] == [r.status for r in oracle]
    triples = ("(1,2,3)", "(1,3,4)", "(2,{1,3},4)", "(1,{2,4},3)")
    assert flipped(good, bad) == [
        "prop2/Q13-IQ24",
        "prop2/Q13-IQ134",
        "prop2/Q24-IQ13",
        "prop2/Q134-IQ13",
        *(f"aw3/{t}/rel{i}" for t in triples for i in (1, 2, 3)),
    ]


def verify_run(capsys, tmp_path, argv):
    """Exit code, stdout and check ids of one verify run."""
    path = tmp_path / "report.json"
    code = cli.main([*argv, "--report", str(path)])
    return code, capsys.readouterr().out, [c["id"] for c in json.loads(path.read_text())["checks"]]


def test_a_realization_without_weight_degree_fails_with_reports(capsys, tmp_path, monkeypatch):
    # the aw3 probe (nmax 4) and the annihilating polynomials (every
    # run) meet operators of no weight degree; serially in this process
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    runs = (["verify", "--nmax", "4"], ["verify", "--nmax", "3"], ["verify", "--legs", "3", "--nmax", "4"])
    good = [verify_run(capsys, tmp_path, argv) for argv in runs]
    with degree_breaking_couple():
        bad = [verify_run(capsys, tmp_path, argv) for argv in runs]
        assert cli.main(["spectrum", "--op", "Q12", "--nmax", "3"]) == 1
    assert "NONZERO RESIDUAL" in capsys.readouterr().out
    for (code, out, ids), (bad_code, bad_out, bad_ids) in zip(good, bad):
        assert code == 0 and "VERDICT: PASS" in out
        assert bad_code == 1 and "VERDICT: FAIL" in bad_out
        assert bad_ids == ids
    # no cache is left holding a mutated operator
    assert cli.main(["verify", "--nmax", "3"]) == 0
    assert "VERDICT: PASS" in capsys.readouterr().out


def test_a_realization_without_weight_degree_is_decided_on_the_full_table():
    # the certificate's block-diagonality scan refuses it, so every
    # status is the full evaluation's
    p = RepParams(q=rational(5, 3), k=(1, 2, 1, 3), legs=4, n_max=3)
    with degree_breaking_couple():
        reg = build_registry(p)
        assert reg.quotient is None and reg.restricted(2) is None
        bad = every_suite(reg)
        oracle = every_suite(FullEvaluation(p, reg.held))
    assert len(bad) == 345 and sum(not r.ok for r in bad) == 143
    assert [r.status for r in bad] == [r.status for r in oracle]
