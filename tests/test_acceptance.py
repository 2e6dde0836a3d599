"""Acceptance gate: every headline guarantee of the package, checked in exact
arithmetic (zero tolerance) and announced one line per criterion.

Criteria:
  A1  defining relations of each leg and each fold
  A2  fold order does not matter (coassociativity)
  A3  commutation structure of the interval Casimirs
  A4  involution-twisted commutant (all qualifying ordered pairs)
  A5  ten symmetric cubic relations, orientation recorded
  A6  inhomogeneous cubic pair, standalone three-leg and embedded four-leg
  A7  twenty exchange identities between cubic brackets
  A8  spectral annihilation on every weight block, frozen eigenvalues
  A9  linear independence of the fifteen noncentral generators
  A10 quadratic-normalized cubic pair, as printed
"""

from awalgebra import cli, relcheck
from awalgebra.exactnum import rational
from awalgebra.uqrep import casimir_eigenvalue


def _all_ok(reports):
    return all(r.ok for r in reports)


def test_A1_defining_relations(default_registry, alt_registry, announce):
    reports = []
    for reg in (default_registry, alt_registry):
        reports.extend(relcheck.check_defining_relations(reg.params))
    assert len(reports) == 80
    bad = [r.id for r in reports if not r.ok]
    announce(
        "A1",
        not bad,
        f"defining relations: {len(reports) - len(bad)}/{len(reports)} exact "
        "at q=5/3,k=(1,2,1,3) and q=2/5,k=(2,1,1,1), nmax=6"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A2_coassociativity(default_registry, alt_registry, announce):
    reports = []
    for reg in (default_registry, alt_registry):
        reports.extend(relcheck.check_coassociativity(reg.params))
    assert len(reports) == 24
    bad = [r.id for r in reports if not r.ok]
    announce(
        "A2",
        not bad,
        f"fold coassociativity: {len(reports) - len(bad)}/{len(reports)} "
        "exact across both parameter sets"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A3_commutation_structure(default_registry, announce):
    reports = relcheck.check_prop1(default_registry)
    structure = [r for r in reports if r.id == "prop1/structure"]
    assert len(structure) == 1
    noncommuting = structure[0].inputs["noncommuting"]
    expected_cycle = [
        ["Q12", "Q23"],
        ["Q12", "Q234"],
        ["Q23", "Q34"],
        ["Q34", "Q123"],
        ["Q123", "Q234"],
    ]
    ok = _all_ok(reports) and noncommuting == expected_cycle
    announce(
        "A3",
        ok,
        f"interval Casimir commutation: {len(reports)} checks, crossing "
        f"pairs form the pentagon cycle {noncommuting}",
    )


def test_A4_twisted_commutant(default_registry, alt_registry, announce):
    reports = relcheck.check_prop2(default_registry) + relcheck.check_prop2(
        alt_registry
    )
    assert len(reports) == 300
    bad = [r.id for r in reports if not r.ok]
    announce(
        "A4",
        not bad,
        f"involution-twisted commutant: {len(reports) - len(bad)}/"
        f"{len(reports)} ordered pairs vanish exactly at both parameter sets"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A5_symmetric_cubic_relations(default_registry, default_probe, announce):
    reports = []
    for triple in relcheck.enumerate_allowable():
        reports.extend(
            relcheck.check_aw3_symmetric(
                default_registry, triple, probe_reg=default_probe
            )
        )
    assert len(reports) == 30
    bad = [r.id for r in reports if not r.ok]
    plain = all(all(k == v for k, v in r.inputs["assignment"].items()) for r in reports)
    announce(
        "A5",
        not bad and plain,
        f"symmetric cubic relations: {len(reports) - len(bad)}/{len(reports)} "
        "exact over all ten allowable triples, all in the plain orientation"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A6_cubic_pair(default_registry, leg3_registry, announce):
    reports = relcheck.check_aw3_linear(leg3_registry) + relcheck.check_aw3_linear(default_registry)
    assert len(reports) == 4
    bad = [r.id for r in reports if not r.ok]
    announce(
        "A6",
        not bad,
        "inhomogeneous cubic pair: exact standalone (legs=3, k=(1,2,1), "
        "nmax=5) and embedded in the four-leg realization"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A7_exchange_identities(default_registry, announce):
    reports = relcheck.check_master_all(default_registry)
    assert len(reports) == 20
    bad = [r.id for r in reports if not r.ok]
    announce(
        "A7",
        not bad,
        f"exchange identities: {len(reports) - len(bad)}/{len(reports)} "
        "rows exact at nmax=6"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A8_spectra(default_registry, announce):
    reports = cli.run_suite("spectra", default_registry.params)
    assert len(reports) == 70
    bad = [r.id for r in reports if not r.ok]
    q2 = rational(2)
    frozen = (
        casimir_eigenvalue(q2, 1) == rational(-1)
        and casimir_eigenvalue(q2, 2) == rational(-13, 4)
        and casimir_eigenvalue(q2, 3) == rational(-205, 16)
    )
    announce(
        "A8",
        not bad and frozen,
        f"spectral annihilation: {len(reports) - len(bad)}/{len(reports)} "
        "blocks exact; frozen eigenvalues at q=2 reproduced"
        + (f"; failed {bad}" if bad else ""),
    )


def test_A9_independence(default_registry, announce):
    report = relcheck.check_independence(default_registry)
    note = report.residual_summary["note"]
    announce(
        "A9",
        report.ok and note == "rank 15 of 15",
        f"independence of the noncentral generators: {note} "
        f"(certified at weight <= {report.inputs['certified_at_weight']})",
    )


def test_A10_quadratic_pair(leg3_registry, announce):
    reports = relcheck.check_aw3_quadratic(leg3_registry)
    quad = [r for r in reports if r.id.startswith("aw3-quadratic/")]
    assert len(quad) == 2
    assert all(r.inputs["normalization"] == "unshifted" for r in quad)
    bad = [r.id for r in quad if not r.ok]
    announce(
        "A10",
        not bad,
        "quadratic-normalized cubic pair: both lines exact as printed "
        "(legs=3, k=(1,2,1), nmax=5)"
        + (f"; failed {bad}" if bad else ""),
    )
