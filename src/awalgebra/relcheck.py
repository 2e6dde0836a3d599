"""Relation suites: every algebraic claim about the realization, each
checked in exact arithmetic and returned as RelationReports.

Suites
------
defining       quantum-group relations per leg and per interval, plus
               left-vs-right coproduct assembly (coassociativity)
prop1          commutators of consecutive-interval Casimirs: disjoint or
               nested intervals commute, crossing ones must not, and at
               four legs the crossing pairs form a single 5-cycle
prop2          [Q^(A), involution(Q^(B))] = 0 for nested or disjoint
               leg subsets A, B, over all ordered pairs
aw3            symmetric three-generator relations for every allowable
               triple, searching orientations of derived generators
               (monomials as written), plus, at four legs, the
               linearized relation pair embedded there
aw3-quadratic  the quadratic (unshifted) relation pair and the linearized
               pair on three legs
master         twenty six-term q-commutator exchange identities
spectra        annihilating polynomials of every interval Casimir on
               every weight block, certified by the quotient certificate
               of the interval's own realization (spectra.py)
independence   exact rank of the fifteen non-central generators

The residuals of prop1, prop2, the symmetric aw3 relations, master, the
quadratic pair and, at four legs, the linearized aw3 pair are
polynomials in the registry's generators, written as terms: rational
combinations of labels and nested tuples of terms, with
opalgebra.bracket for each q-commutator.  Each is evaluated by the one
evaluator, Generators.combine, first on the registry's quotient table,
the generators read on block_w / Delta(E)(block_(w-1)) with the seed
states (no quanta on leg 1) as basis, and a zero there is zero on every
column while the quotient certificate holds (the theorem of lifting.py,
GeneratorRegistry.residual); a residual the quotient leaves nonzero is
recomputed on the full table, so every report is the full
evaluation's, and its summary adds columns_computed and
certificate_held.  A commutator with Q0, a single-leg Casimir or the
total Casimir, whose reductions are block scalar, is zero by the
corollary of lifting.py and is not evaluated
(GeneratorRegistry.commutator_of).  The independence rank is taken on
the quotient table while the certificate holds, and on the full one
when it is refused (check_independence).

The defining relations and coassociativity are polynomials in uqrep's
interval generators, not the registry's, and are evaluated on every
column their report reads, with no certificate.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

from .exactnum import inverse
from .opalgebra import (
    GeneratorRegistry,
    bracket,
    consecutive_subsets,
    involute_monomial,
    involution,
    is_consecutive,
    label_of_subset,
    nonempty_subsets,
)
from .reporting import RelationReport, residual_report
from .sparse import SparseOperator, fraction_free_rank
from .spectra import spectrum_reports
from .uqrep import RepParams, interval_ops
# read by no suite: the benchmark trace (perfbench/layers.py) patches it here
from .uqrep import casimir_unshifted  # noqa: F401


# -- defining relations ----------------------------------------------


def check_defining_relations(p: RepParams) -> list[RelationReport]:
    """K Kinv = 1, K E = q E K, q K F = F K and the E, F commutator on
    every leg and every consecutive interval.

    The commutator relation applies E after F on only one side, so it
    is checked on columns of weight <= n_max - 1, where the truncation
    is invisible; the other relations are exact everywhere.
    """
    q = p.q
    s_inv = inverse(q - inverse(q))
    iden = SparseOperator.identity(p.basis)
    # column j of A B is A applied to column j of B, so the EF residual
    # reads only the columns of weight <= n_max - 1 of each last factor
    below = range(p.basis.weight_block(p.n_max - 1).stop)
    out = []
    for lo, hi in consecutive_subsets(p.legs):
        label = label_of_subset(range(lo, hi + 1))
        ops = interval_ops(p, (lo, hi))
        e, f, k, ki = ops["E"], ops["F"], ops["K"], ops["Kinv"]
        eb, fb, kb, kib = (op.restricted(below) for op in (e, f, k, ki))
        pairs = [
            ("KKinv", ((1, k, ki), (-1, iden)), None),
            ("KE", ((1, k, e), (-q, e, k)), None),
            ("KF", ((q, k, f), (-1, f, k)), None),
            ("EF", ((1, e, fb), (-1, f, eb), (-s_inv, k, kb), (s_inv, ki, kib)), p.n_max - 1),
        ]
        for name, terms, max_w in pairs:
            out.append(
                residual_report(
                    id=f"defining/{label}/{name}",
                    kind="defining-relation",
                    inputs={"interval": [lo, hi], "relation": name},
                    residual=SparseOperator.lincomb(p.basis, terms),
                    max_weight=max_w,
                )
            )
    return out


def check_coassociativity(p: RepParams) -> list[RelationReport]:
    """Left-bracketed vs right-bracketed coproduct assembly agree on
    every interval of three or more legs."""
    out = []
    for lo, hi in consecutive_subsets(p.legs):
        if hi - lo < 2:
            continue
        label = label_of_subset(range(lo, hi + 1))
        # the default assembly, so this shares the cache key of every
        # other left fold
        left = interval_ops(p, (lo, hi))
        right = interval_ops(p, (lo, hi), "right")
        for name in ("E", "F", "K", "Kinv"):
            out.append(
                residual_report(
                    id=f"defining/coassoc/{label}/{name}",
                    kind="coassociativity",
                    inputs={"interval": [lo, hi], "generator": name},
                    residual=SparseOperator.lincomb(p.basis, ((1, left[name]), (-1, right[name]))),
                )
            )
    return out


# -- commuting pairs ---------------------------------------------------


def _interval_subsets(legs: int) -> list[tuple[int, ...]]:
    return [tuple(range(lo, hi + 1)) for lo, hi in consecutive_subsets(legs)]


def _qualifying(a: tuple, b: tuple) -> bool:
    sa, sb = set(a), set(b)
    return sa.isdisjoint(sb) or sa <= sb or sb <= sa


def check_prop1(reg: GeneratorRegistry) -> list[RelationReport]:
    """Commutators of all pairs of interval Casimirs.

    Disjoint or nested intervals must commute; crossing intervals must
    not (they are the genuinely q-deformed pairs).  A final structural
    report checks the crossing pairs against the computed non-commuting
    set.
    """
    subsets = _interval_subsets(reg.params.legs)
    out = []
    noncommuting = []
    crossing = []
    for a, b in combinations(subsets, 2):
        la, lb = label_of_subset(a), label_of_subset(b)
        qual = _qualifying(a, b)
        if not qual:
            crossing.append((la, lb))
        lift = reg.commutator_of(la, lb)
        if not lift.residual.is_zero():
            noncommuting.append((la, lb))
        out.append(
            residual_report(
                id=f"prop1/{la}-{lb}",
                kind="casimir-commutator",
                inputs={"a": la, "b": lb, "qualifying": qual},
                residual=lift.residual,
                expected="zero" if qual else "nonzero",
                lift=lift,
            )
        )
    structure_ok = noncommuting == crossing
    # at four legs the crossing pairs are always Q12-Q23, Q23-Q34,
    # Q34-Q123, Q123-Q234 and Q234-Q12: one 5-cycle
    cycle_note = None
    if reg.params.legs == 4 and structure_ok:
        cycle_note = "crossing pairs close into one 5-cycle"
    out.append(
        RelationReport(
            id="prop1/structure",
            kind="noncommuting-structure",
            inputs={"noncommuting": [list(e) for e in noncommuting]},
            status="pass" if structure_ok else "fail",
            residual_summary={
                "nonzero_entries": 0 if structure_ok else 1,
                "sample": None,
                "note": cycle_note,
            },
        )
    )
    return out


def check_prop2(reg: GeneratorRegistry) -> list[RelationReport]:
    """[Q^(A), involution(Q^(B))] = 0 whenever the leg subsets A, B are
    nested or disjoint, over all ordered pairs of distinct nonempty
    subsets.  Non-qualifying (crossing) pairs are skipped: nothing is
    claimed for them."""
    if reg.params.legs != 4:
        raise ValueError("subset commutation table is a four-leg statement")
    out = []
    for a, b in product(nonempty_subsets(4), repeat=2):
        if a == b or not _qualifying(a, b):
            continue
        la = label_of_subset(a)
        lb = involution(label_of_subset(b))
        lift = reg.commutator_of(la, lb)
        out.append(
            residual_report(
                id=f"prop2/{la}-{lb}",
                kind="subset-commutator",
                inputs={"a": la, "b": lb},
                residual=lift.residual,
                lift=lift,
            )
        )
    return out


# -- symmetric cubic relations -----------------------------------------


def enumerate_allowable() -> list[tuple]:
    """The ten canonical allowable triples of pairwise disjoint leg
    subsets: three singletons ascending, or a doubleton between the two
    remaining legs in ascending order."""
    triples = []
    for combo in combinations(range(1, 5), 3):
        triples.append(tuple((i,) for i in combo))
    for pair in combinations(range(1, 5), 2):
        rest = sorted(set(range(1, 5)) - set(pair))
        triples.append(((rest[0],), pair, (rest[1],)))
    return triples


def triple_text(triple) -> str:
    def slot(s):
        return str(s[0]) if len(s) == 1 else "{" + ",".join(map(str, s)) + "}"

    return "(" + ",".join(slot(s) for s in triple) + ")"


def _aw3_rotations(triple):
    """The three cyclic relations of a triple, as subset slots."""
    rels = []
    for shift in range(3):
        u, v, w = triple[shift:] + triple[:shift]
        union = lambda *ss: tuple(sorted(set().union(*ss)))
        rels.append(
            {
                "left": (union(u, v), union(v, w)),
                "lone": union(w, u),
                "monomials": ((u, w), (union(u, v, w), v)),
            }
        )
    return rels


def _fermionic_subsets(triple):
    seen = []
    for rel in _aw3_rotations(triple):
        for subset in (*rel["left"], rel["lone"], *rel["monomials"][0], *rel["monomials"][1]):
            if not is_consecutive(subset) and subset not in seen:
                seen.append(subset)
    return seen


def _aw3_residual(reg: GeneratorRegistry, rel, assign):
    """Lifted record of the residual (q-q^-1)^-1 [Q^(uv), Q^(vw)]_q
    - Q^(wu) - I(Q^(u) Q^(w)) - I(Q^(uvw) Q^(v)), each involuted
    monomial in the order written.  That order is no choice: the two
    factors of a monomial are a prop2 pair (disjoint or nested leg sets,
    one side involuted), which commutes."""

    def resolve(subset):
        return assign.get(subset, label_of_subset(subset))

    q = reg.params.q
    l1, l2 = (resolve(x) for x in rel["left"])
    terms = [*bracket(q, l1, l2, inverse(q - inverse(q))), (-1, resolve(rel["lone"]))]
    for mono in rel["monomials"]:
        terms.append((-1, *involute_monomial(tuple(resolve(x) for x in mono))))
    return reg.residual(terms)


def check_aw3_symmetric(
    reg: GeneratorRegistry, triple, probe_reg: GeneratorRegistry = None
) -> list[RelationReport]:
    """The three symmetric relations of one allowable triple.

    Every non-consecutive leg set appearing in the relations may enter
    as the defined generator or its involuted partner.  The all-plain
    assignment is tried first; if any relation has a nonzero residual,
    the other orientation assignments are searched, and the passing one
    is recorded, or the all-plain one when none passes.  probe_reg, when
    given, is a cheaper realization (GeneratorRegistry.restricted) used
    to pre-screen assignments; the reported residuals always come from
    reg.
    """
    if reg.params.legs < 3:
        raise ValueError("allowable triples need at least three legs")
    rels = _aw3_rotations(triple)
    fermionic = _fermionic_subsets(triple)
    text = triple_text(triple)

    def assignments():
        for flips in product((False, True), repeat=len(fermionic)):
            yield {
                s: label_of_subset(s, flipped=f)
                for s, f in zip(fermionic, flips)
            }

    def evaluate(registry, assign):
        return [_aw3_residual(registry, rel, assign) for rel in rels]

    for assign in assignments():
        if probe_reg is not None and not all(x.residual.is_zero() for x in evaluate(probe_reg, assign)):
            continue
        lifts = evaluate(reg, assign)
        if all(x.residual.is_zero() for x in lifts):
            break
    else:
        assign = next(assignments())
        lifts = evaluate(reg, assign)
    reports = []
    for i, lift in enumerate(lifts, start=1):
        reports.append(
            residual_report(
                id=f"aw3/{text}/rel{i}",
                kind="symmetric-aw3",
                inputs={
                    "triple": text,
                    "relation": i,
                    "assignment": {label_of_subset(s): a for s, a in assign.items()},
                },
                residual=lift.residual,
                lift=lift,
            )
        )
    return reports


def check_aw3_linear(reg: GeneratorRegistry) -> list[RelationReport]:
    """Linearized relation pair on the first three legs:

        [[Q12,Q23]_q,Q12]_q = (q-q^-1)^2 (B Q12 + Q23 + Q1 Q123 + Q2 Q3)
        [[Q23,Q12]_q,Q23]_q = (q-q^-1)^2 (B Q23 + Q12 + Q3 Q123 + Q1 Q2)

    with B = Q1 Q3 + Q2 Q123, all in shifted Casimirs; reported as
    aw3/linear/* at three legs, aw3/linear-embedded/* at four.  Each
    line is a polynomial in the registry's generators.  At four legs it
    is one reg.residual, decided on the quotient table first and
    reported with its columns computed like every other registry
    residual.  At three legs both lines are evaluated on the full table
    (reg.combine) with B and the closing products formed through
    GeneratorRegistry.product and handed in as operators, so their
    reports carry no lift fields: they are the only products of it that
    a default verify and the benchmark's sweep form, and the benchmark's
    trace (perfbench/layers.py) requires its span in both."""
    q = reg.params.q
    s2 = (q - inverse(q)) ** 2
    # name, x, y and the two products closing the line
    # [[x,y]_q,x]_q = (q-q^-1)^2 (B x + y + ...)
    pair = (
        ("line1", "Q12", "Q23", (("Q1", "Q123"), ("Q2", "Q3"))),
        ("line2", "Q23", "Q12", (("Q3", "Q123"), ("Q1", "Q2"))),
    )

    def line(b, x, y, closing):
        return (*bracket(q, bracket(q, x, y), x), (-s2, b, x), (-s2, y), *((-s2, *f) for f in closing))

    if reg.params.legs == 3:
        b = reg.product("Q1", "Q3") + reg.product("Q2", "Q123")
        found = [
            (name, reg.combine(line(b, x, y, [(reg.product(*f),) for f in closing])), None)
            for name, x, y, closing in pair
        ]
    else:
        b = ((1, "Q1", "Q3"), (1, "Q2", "Q123"))
        lifts = [(name, reg.residual(line(b, *spec))) for name, *spec in pair]
        found = [(name, lift.residual, lift) for name, lift in lifts]
    tag = "linear" if reg.params.legs == 3 else "linear-embedded"
    return [
        residual_report(
            id=f"aw3/{tag}/{name}",
            kind="linear-aw3",
            inputs={"relation": name, "legs": reg.params.legs},
            residual=resid,
            lift=lift,
        )
        for name, resid, lift in found
    ]


def quadratic_constant(q):
    """The constant term 2q^2/(q+1)^4 of D1 and D2 (check_aw3_quadratic)."""
    return 2 * q * q / (q + 1) ** 4


def check_aw3_quadratic(reg3: GeneratorRegistry) -> list[RelationReport]:
    """Quadratic relation pair in unshifted Casimirs, as printed:

        [[U12,U23]_q,U12]_q = -2 U12^2 - 2{U12,U23} + B U12 + U23 + D1
        [[U23,U12]_q,U23]_q = -2 U23^2 - 2{U12,U23} + B U23 + U12 + D2

        B  = (q-q^-1)^2 (U1 U3 + U2 U123) + 2 (U1+U2+U3+U123)
        D1 = 2 (U1 U3 + U2 U123) - 2q (U1+U2+U3+U123)/(q+1)^2
             - (q+q^-1)(U1 U123 + U2 U3) + 2q^2/(q+1)^4
        D2 = same with U3 U123 + U1 U2 in the third term

    The unshifted Casimir of an interval A is affine in the registry's
    generators, U_A = -(t/s^2) Q_A + (2/s^2) Q0 with s = q - q^-1, t =
    q + q^-1 and Q0 minus the identity (uqrep.casimir_unshifted).  So
    each line is a polynomial in the registry's generators and one
    reg3.residual: the U, the inner q-commutator, U1 U3 + U2 U123 and B
    are nested terms, one lincomb each per evaluation, and the constant
    enters as a multiple of Q0.  (An identity on the whole
    basis would leave a diagonal off the seeds, so the quotient residual
    would never vanish.)  The linearized pair, which is exact, is
    checked alongside.
    """
    p = reg3.params
    if p.legs != 3:
        raise ValueError("quadratic relation pair is stated on three legs")
    q = p.q
    s2 = (q - inverse(q)) ** 2
    t = q + inverse(q)
    c1 = 2 * q / (q + 1) ** 2
    central = ("U1", "U2", "U3", "U123")
    u = {f"U{a}": ((-t / s2, f"Q{a}"), (2 / s2, "Q0")) for a in ("1", "2", "3", "12", "23", "123")}
    gg = ((1, u["U1"], u["U3"]), (1, u["U2"], u["U123"]))
    b = ((s2, gg), *((2, u[a]) for a in central))

    def line(x, y, pairs):
        """Terms of the residual of [[x,y]_q,x]_q = -2 x^2 - 2{x,y} +
        B x + y + D, D's third term summing the products pairs."""
        ux, uy = u[x], u[y]
        return (
            *bracket(q, bracket(q, ux, uy), ux),
            (2, ux, ux),
            (2, ux, uy),
            (2, uy, ux),
            (-1, b, ux),
            (-1, uy),
            (-2, gg),
            *((c1, u[a]) for a in central),
            *((t, u[v], u[w]) for v, w in pairs),
            # minus the constant times the identity, which is -Q0
            (quadratic_constant(q), "Q0"),
        )

    reports = []
    for name, x, y, pairs in (
        ("line1", "U12", "U23", (("U1", "U123"), ("U2", "U3"))),
        ("line2", "U23", "U12", (("U3", "U123"), ("U1", "U2"))),
    ):
        lift = reg3.residual(line(x, y, pairs))
        reports.append(
            residual_report(
                id=f"aw3-quadratic/{name}",
                kind="quadratic-aw3",
                inputs={"relation": name, "normalization": "unshifted"},
                residual=lift.residual,
                lift=lift,
            )
        )
    reports.extend(check_aw3_linear(reg3))
    return reports


# -- master identity ---------------------------------------------------


class MasterRow(NamedTuple):
    table: str
    index: int
    triples: tuple  # ((A,B,C), (alpha,beta,gamma), (X,Y,Z)) as labels


@lru_cache(maxsize=None)
def load_master_rows() -> tuple:
    data = json.loads((Path(__file__).parent / "data" / "master_tables.json").read_text())
    rows = []
    for table in ("table1", "table2"):
        for idx, triples in enumerate(data[table], start=1):
            rows.append(
                MasterRow(
                    table=table,
                    index=idx,
                    triples=tuple(tuple(t) for t in triples),
                )
            )
    return tuple(rows)


def check_master(reg: GeneratorRegistry, row: MasterRow) -> RelationReport:
    """One six-term exchange identity: the three left triples against
    the three index-exchanged right triples."""
    if reg.params.legs != 4:
        raise ValueError("exchange identities are four-leg statements")
    (a, b, c), (al, be, ga), (x, y, z) = row.triples
    lhs_triples = ((a, b, c), (al, be, ga), (x, y, z))
    rhs_triples = ((a, be, z), (x, b, ga), (al, y, c))
    # [[u, v]_q, w]_q is linear in [u, v]_q, and both sides use the
    # outer labels {c, ga, z}: sum the signed inner q-commutators
    # D_w = sum +-[u, v]_q of each outer label w first, then take
    # sum_w [D_w, w]_q = sum_w q D_w w - q^-1 w D_w.
    q = reg.params.q
    inner = {}
    for sign, triples in ((1, lhs_triples), (-1, rhs_triples)):
        for u, v, w in triples:
            inner.setdefault(w, []).extend(bracket(q, u, v, sign))
    lift = reg.residual([t for w, d_w in inner.items() for t in bracket(q, tuple(d_w), w)])
    return residual_report(
        id=f"master/{row.table}/row{row.index}",
        kind="exchange-identity",
        inputs={
            "lhs": [list(t) for t in lhs_triples],
            "rhs": [list(t) for t in rhs_triples],
        },
        residual=lift.residual,
        lift=lift,
    )


def check_master_all(reg: GeneratorRegistry) -> list[RelationReport]:
    return [check_master(reg, row) for row in load_master_rows()]


# -- linear independence ------------------------------------------------


NONCENTRAL_LABELS = (
    "Q12",
    "Q23",
    "Q34",
    "Q123",
    "Q234",
    "Q13",
    "Q24",
    "Q14",
    "Q124",
    "Q134",
    "IQ13",
    "IQ24",
    "IQ14",
    "IQ124",
    "IQ134",
)


def check_independence(reg: GeneratorRegistry) -> RelationReport:
    """Exact rank of the fifteen non-central generators, vectorized.

    The generators are block diagonal with truncation-independent
    blocks, so full rank certified on a leading set of weight blocks is
    full rank outright; blocks are added until the rank reaches 15 or
    the truncation is exhausted.

    The rows are the quotient entries (reg.quotient) on the seed columns
    of weight <= cap while the certificate holds, and the generators
    reg[label] restricted to the columns of weight <= cap when it is
    refused.  Both give the same rank at every cap.  Column s of Xbar is
    the remainder of column s of X, and the remainder is linear, so a
    combination of the generators that vanishes on the columns of weight
    <= cap vanishes on their reductions.  Conversely a combination R of
    the fifteen is a polynomial in the certified operators, so Rbar = 0
    on M_w for every w <= cap makes R zero on every column of weight
    <= cap: the theorem of lifting.py is an induction block by block,
    which stops at any cap <= n_max.  So the rank, and the cap at which
    the loop stops, are those of the full rows.
    """
    if reg.params.legs != 4:
        raise ValueError("the fifteen-generator statement needs four legs")
    if reg.params.n_max < 2:
        raise ValueError("rank check needs n_max >= 2")
    basis = reg.basis
    n = len(basis)
    full = len(NONCENTRAL_LABELS)

    def rank_of(gens, cols):
        rows = []
        for label in NONCENTRAL_LABELS:
            op = gens[label].restricted(cols)
            # integer numerators: dropping the row's den keeps the rank
            rows.append({i * n + j: v for j, col in op.cols.items() for i, v in col.items()})
        return fraction_free_rank(rows)

    gens = reg if reg.quotient is None else reg.quotient
    cap = min(2, basis.n_max)
    while True:
        rank = rank_of(gens, range(0, basis.weight_block(cap).stop))
        if rank == full or cap == basis.n_max:
            break
        cap += 1
    ok = rank == full
    return RelationReport(
        id="independence/rank",
        kind="linear-independence",
        inputs={"labels": list(NONCENTRAL_LABELS), "certified_at_weight": cap},
        status="pass" if ok else "fail",
        residual_summary={
            "nonzero_entries": 0 if ok else 1,
            "sample": None,
            "note": f"rank {rank} of {full}",
        },
    )


# -- spectra ------------------------------------------------------------


def check_spectra(reg: GeneratorRegistry) -> list[RelationReport]:
    """Annihilating polynomial of every interval Casimir on every
    weight block, each interval's blocks decided at once (spectra.py)."""
    out = []
    for lo, hi in consecutive_subsets(reg.params.legs):
        op = reg[label_of_subset(range(lo, hi + 1))]
        out.extend(spectrum_reports(reg.params, (lo, hi), range(reg.params.n_max + 1), op))
    return out
