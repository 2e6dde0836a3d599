"""Labeled generator registry and the one evaluator of its relations.

Generators are named by the set of tensor legs they couple: "Q12" is
the intermediate Casimir of legs {1,2}, "Q0" the constant -identity,
and non-consecutive leg sets ("Q13", "Q24", "Q14", "Q124", "Q134") are
derived generators built from q-commutators of consecutive ones.  Each
derived generator has an involuted partner ("IQ13", ...) defined by the
same formula with the q-commutator arguments swapped.

The involution itself (q -> q^-1 together with swapping raising and
lowering operators) fixes every consecutive-interval Casimir, so on
labels it only toggles the I prefix of the derived generators, and it
reverses nothing: applying it to a product means applying it factor by
factor in unchanged order.

Relations are data: a rational combination of terms (c, X) and
(c, X, Y), each factor a label or a nested tuple of terms, which a
label table evaluates with Generators.combine; bracket gives the two
terms of a q-commutator, and derived_terms those of a derived
generator.  A registry holds Q0 and the interval Casimirs, and builds a
derived generator from them by its terms when it is first used.  It
keeps two such tables: the full one, and the quotient one
(GeneratorRegistry.quotient), whose held entries are reduced onto
M_w = block_w / Delta(E)(block_(w-1)), with the seeds as basis.  The
reduction is an algebra homomorphism on the operators that commute with
Delta(E), so the quotient's derived generators are the reductions of
the full ones; lifting.py states the quotient and the separation proof
by which a residual zero on the quotient is zero
(GeneratorRegistry.residual).
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .exactnum import ONE, inverse
from .lifting import is_scalar, quotient_table, seed_states
from .sparse import SparseOperator
from .uqrep import RepParams, casimir, interval_ops, predicted_eigenvalues

# q-commutator pairs and subtracted products defining the derived
# generators; the involuted partner swaps the pair, keeps the rest.
DERIVED_DEFS = {
    "Q13": (("Q12", "Q23"), (("Q1", "Q3"), ("Q2", "Q123"))),
    "Q24": (("Q23", "Q34"), (("Q2", "Q4"), ("Q3", "Q234"))),
    "Q124": (("Q34", "Q123"), (("Q12", "Q4"), ("Q3", "Q1234"))),
    "Q14": (("Q123", "Q234"), (("Q1", "Q4"), ("Q23", "Q1234"))),
    "Q134": (("Q234", "Q12"), (("Q1", "Q34"), ("Q2", "Q1234"))),
}

# canonical external ordering of the labels (reports, CLI, DOT)
CANONICAL_ORDER = (
    "Q0",
    "Q1",
    "Q2",
    "Q3",
    "Q4",
    "Q12",
    "Q23",
    "Q34",
    "Q123",
    "Q234",
    "Q1234",
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


def label_of_subset(subset, flipped: bool = False) -> str:
    """Canonical label of a nonempty leg subset; () names Q0."""
    digits = "".join(str(i) for i in sorted(subset))
    return ("IQ" if flipped else "Q") + (digits or "0")


def subset_of_label(label: str) -> tuple[int, ...]:
    body = label[2:] if label.startswith("IQ") else label[1:]
    if body == "0":
        return ()
    return tuple(int(c) for c in body)


def is_flipped(label: str) -> bool:
    return label.startswith("IQ")


def is_consecutive(subset) -> bool:
    """True for leg sets forming one unbroken run (Casimir labels)."""
    s = sorted(subset)
    return bool(s) and s[-1] - s[0] + 1 == len(s)


def involution(label: str) -> str:
    """Image of a labeled generator under q -> q^-1, E <-> F.

    Interval Casimirs and Q0 are fixed; derived generators trade their
    I prefix.
    """
    subset = subset_of_label(label)
    if not subset or is_consecutive(subset):
        return label
    return label_of_subset(subset, flipped=not is_flipped(label))


def involute_monomial(labels) -> tuple[str, ...]:
    """Involution of a product, factor by factor, order preserved."""
    return tuple(involution(x) for x in labels)


# A run's suites use a handful of (q, c); typed, so that 1 and
# Fraction(1) keep their own coefficients.
@lru_cache(maxsize=32, typed=True)
def _bracket_coefficients(q, c) -> tuple:
    return c * q, -c * inverse(q)


def bracket(q, a, b, c=1) -> tuple:
    """The two terms of c [a, b]_q = c (q a b - q^-1 b a) for factors a
    and b (Generators.combine); q = 1 gives the commutator c [a, b]."""
    cq, cqinv = _bracket_coefficients(q, c)
    return ((cq, a, b), (cqinv, b, a))


def derived_terms(label: str, q) -> tuple:
    """The terms of the derived generator label:

        Q^(B) = (1/(q-q^-1)) [Q^(L), Q^(R)]_q  -  products of Casimirs

    per DERIVED_DEFS, with L and R swapped for the involuted partner."""
    (left, right), subs = DERIVED_DEFS[label.removeprefix("I")]
    if is_flipped(label):
        left, right = right, left
    return (*bracket(q, left, right, inverse(q - inverse(q))), *((-1, a, b) for a, b in subs))


class Generators(dict):
    """label -> operator on params.basis: the entries held, and each
    derived label not held built from its derived_terms on its first
    lookup and kept."""

    def __init__(self, params: RepParams, held: dict):
        super().__init__(held)
        self.q = params.q
        self.basis = params.basis

    def __missing__(self, label: str) -> SparseOperator:
        if label.removeprefix("I") not in DERIVED_DEFS:
            raise KeyError(label)
        op = self[label] = self.combine(derived_terms(label, self.q))
        return op

    def combine(self, terms) -> SparseOperator:
        """sum c X + sum c X Y over terms (c, X) and (c, X, Y), in one
        SparseOperator.lincomb.  A factor is a label of this table, or a
        nested tuple of terms: one lincomb of its own, evaluated once per
        call however many terms hold that tuple.  It may also be an
        operator, taken as it is, for the three-leg linearized aw3 pair,
        which forms its products through GeneratorRegistry.product.  No
        terms give the zero operator with no lincomb."""
        if not terms:
            return SparseOperator.zero(self.basis)
        return self._evaluate(terms, {})

    def _evaluate(self, terms, done: dict) -> SparseOperator:
        """combine, with done the nested tuples evaluated so far, by id.
        A method, since a recursive closure would form a reference cycle
        that keeps the intermediates alive after the call."""
        resolved = []
        for c, *factors in terms:
            ops = []
            for x in factors:
                if isinstance(x, str):
                    x = self[x]
                elif isinstance(x, tuple):
                    if id(x) not in done:
                        done[id(x)] = self._evaluate(x, done)
                    x = done[id(x)]
                ops.append(x)
            resolved.append((c, *ops))
        return SparseOperator.lincomb(self.basis, resolved)


def _available(label: str, held) -> bool:
    """label is held, or derived from held labels alone."""
    if label in held:
        return True
    base = label.removeprefix("I")
    if base not in DERIVED_DEFS:
        return False
    (left, right), subs = DERIVED_DEFS[base]
    return {left, right, *(x for pair in subs for x in pair)} <= held.keys()


class Lifted(NamedTuple):
    """A residual with the number of its columns that were computed and
    whether the quotient certificate held (GeneratorRegistry.residual)."""

    residual: SparseOperator
    columns: int
    certified: bool


class GeneratorRegistry:
    """All labeled generators of the realization named by params, on
    params.basis: the entries of table, and the derived generators
    table lacks, built from them on first use (Generators).  Its
    quotient and central rule cover the weights <= params.n_max."""

    def __init__(self, params: RepParams, table: dict):
        self.params = params
        self.basis = params.basis
        self.held = dict(table)
        self._full = Generators(params, table)
        self._labels = tuple(x for x in CANONICAL_ORDER if _available(x, self.held))
        # the commutation table (commutes): unordered label pair -> its
        # zero commutator's record, and the pairs found not to commute
        self._commuting = {}
        self._noncommuting = set()

    def __getitem__(self, label: str) -> SparseOperator:
        if label not in self._labels:
            raise KeyError(f"no generator {label!r} at legs={self.params.legs}")
        return self._full[label]

    def __contains__(self, label: str) -> bool:
        return label in self._labels

    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def table(self) -> dict:
        """Every generator, label -> operator; the derived ones not yet
        built are built now."""
        return {x: self[x] for x in self._labels}

    def product(self, la: str, lb: str) -> SparseOperator:
        """self[la] * self[lb]."""
        return self[la] * self[lb]

    def commutator_of(self, la: str, lb: str) -> Lifted:
        """[self[la], self[lb]] as the record residual gives it.

        Two rules answer a pair with the zero record of no terms,
        unevaluated: a label in central (the corollary of central
        commutators in lifting.py), and the commutant closure (the
        corollary of that name, _closed).  Every other pair is evaluated
        and entered in the commutation table, in either order, since
        [b, a] = -[a, b]: a zero with its record, which answers the pair
        from then on, a nonzero as the pair alone, so a pair known not
        to commute is evaluated again.
        """
        for label in (la, lb):
            if label not in self._labels:
                raise KeyError(f"no generator {label!r} at legs={self.params.legs}")
        pair = frozenset((la, lb))
        if pair in self._commuting:
            return self._commuting[pair]
        ruled = not self.central.isdisjoint(pair) or self._closed(la, lb) or self._closed(lb, la)
        lift = self.residual(() if ruled else bracket(1, la, lb))
        if lift.residual.is_zero():
            self._commuting[pair] = lift
        else:
            self._noncommuting.add(pair)
        return lift

    def commutes(self, la: str, lb: str) -> bool:
        """[self[la], self[lb]] = 0, answered from the commutation table
        when the pair is in it (commutator_of returns a zero record
        unevaluated); a pair still unknown is decided by commutator_of,
        which enters it."""
        if frozenset((la, lb)) in self._noncommuting:
            return False
        return self.commutator_of(la, lb).residual.is_zero()

    def _closed(self, x: str, y: str) -> bool:
        """x is a derived generator and y commutes with every label of
        its DERIVED_DEFS entry, by a recorded zero or the central rule,
        so [x, y] = 0 (the commutant closure of lifting.py)."""
        base = x.removeprefix("I")
        if base not in DERIVED_DEFS:
            return False
        (left, right), subs = DERIVED_DEFS[base]
        central, known = self.central, self._commuting
        # a label commutes with itself
        return all(
            c == y or c in central or frozenset((c, y)) in known
            for c in (left, right, *(c for pair in subs for c in pair))
        )

    @cached_property
    def quotient(self):
        """The quotient table, checked once: label -> Xbar on the seeds
        (no quanta on leg 1) of weight <= n_max, the held entries reduced
        (lifting.quotient_table) and the derived ones built from them on
        first use; None when the certificate (i)-(v) of lifting.py fails
        for the held entries, the total Delta(E), the total Casimir and
        the total interval's predicted eigenvalues."""
        p = self.params
        total = (1, p.legs)
        held = quotient_table(
            self.held,
            label_of_subset(range(1, p.legs + 1)),
            interval_ops(p, total)["E"],
            predicted_eigenvalues(p, total, p.n_max),
        )
        return None if held is None else Generators(p, held)

    @cached_property
    def central(self) -> frozenset:
        """The labels of the corollary of central commutators in
        lifting.py, named by the certificate: the total label, whose
        reduction is lambda_w on M_w by (iv), and every held label whose
        operator is sigma times the identity (lifting.is_scalar); empty
        when the certificate is refused."""
        if self.quotient is None:
            return frozenset()
        total = label_of_subset(range(1, self.params.legs + 1))
        return frozenset({total, *(x for x, op in self.held.items() if is_scalar(op))})

    @cached_property
    def _seed_count(self) -> int:
        return sum(len(seed_states(self.basis, w)) for w in range(self.params.n_max + 1))

    def residual(self, terms) -> Lifted:
        """The residual given by terms (Generators.combine), a polynomial
        in this registry's generators.

        When the certificate holds, the terms are evaluated on the
        quotient table first, and a zero there is zero on every column
        by the theorem of lifting.py.  Otherwise, or when the quotient
        leaves a nonzero residual, they are evaluated on the full table,
        so the residual returned is always the whole one.
        """
        quotient = self.quotient
        if quotient is not None:
            out = quotient.combine(terms)
            if out.is_zero():
                return Lifted(out, self._seed_count, True)
        return Lifted(self._full.combine(terms), len(self.basis), quotient is not None)

    def combine(self, terms) -> SparseOperator:
        """terms (Generators.combine) evaluated on the full table, with
        no quotient and no record."""
        return self._full.combine(terms)

    def restricted(self, max_weight: int) -> GeneratorRegistry | None:
        """The same realization with every held generator restricted to
        the columns of weight <= max_weight, and the derived ones built
        from those; None when a held generator is not of weight degree 0.

        Sound when every generator has weight degree 0, i.e. is block
        diagonal in the graded basis: a degree-0 operator maps the
        columns of weight <= max_weight into themselves, so for degree-0
        A, B the restriction of A B is (A restricted) (B restricted),
        and sums and scalings commute with restriction.  Every product
        and every residual built from the restricted generators is
        therefore the restriction of the one built from the full
        generators, so a nonzero restricted residual proves a nonzero
        full residual.  Blocks do not depend on the truncation either,
        so this equals the realization at n_max = max_weight.

        Its quotient is this registry's, restricted to the seed columns
        of weight <= max_weight, or None when this registry's
        certificate is refused; it never certifies one of its own.  A
        zero there is a zero of the restricted residual R: a reduction's
        column depends only on that column of X and on Delta(E)
        (lifting.remainder), so the restricted entries are the
        reductions of the restricted generators and their polynomial is
        Rbar on M_w for w <= max_weight; and the theorem of lifting.py
        is an induction block by block, so Rbar = 0 there gives R = 0 on
        the columns of weight <= max_weight.  Its central labels are this
        registry's: restriction keeps products of degree-0 operators, so
        a zero commutator restricts to a zero one.  Its Lifted counts are
        those of the full registry and are never reported.
        """
        if any(op.degree != 0 for op in self.held.values()):
            return None
        cols = range(0, self.basis.weight_block(max_weight).stop)
        sub = GeneratorRegistry(self.params, {x: op.restricted(cols) for x, op in self.held.items()})
        quotient = self.quotient
        sub.quotient = None if quotient is None else Generators(
            self.params, {x: quotient[x].restricted(cols) for x in self.held}
        )
        sub.central = self.central
        return sub


def consecutive_subsets(legs: int):
    """All consecutive leg runs as (lo, hi) intervals, by size then lo."""
    return [
        (lo, hi)
        for size in range(1, legs + 1)
        for lo in range(1, legs - size + 2)
        for hi in [lo + size - 1]
    ]


def nonempty_subsets(legs: int):
    items = range(1, legs + 1)
    for r in range(1, legs + 1):
        yield from combinations(items, r)


# Two entries are the working set of one verify run: the realization
# and its three-leg sub-realization.  A larger bound keeps more
# registries of a parameter sweep alive at once: at 32 entries the peak
# memory of a 24-configuration sweep rose from 23 to 31 MB.
@lru_cache(maxsize=2)
def build_registry(p: RepParams) -> GeneratorRegistry:
    """The registry of every labeled generator available at p.legs.

    It holds Q0 and the interval Casimir of every consecutive subset;
    with three or more legs the non-consecutive subsets get their
    derived generators (derived_terms), with their involuted partners, when
    first used.  Cached per parameter set: the registry is shared, so
    treat it as read-only.
    """
    table = {"Q0": SparseOperator.identity(p.basis, -ONE)}
    for lo, hi in consecutive_subsets(p.legs):
        table[label_of_subset(range(lo, hi + 1))] = casimir(p, (lo, hi))
    return GeneratorRegistry(p, table)
