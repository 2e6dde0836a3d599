"""Labeled generator registry and operator-level algebra helpers.

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

A registry holds Q0 and the interval Casimirs, and builds a derived
generator from them by its DERIVED_DEFS formula when it is first used.
It keeps two such tables: the full one, and the quotient one
(GeneratorRegistry.quotient), whose held entries are reduced onto
M_w = block_w / Delta(E)(block_(w-1)), with the seeds as basis.  The
reduction is an algebra homomorphism on the operators that commute with
Delta(E), so the quotient's derived generators are the reductions of
the full ones; lifting.py states the quotient and the separation proof
by which a residual zero on the quotient is zero.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .exactnum import ONE, inverse
from .lifting import block_scalar, quotient_table, seed_states
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


def q_commutator(q, a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """[a, b]_q = q a b - q^-1 b a."""
    return SparseOperator.lincomb(a.basis, ((q, a, b), (-inverse(q), b, a)))


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """[a, b] = a b - b a."""
    return SparseOperator.lincomb(a.basis, ((1, a, b), (-1, b, a)))


def derive(gens, label: str, q) -> SparseOperator:
    """The derived generator label from the generators gens (label ->
    operator) it is built of:

        Q^(B) = (1/(q-q^-1)) [Q^(L), Q^(R)]_q  -  products of Casimirs

    per DERIVED_DEFS, with L and R swapped for the involuted partner."""
    (left, right), subs = DERIVED_DEFS[label.removeprefix("I")]
    if is_flipped(label):
        left, right = right, left
    s = q - inverse(q)
    x, y = gens[left], gens[right]
    return SparseOperator.lincomb(
        x.basis,
        [(q / s, x, y), (-inverse(q) / s, y, x), *((-1, gens[a], gens[b]) for a, b in subs)],
    )


class Generators(dict):
    """label -> operator: the entries held, and each derived label not
    held built by derive on its first lookup and kept."""

    def __init__(self, held: dict, q):
        super().__init__(held)
        self.q = q

    def __missing__(self, label: str) -> SparseOperator:
        if label.removeprefix("I") not in DERIVED_DEFS:
            raise KeyError(label)
        op = self[label] = derive(self, label, self.q)
        return op


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
    whether the quotient certificate held (GeneratorRegistry.lifted)."""

    residual: SparseOperator
    columns: int
    certified: bool


class GeneratorRegistry:
    """All labeled generators of the realization named by params, on
    params.basis: the entries of table, and the derived generators
    table lacks, built from them on first use (Generators)."""

    def __init__(self, params: RepParams, table: dict, top: int = None):
        self.params = params
        self.basis = params.basis
        self.held = dict(table)
        self._full = Generators(table, params.q)
        self._labels = tuple(x for x in CANONICAL_ORDER if _available(x, self.held))
        # every column of weight > top is empty (restricted)
        self.top = params.n_max if top is None else top
        self._width = self.basis.weight_block(self.top).stop
        # unordered label pair -> its zero commutator's record; see commutator_of
        self._commuting = {}

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
        """[self[la], self[lb]] as the record lifted gives it.

        A pair with a label in central commutes by the corollary of
        lifting.py and gets the zero record unevaluated.  A pair found to
        commute is remembered with its record, in either order, since
        [b, a] = -[a, b], and gets that record from then on; nonzero
        commutators are recomputed, which keeps the memo to zero
        records.
        """
        for label in (la, lb):
            if label not in self._labels:
                raise KeyError(f"no generator {label!r} at legs={self.params.legs}")
        pair = frozenset((la, lb))
        if pair in self._commuting:
            return self._commuting[pair]
        if self.central.isdisjoint(pair):
            lift = self.lifted(lambda gens: commutator(gens[la], gens[lb]))
        else:
            lift = self.lifted(lambda gens: SparseOperator.zero(self.basis))
        if lift.residual.is_zero():
            self._commuting[pair] = lift
        return lift

    @cached_property
    def quotient(self):
        """The quotient table, checked once: label -> Xbar on the seeds
        (no quanta on leg 1) of weight <= top, the held entries reduced
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
            predicted_eigenvalues(p, total, self.top),
        )
        return None if held is None else Generators(held, p.q)

    @cached_property
    def central(self) -> frozenset:
        """The held labels whose quotient entry is block scalar
        (lifting.block_scalar); empty when the certificate fails."""
        quotient = self.quotient
        if quotient is None:
            return frozenset()
        return frozenset(x for x in self.held if block_scalar(quotient[x], self.top))

    @cached_property
    def _seed_count(self) -> int:
        return sum(len(seed_states(self.basis, w)) for w in range(self.top + 1))

    def lifted(self, evaluate) -> Lifted:
        """A residual that is a polynomial in this registry's generators,
        given as evaluate(gens) for a label -> operator table gens.

        When the certificate holds, evaluate runs on the quotient table
        first, and a zero there is zero on every column by the theorem
        of lifting.py.  Otherwise, or when the quotient leaves a nonzero
        residual, it runs on the full table, so the residual returned is
        always the whole one.
        """
        quotient = self.quotient
        if quotient is not None:
            out = evaluate(quotient)
            if out.is_zero():
                return Lifted(out, self._seed_count, True)
        return Lifted(evaluate(self._full), self._width, quotient is not None)

    def restricted(self, max_weight: int) -> GeneratorRegistry:
        """The same realization with every held generator restricted to
        the columns of weight <= max_weight, and the derived ones built
        from those.

        Sound because every generator has weight degree 0, i.e. is block
        diagonal in the graded basis: a degree-0 operator maps the
        columns of weight <= max_weight into themselves, so for degree-0
        A, B the restriction of A B is (A restricted) (B restricted),
        and sums and scalings commute with restriction.  Every product
        and every residual built from the restricted generators is
        therefore the restriction of the one built from the full
        generators, so a nonzero restricted residual proves a nonzero
        full residual.  Blocks do not depend on the truncation either,
        so this equals the realization at n_max = max_weight.

        When this registry's quotient is already built and certified and
        max_weight <= top, the restricted registry takes its held
        quotient entries restricted to the seed columns of weight <=
        max_weight instead of certifying a quotient of its own.  That is
        the quotient it would certify: each of (i)-(v) of lifting.py is
        checked block by block, on the columns, seeds and eigenvalues of
        weight <= top, and the restricted entries equal these entries on
        the columns of weight <= max_weight, so the conditions at top =
        max_weight are a subset of those that held here.  A reduction's
        column depends only on that column of X and on Delta(E)
        (lifting.remainder), so the restricted Xbar is Xbar restricted.
        """
        odd = [x for x, op in self.held.items() if op.degree != 0]
        if odd:
            raise ValueError(
                f"cannot restrict by weight: {', '.join(odd)} not of degree 0"
            )
        cols = range(0, self.basis.weight_block(max_weight).stop)
        table = {x: op.restricted(cols) for x, op in self.held.items()}
        sub = GeneratorRegistry(self.params, table, max_weight)
        quotient = self.__dict__.get("quotient")
        if quotient is not None and max_weight <= self.top:
            held = {x: quotient[x].restricted(cols) for x in self.held}
            sub.quotient = Generators(held, self.params.q)
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
    derived generators (derive), with their involuted partners, when
    first used.  Cached per parameter set: the registry is shared, so
    treat it as read-only.
    """
    table = {"Q0": SparseOperator.identity(p.basis, -ONE)}
    for lo, hi in consecutive_subsets(p.legs):
        table[label_of_subset(range(lo, hi + 1))] = casimir(p, (lo, hi))
    return GeneratorRegistry(p, table)
