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
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

from .exactnum import ONE, inverse
from .lifting import certified_seeds, commutes_below_top, on_columns
from .sparse import SparseOperator
from .uqrep import RepParams, casimir, interval_ops

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


def commutator(a: SparseOperator, b: SparseOperator, cols=None) -> SparseOperator:
    """[a, b] = a b - b a, or only its columns cols when given."""
    return SparseOperator.lincomb(a.basis, on_columns(((1, a, b), (-1, b, a)), cols))


class Lifted(NamedTuple):
    """A residual with the number of its columns that were computed and
    whether the lift certificate covered it (GeneratorRegistry.lifted)."""

    residual: SparseOperator
    columns: int
    certified: bool


class GeneratorRegistry:
    """All labeled generators of the realization named by params, on
    params.basis."""

    def __init__(self, params: RepParams, table: dict, top: int = None):
        self.params = params
        self.basis = params.basis
        self.table = table
        # every column of weight > top is empty (restricted)
        self.top = params.n_max if top is None else top
        self._width = self.basis.weight_block(self.top).stop
        # unordered label pairs whose commutator is zero; see commutator_of
        self._commuting = set()

    def __getitem__(self, label: str) -> SparseOperator:
        try:
            return self.table[label]
        except KeyError:
            raise KeyError(f"no generator {label!r} at legs={self.params.legs}") from None

    def __contains__(self, label: str) -> bool:
        return label in self.table

    def labels(self) -> tuple[str, ...]:
        return tuple(x for x in CANONICAL_ORDER if x in self.table)

    def product(self, la: str, lb: str) -> SparseOperator:
        """self[la] * self[lb]."""
        return self[la] * self[lb]

    def commutator_of(self, la: str, lb: str) -> SparseOperator:
        """[self[la], self[lb]], evaluated by lifted.

        A pair found to commute is remembered, in either order, since
        [b, a] = -[a, b], and answered with the zero operator from then
        on; nonzero commutators are recomputed, which keeps the memo a
        set of label pairs.
        """
        pair = frozenset((la, lb))
        if pair in self._commuting:
            return SparseOperator.zero(self.basis)
        a, b = self[la], self[lb]
        out = self.lifted(lambda cols: commutator(a, b, cols)).residual
        if out.is_zero():
            self._commuting.add(pair)
        return out

    @cached_property
    def seeds(self):
        """The lift certificate, checked once: the seed columns of
        weight <= top (no quanta on leg 1) when every generator has
        degree 0 and commutes with the total Delta(E) below top and
        every block 1..top is spanned by lifting through it
        (lifting.certified_seeds); None when it fails."""
        return certified_seeds(self.table.values(), self._total_e(), self.top)

    def _total_e(self) -> SparseOperator:
        return interval_ops(self.params, (1, self.params.legs))["E"]

    def lifted(self, evaluate, operands=()) -> Lifted:
        """A residual that is a polynomial in this registry's generators
        and in operands, given as evaluate(cols), its columns cols
        (every column for None).

        When the certificate holds (seeds) and every operand is block
        diagonal and commutes with Delta(E) below top, the residual is
        computed on the seed columns first; a zero there is zero on
        every column by the lemma of lifting.py.  Otherwise, or when
        the seeds leave a nonzero residual, every column is computed,
        so the residual returned is always the whole one.
        """
        seeds = self.seeds
        held = seeds is not None and all(
            commutes_below_top(op, self._total_e(), self.top) for op in operands
        )
        if held:
            out = evaluate(seeds)
            if out.is_zero():
                return Lifted(out, len(seeds), True)
        return Lifted(evaluate(None), self._width, held)

    def lift_record(self, residual: SparseOperator) -> Lifted:
        """The record lifted gives a residual of generators alone: its
        seed columns when the certificate holds and it is zero, every
        column otherwise."""
        seeds = self.seeds
        if seeds is not None and residual.is_zero():
            return Lifted(residual, len(seeds), True)
        return Lifted(residual, self._width, seeds is not None)

    def restricted(self, max_weight: int) -> GeneratorRegistry:
        """The same realization with every generator restricted to the
        columns of weight <= max_weight.

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
        """
        odd = [x for x, op in self.table.items() if op.degree != 0]
        if odd:
            raise ValueError(
                f"cannot restrict by weight: {', '.join(odd)} not of degree 0"
            )
        cols = range(0, self.basis.weight_block(max_weight).stop)
        table = {x: op.restricted(cols) for x, op in self.table.items()}
        return GeneratorRegistry(self.params, table, max_weight)


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
    """Construct every labeled generator available at p.legs.

    Consecutive subsets get their interval Casimir; with three or more
    legs the non-consecutive subsets get their derived generators

        Q^(B) = (1/(q-q^-1)) [Q^(L), Q^(R)]_q  -  products of Casimirs

    per DERIVED_DEFS, together with the involuted partners.  Cached per
    parameter set: the registry is shared, so treat it as read-only.
    """
    q = p.q
    s = q - inverse(q)
    basis = p.basis
    table = {"Q0": SparseOperator.identity(basis, -ONE)}
    for lo, hi in consecutive_subsets(p.legs):
        label = label_of_subset(range(lo, hi + 1))
        table[label] = casimir(p, (lo, hi))
    if p.legs >= 3:
        for base, ((left, right), subs) in DERIVED_DEFS.items():
            needed = {left, right, *(x for pair in subs for x in pair)}
            if not needed <= table.keys():
                continue  # requires legs absent at this rank
            correction = [(-1, table[fa], table[fb]) for fa, fb in subs]
            for name, a, b in ((base, left, right), ("I" + base, right, left)):
                x, y = table[a], table[b]
                table[name] = SparseOperator.lincomb(
                    basis, [(q / s, x, y), (-inverse(q) / s, y, x), *correction]
                )
    return GeneratorRegistry(p, table)
