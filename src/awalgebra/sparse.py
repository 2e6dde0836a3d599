"""Sparse operators with exact rational entries on a truncated basis.

Representation: an operator holds Python int numerators over one
positive common denominator.  Storage is column major: cols[j][i] is
the numerator of the (row i, column j) entry, whose value is
cols[j][i] / den.  Zero numerators are never stored, so an operator is
zero exactly when cols is empty.  Operators are treated as immutable.

Canonical form: den > 0 and gcd(den, all numerators) = 1, which makes
the stored form of a value unique.  The constructors and every result
of arithmetic are canonical.  A restricted() view need not be: it
shares its parent's column dicts and keeps the parent's den, so
equality compares values, cross-multiplying the denominators.

All arithmetic is one kernel, lincomb(), which evaluates sum c A +
sum c A B over scalars c and operators A, B in one pass: the terms go
over one common denominator (the lcm of den(c) den(A) den(B)), each
term's integer multiplier is folded into each nonzero of B once, all
terms accumulate into one dict per column, and one gcd pass ends it.
+, -, scale() and * are single calls of it, and so are the
commutators, coproduct folds, Casimirs and relation residuals, which
thus pay for no intermediate sum, scaling or gcd reduction.

Rational values appear only at the boundaries: the constructor and
diagonal() take rational entries and identity(), scale(), * and
lincomb() rational scalars, all exact (int, Fraction or the backend's
Rational; anything else, floats and bools included, is a TypeError);
get(), entries() and nonzero_in_columns() return rationals.

Each operator carries a weight degree: degree d means every stored
entry maps a weight-w basis state to a weight-(w+d) state (so degree 0
is block diagonal in the graded basis); None means mixed or unknown.
Degrees combine additively under composition and must agree under
addition, which gives a cheap structural audit of every construction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .exactnum import ONE, Rational


_EXACT_TYPES = frozenset((int, Fraction, Rational))


def _exact(c):
    """(numerator, denominator) of an exact rational scalar or entry as
    ints.  An int, or a Fraction of int parts, by exact type, gives its
    parts as they are; anything else takes the checked path."""
    t = type(c)
    if t is int:
        return c, 1
    if t is Fraction:
        n, d = c.numerator, c.denominator
        if type(n) is int and type(d) is int:  # a Fraction may hold other Integrals
            return n, d
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, Rational)):
        raise TypeError(f"expected an exact rational, got {c!r}")
    return int(c.numerator), int(c.denominator)


class SparseOperator:
    __slots__ = ("basis", "cols", "degree", "den")

    def __init__(self, basis, cols=None, degree=None):
        """Operator with exact rational entries cols[j][i] (zeros
        dropped); any other entry, a float or a bool included, is a
        TypeError."""
        cols = cols or {}
        for col in cols.values():
            for v in col.values():
                if type(v) not in _EXACT_TYPES:  # one set lookup per entry
                    _exact(v)  # TypeError unless v subclasses an exact type
        den = lcm(1, *(int(v.denominator) for col in cols.values() for v in col.values()))
        self.basis = basis
        self.cols = {}
        for j, col in cols.items():
            nums = {
                i: int(v.numerator) * (den // int(v.denominator))
                for i, v in col.items()
                if v
            }
            if nums:
                self.cols[j] = nums
        self.degree = degree
        # den is the lcm of the reduced denominators: already canonical
        self.den = den

    @classmethod
    def _raw(cls, basis, cols, degree, den):
        """Operator from int numerators over den, stored as given."""
        op = cls.__new__(cls)
        op.basis, op.cols, op.degree, op.den = basis, cols, degree, den
        return op

    @classmethod
    def _reduced(cls, basis, cols, degree, den):
        """Operator from nonzero int numerators over den > 0, brought to
        canonical form.  cols must be fresh: it is divided in place."""
        g = gcd(den, *chain.from_iterable(map(dict.values, cols.values())))
        if g != 1:
            for col in cols.values():
                for i in col:
                    col[i] //= g
            den //= g
        return cls._raw(basis, cols, degree, den)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, basis):
        return cls._raw(basis, {}, 0, 1)

    @classmethod
    def identity(cls, basis, scale=ONE):
        n, d = _exact(scale)
        if not n:
            return cls.zero(basis)
        return cls._raw(basis, {j: {j: n} for j in range(len(basis))}, 0, d)

    @classmethod
    def diagonal(cls, basis, entry):
        """Diagonal operator with entry(j) at position (j, j)."""
        return cls(basis, {j: {j: entry(j)} for j in range(len(basis))}, 0)

    # -- inspection ----------------------------------------------------

    def get(self, i, j):
        return Rational(self.cols.get(j, {}).get(i, 0), self.den)

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def entries(self):
        """Deterministic (row, col, value) iteration, column major."""
        den = self.den
        for j in sorted(self.cols):
            col = self.cols[j]
            for i in sorted(col):
                yield i, j, Rational(col[i], den)

    def nonzero_in_columns(self):
        """(count, sample) of stored entries.  sample is a text rendering
        of one offending entry, or None."""
        count = 0
        sample = None
        for j in sorted(self.cols):
            col = self.cols[j]
            count += len(col)
            if sample is None and col:
                i = min(col)
                sample = f"[{i},{j}] = {Rational(col[i], self.den)}"
        return count, sample

    def restricted(self, cols) -> SparseOperator:
        """The operator with only the columns cols (an index range or
        any iterable of indices) kept.  Column dicts are shared, not
        copied, and den is kept, so the view need not be in canonical
        form.

        Weight blocks are contiguous, so basis.weight_block(w) selects
        block w and range(0, basis.weight_block(w).stop) every weight
        <= w.
        """
        mine = self.cols
        kept = {j: mine[j] for j in cols if j in mine}
        return SparseOperator._raw(self.basis, kept, self.degree, self.den)

    # -- ring operations -----------------------------------------------

    @classmethod
    def lincomb(cls, basis, terms) -> SparseOperator:
        """sum c A + sum c A B over terms (c, A) and (c, A, B), for exact
        rational c and operators on basis, in one pass (module doc).

        Zero terms are skipped; the degree is the terms' common degree,
        None when they differ, and 0 when the result is zero.
        """
        live = []
        degrees = set()
        den = 1
        for c, *ops in terms:
            num, tden = _exact(c)
            if len(ops) not in (1, 2):
                raise ValueError("a term is (c, A) or (c, A, B)")
            for op in ops:
                if op.basis is not basis and op.basis != basis:
                    raise ValueError("operators live on different bases")
            if not num or not all(op.cols for op in ops):
                continue
            deg = 0
            for op in ops:
                tden *= op.den
                deg = None if deg is None or op.degree is None else deg + op.degree
            den = lcm(den, tden)
            live.append((num, tden, ops))
            degrees.add(deg)
        cols = {}
        for num, tden, ops in live:
            m = num * (den // tden)
            if len(ops) == 1:
                for j, acol in ops[0].cols.items():
                    acc = cols.get(j)
                    if acc is None:
                        cols[j] = {i: v * m for i, v in acol.items()}
                        continue
                    get = acc.get
                    for i, v in acol.items():
                        acc[i] = get(i, 0) + v * m
                continue
            a, b = ops
            acols = a.cols
            for j, bcol in b.cols.items():
                acc = cols.get(j)
                if acc is None:
                    acc = cols[j] = {}
                get = acc.get
                for i, bij in bcol.items():
                    acol = acols.get(i)
                    if acol is None:
                        continue
                    f = bij * m
                    for r, ari in acol.items():
                        acc[r] = get(r, 0) + ari * f
        for j, acc in list(cols.items()):  # drop cancelled entries in place;
            # the scan in C passes over most columns, which hold none
            if 0 in acc.values() or not acc:
                for i in [i for i, v in acc.items() if not v]:
                    del acc[i]
                if not acc:
                    del cols[j]
        degree = 0 if not cols else degrees.pop() if len(degrees) == 1 else None
        return cls._reduced(basis, cols, degree, den)

    def __add__(self, other, sign=1):
        """self + other, or self - other when sign is -1."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return SparseOperator.lincomb(self.basis, ((1, self), (sign, other)))

    def __neg__(self):
        return self.scale(-ONE)

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.__add__(other, -1)

    def scale(self, c):
        """c times the operator, for an exact rational scalar c."""
        return SparseOperator.lincomb(self.basis, ((c, self),))

    def __mul__(self, other):
        """Composition with another operator, or scaling by a scalar."""
        if not isinstance(other, SparseOperator):
            return self.scale(other)
        return SparseOperator.lincomb(self.basis, ((1, self, other),))

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        """Equal bases and the same values; denominators may differ."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if self is other:
            return True
        if self.basis is not other.basis and self.basis != other.basis:
            return False
        da, db = self.den, other.den
        ocols = other.cols
        if self.cols.keys() != ocols.keys():
            return False
        for j, col in self.cols.items():
            ocol = ocols[j]
            if col.keys() != ocol.keys():
                return False
            if any(v * db != ocol[i] * da for i, v in col.items()):
                return False
        return True


# The Mersenne prime 2^61 - 1: fraction_free_rank's modular pass.
RANK_PRIME = (1 << 61) - 1


def rank_mod_prime(rows) -> int:
    """Rank mod p = RANK_PRIME of integer rows (dicts coordinate ->
    int), taken over the columns, which are short when the rows are
    few: each column, a dict row index -> value, is reduced against the
    pivot columns kept so far, led by its smallest live row index, and
    kept, normalized, when anything is left.  It stops once every row
    has a pivot."""
    p = RANK_PRIME
    cols = {}
    for k, row in enumerate(rows):
        for c, v in row.items():
            if x := v % p:
                cols.setdefault(c, {})[k] = x
    pivots = {}
    for c in sorted(cols):
        if len(pivots) == len(rows):
            break
        r = cols[c]
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {k: v * inv % p for k, v in r.items()}
                break
            f = r[lead]
            for k, v in pivot.items():
                x = (r.get(k, 0) - f * v) % p
                if x:
                    r[k] = x
                else:
                    r.pop(k, None)
    return len(pivots)


def fraction_free_rank(rows) -> int:
    """Exact rank of sparse rational rows (dicts coordinate -> value).

    Rows are scaled integral, then eliminated mod RANK_PRIME.  The rank
    mod a prime is at most the rational rank (a minor that vanishes
    over the integers vanishes mod p), so a modular rank equal to the
    number of nonzero rows is the rank outright.  Otherwise the integer
    rows are eliminated by fraction-free (Bareiss one-step) reduction:
    every update is

        new = (pivot * row - row[pivot_col] * pivot_row) / previous_pivot

    with all divisions exact, so intermediate entries stay integers of
    bounded size and the result is exact.  Pivoting is deterministic:
    smallest live coordinate, then sparsest candidate row.
    """
    work = []
    for row in rows:
        if not row:
            continue
        scale = 1
        for v in row.values():
            d = int(v.denominator)
            scale = scale // gcd(scale, d) * d
        work.append({c: int(v * scale) for c, v in row.items()})
    if rank_mod_prime(work) == len(work):
        return len(work)
    prev = 1
    rank = 0
    while work:
        pivot_col = min(min(r) for r in work)
        candidates = [i for i, r in enumerate(work) if pivot_col in r]
        pick = min(candidates, key=lambda i: (len(work[i]), i))
        pivot_row = work.pop(pick)
        pv = pivot_row[pivot_col]
        nxt = []
        for r in work:
            a = r.get(pivot_col)
            if a is None:
                nr = {c: pv * v // prev for c, v in r.items()}
            else:
                nr = {}
                for c in r.keys() | pivot_row.keys():
                    v = pv * r.get(c, 0) - a * pivot_row.get(c, 0)
                    if v:
                        nr[c] = v // prev
            if nr:
                nxt.append(nr)
        work = nxt
        prev = pv
        rank += 1
    return rank
