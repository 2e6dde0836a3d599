"""Sparse operators with exact rational entries on a truncated basis.

Representation: an operator holds Python int numerators over one
positive common denominator.  Storage is column major: cols[j][i] is
the numerator of the (row i, column j) entry, whose value is
cols[j][i] / den.  Zero numerators are never stored.  Operators are
treated as immutable; all arithmetic returns new instances.

Canonical form: den > 0 and gcd(den, all numerators) = 1, which makes
the stored form of a value unique.  The constructors, every product and
scaling, and every sum or difference of two nonzero operators give
canonical form.  A restricted() view need not be canonical: it shares
its parent's column dicts and keeps the parent's den, so its numerators
may share a factor with den (and adding the zero operator to a view
returns the view).  Equality therefore compares values, cross-multiplying
when the denominators differ.

The arithmetic works on ints only: a product multiplies the two
denominators, a sum brings both sides to the lcm of theirs, and each
result is reduced by one gcd pass over its numerators.  The zero test is
exact, because an entry is zero exactly when its integer numerator is,
and those are never stored: an operator is zero exactly when cols is
empty.  Rational values appear only at the boundaries: the constructor
and diagonal() take rational entries, identity() and scale() rational
scalars, and get(), entries() and nonzero_in_columns() return them.

Each operator carries a weight degree: degree d means every stored
entry maps a weight-w basis state to a weight-(w+d) state (so degree 0
is block diagonal in the graded basis); None means mixed or unknown.
Degrees combine additively under composition and must agree under
addition, which gives a cheap structural audit of every construction.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm

from .exactnum import ONE, Rational


class SparseOperator:
    __slots__ = ("basis", "cols", "degree", "den")

    def __init__(self, basis, cols=None, degree=None):
        """Operator with rational entries cols[j][i] (zeros dropped)."""
        den = 1
        for col in (cols or {}).values():
            for v in col.values():
                den = lcm(den, int(v.denominator))
        self.basis = basis
        self.cols = {}
        for j, col in (cols or {}).items():
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
        c = Rational(scale)
        if not c:
            return cls.zero(basis)
        n = int(c.numerator)
        cols = {j: {j: n} for j in range(len(basis))}
        return cls._raw(basis, cols, 0, int(c.denominator))

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

    def restricted(self, cols: range) -> SparseOperator:
        """The operator with only the columns in the contiguous index
        range cols kept.  Column dicts are shared, not copied, and den
        is kept, so the view need not be in canonical form.

        Weight blocks are contiguous, so basis.weight_block(w) selects
        block w and range(0, basis.weight_block(w).stop) every weight
        <= w.
        """
        mine = self.cols
        kept = {j: mine[j] for j in cols if j in mine}
        return SparseOperator._raw(self.basis, kept, self.degree, self.den)

    # -- ring operations -----------------------------------------------

    def _require_same_basis(self, other):
        if self.basis is not other.basis and self.basis != other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other, sign=1):
        """self + other, or self - other when sign is -1, in one pass."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_basis(other)
        if self.is_zero():
            return other.scale(-ONE) if sign < 0 else other
        if other.is_zero():
            return self
        den = lcm(self.den, other.den)
        fa = den // self.den
        fb = sign * (den // other.den)
        cols = {
            j: {i: v * fa for i, v in col.items()} for j, col in self.cols.items()
        }
        for j, col in other.cols.items():
            acc = cols.get(j)
            if acc is None:
                cols[j] = {i: v * fb for i, v in col.items()}
                continue
            for i, v in col.items():
                w = acc.get(i, 0) + v * fb
                if w:
                    acc[i] = w
                else:
                    del acc[i]
            if not acc:
                del cols[j]
        degree = self.degree if self.degree == other.degree else None
        return SparseOperator._reduced(self.basis, cols, degree, den)

    def __neg__(self):
        return self.scale(-ONE)

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.__add__(other, -1)

    def scale(self, c):
        """c times the operator, for a rational scalar c."""
        if not c:
            return SparseOperator.zero(self.basis)
        num = int(c.numerator)
        cols = {
            j: {i: v * num for i, v in col.items()} for j, col in self.cols.items()
        }
        den = self.den * int(c.denominator)
        return SparseOperator._reduced(self.basis, cols, self.degree, den)

    def __mul__(self, other):
        """Composition with another operator, or scaling by a scalar."""
        if not isinstance(other, SparseOperator):
            return self.scale(other)
        self._require_same_basis(other)
        acols = self.cols
        cols = {}
        for j, bcol in other.cols.items():
            acc = {}
            get = acc.get
            for i, bij in bcol.items():
                acol = acols.get(i)
                if acol is None:
                    continue
                for r, ari in acol.items():
                    acc[r] = get(r, 0) + ari * bij
            acc = {r: v for r, v in acc.items() if v}
            if acc:
                cols[j] = acc
        if self.degree is None or other.degree is None:
            degree = None
        else:
            degree = self.degree + other.degree
        if not cols:
            degree = 0
        den = self.den * other.den
        return SparseOperator._reduced(self.basis, cols, degree, den)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        """Equal bases and the same values; denominators may differ."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
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


def fraction_free_rank(rows) -> int:
    """Exact rank of sparse rational rows (dicts coordinate -> value).

    Rows are scaled integral, then eliminated by fraction-free (Bareiss
    one-step) reduction: every update is

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
