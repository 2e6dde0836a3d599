"""Sparse operators with exact rational entries on a truncated basis.

Storage is column major: cols[j][i] holds the (row i, column j) entry,
and zeros are never stored, so an operator is the zero operator exactly
when cols is empty.  Operators are treated as immutable; all arithmetic
returns new instances.

Each operator carries a weight degree: degree d means every stored
entry maps a weight-w basis state to a weight-(w+d) state (so degree 0
is block diagonal in the graded basis); None means mixed or unknown.
Degrees combine additively under composition and must agree under
addition, which gives a cheap structural audit of every construction.
"""

from __future__ import annotations

from math import gcd

from .exactnum import ONE, Rational


class SparseOperator:
    __slots__ = ("basis", "cols", "degree")

    def __init__(self, basis, cols=None, degree=None):
        self.basis = basis
        self.cols = cols if cols is not None else {}
        self.degree = degree

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, basis):
        return cls(basis, {}, 0)

    @classmethod
    def identity(cls, basis, scale=ONE):
        c = Rational(scale)
        if not c:
            return cls.zero(basis)
        return cls(basis, {j: {j: c} for j in range(len(basis))}, 0)

    @classmethod
    def diagonal(cls, basis, entry):
        """Diagonal operator with entry(j) at position (j, j)."""
        cols = {}
        for j in range(len(basis)):
            v = entry(j)
            if v:
                cols[j] = {j: v}
        return cls(basis, cols, 0)

    # -- inspection ----------------------------------------------------

    def get(self, i, j):
        return self.cols.get(j, {}).get(i, Rational(0))

    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def is_zero(self) -> bool:
        return not self.cols

    def entries(self):
        """Deterministic (row, col, value) iteration, column major."""
        for j in sorted(self.cols):
            col = self.cols[j]
            for i in sorted(col):
                yield i, j, col[i]

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
                sample = f"[{i},{j}] = {col[i]}"
        return count, sample

    def restricted(self, cols: range) -> SparseOperator:
        """The operator with only the columns in the contiguous index
        range cols kept.  Column dicts are shared, not copied.

        Weight blocks are contiguous, so basis.weight_block(w) selects
        block w and range(0, basis.weight_block(w).stop) every weight
        <= w.
        """
        mine = self.cols
        kept = {j: mine[j] for j in cols if j in mine}
        return SparseOperator(self.basis, kept, self.degree)

    # -- ring operations -----------------------------------------------

    def _require_same_basis(self, other):
        if self.basis is not other.basis:
            raise ValueError("operators live on different bases")

    def __add__(self, other, sign=1):
        """self + other, or self - other when sign is -1, in one pass."""
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_basis(other)
        neg = sign < 0
        if self.is_zero():
            return other.scale(-ONE) if neg else other
        if other.is_zero():
            return self
        cols = {j: dict(col) for j, col in self.cols.items()}
        for j, col in other.cols.items():
            acc = cols.get(j)
            if acc is None:
                cols[j] = {i: -v for i, v in col.items()} if neg else dict(col)
                continue
            for i, v in col.items():
                w = acc.get(i)
                if w is None:
                    acc[i] = -v if neg else v
                else:
                    w = w - v if neg else w + v
                    if w:
                        acc[i] = w
                    else:
                        del acc[i]
            if not acc:
                del cols[j]
        degree = self.degree if self.degree == other.degree else None
        return SparseOperator(self.basis, cols, degree)

    def __neg__(self):
        return self.scale(-ONE)

    def __sub__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.__add__(other, -1)

    def scale(self, c):
        if not c:
            return SparseOperator.zero(self.basis)
        cols = {
            j: {i: c * v for i, v in col.items()} for j, col in self.cols.items()
        }
        return SparseOperator(self.basis, cols, self.degree)

    def __mul__(self, other):
        """Composition with another operator, or scaling by a scalar."""
        if not isinstance(other, SparseOperator):
            return self.scale(other)
        self._require_same_basis(other)
        acols = self.cols
        cols = {}
        for j, bcol in other.cols.items():
            acc = {}
            for i, bij in bcol.items():
                acol = acols.get(i)
                if acol is None:
                    continue
                for r, ari in acol.items():
                    w = acc.get(r)
                    if w is None:
                        acc[r] = ari * bij
                    else:
                        w = w + ari * bij
                        if w:
                            acc[r] = w
                        else:
                            del acc[r]
            if acc:
                cols[j] = acc
        if self.degree is None or other.degree is None:
            degree = None
        else:
            degree = self.degree + other.degree
        if not cols:
            degree = 0
        return SparseOperator(self.basis, cols, degree)

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, SparseOperator):
            return NotImplemented
        return self.basis is other.basis and self.cols == other.cols


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
