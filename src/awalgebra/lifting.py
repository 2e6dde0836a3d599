"""Seed columns, and the lift of a zero residual through Delta(E).

Let E = Delta(E) be the raising operator of an interval of legs lo..hi,
assembled through the coproduct.  It maps weight block w-1 into block w
and is cut off out of the top block.  The seed states S_w of block w are
its states with no quanta on leg lo.

Lemma.  Let X be block diagonal with X E = E X on the columns of weight
<= top - 1, and let block w <= top satisfy

    (span) for every state m of block w with m_lo >= 1, column m - e_lo
           of E has a nonzero entry in row m and every other nonzero
           entry in a row of block w with fewer quanta on leg lo.

If X is zero on block w-1 and on the seed columns S_w, X is zero on
block w.

Proof.  For v in block w-1, X E v = E X v = 0.  By (span),
e_m = (E e_(m - e_lo) - terms with fewer lo-quanta) / E[m, m - e_lo],
so induction on m_lo gives block w = E(block w-1) + span S_w.

Every polynomial in block-diagonal operators that commute with E on the
columns of weight <= top - 1 is again such an operator: each factor
keeps a column of weight <= top - 1 inside its block, where the next
factor commutes with E.  The lemma therefore covers any polynomial in
them.  Relation residuals (opalgebra.GeneratorRegistry.lifted) use it
with E the total Delta(E) over every leg and lo = 1: block 0 is its own
seed set, so by induction on w a polynomial in the registry's
generators that is zero on every seed column of weight <= top is zero
on every column of weight <= top.

Casimir spectra (spectra.chain_counts) use the span condition and its
reduction (reduces_to_zero) with E = Delta_A(E), but not the lemma:
each seed is tested for one quotient membership, and spectra.py
carries its own proof.

(AB) restricted to columns S is A (B restricted to S), so a residual
written as a lincomb is evaluated on S by restricting the last operand
of each term (on_columns).
"""

from __future__ import annotations

from math import gcd

from .sparse import SparseOperator


def seed_states(basis, lo: int, w: int) -> list:
    """S_w: the states of block w with no quanta on leg lo, in index
    order."""
    states = basis.states
    return [j for j in basis.weight_block(w) if not states[j][lo - 1]]


def commutes_below_top(op, e, top=None) -> bool:
    """op is block diagonal and op E - E op vanishes on the columns of
    weight <= top - 1 (top defaults to the truncation n_max).  The
    columns are restricted before the products, which leaves those
    columns' values unchanged."""
    basis = op.basis
    weights = basis.weights
    for j, col in op.cols.items():
        w = weights[j]
        if any(weights[i] != w for i in col):
            return False
    top = basis.n_max if top is None else top
    below = range(0, basis.weight_block(top - 1).stop if top else 0)
    return SparseOperator.lincomb(
        basis, ((1, op, e.restricted(below)), (-1, e, op.restricted(below)))
    ).is_zero()


def spanned_by_lifting(e, lo: int, w: int) -> bool:
    """(span) for block w >= 1: block w = E(block w-1) + span S_w by
    induction on the quanta on leg lo."""
    basis = e.basis
    states, weights = basis.states, basis.weights
    ax = lo - 1
    for row in basis.weight_block(w):
        m = states[row]
        n = m[ax]
        if n == 0:
            continue
        col = e.cols.get(basis.index_of(m[:ax] + (n - 1,) + m[ax + 1 :]), {})
        if not col.get(row):
            return False
        for i in col:
            if i != row and (weights[i] != w or states[i][ax] >= n):
                return False
    return True


def reduces_to_zero(r: dict, e, lo: int) -> bool:
    """Whether the vector r of block w >= 1 (int numerators by row,
    over any positive denominator) lies in E(block w-1); (span) must
    hold for block w.

    The rows of r with quanta on leg lo are eliminated, most quanta
    first, along the pivots E[m, m - e_lo] that spanned_by_lifting
    checks: eliminating row m subtracts a multiple of column m - e_lo,
    whose other entries have fewer lo-quanta, so no row with as many
    comes back.  The steps are fraction free: scaling r by a nonzero
    integer keeps whether the remainder is zero.  What is left lies on
    the seed rows.  A nonzero E v is nonzero off them, in row u + e_lo
    for u a state of v with the most lo-quanta, which no other state of
    v reaches; so E(block w-1) meets the span of the seed rows only in
    0, and r lies in E(block w-1) exactly when nothing is left.
    """
    basis = e.basis
    states, ax = basis.states, lo - 1
    r = {i: x for i, x in r.items() if x}
    while r:
        m = max(r, key=lambda i: states[i][ax])
        n = states[m][ax]
        if not n:
            return False
        x = r.pop(m)
        col = e.cols[basis.index_of(states[m][:ax] + (n - 1,) + states[m][ax + 1 :])]
        g = gcd(col[m], x)
        pivot, x = col[m] // g, x // g
        if pivot != 1:
            for i in r:
                r[i] *= pivot
        for i, y in col.items():
            if i != m:
                z = r.get(i, 0) - x * y
                if z:
                    r[i] = z
                else:
                    del r[i]
    return True


def certified_seeds(ops, e, top: int):
    """The seed columns (leg 1) of weight <= top when every op has
    degree 0 and commutes with E below top, and every block 1..top is
    spanned by lifting through E; None when any of that fails.  E is
    the total Delta(E) over every leg."""
    if any(op.degree != 0 for op in ops):
        return None
    if not all(commutes_below_top(op, e, top) for op in ops):
        return None
    if not all(spanned_by_lifting(e, 1, w) for w in range(1, top + 1)):
        return None
    return [j for w in range(top + 1) for j in seed_states(e.basis, 1, w)]


def on_columns(terms, cols):
    """The lincomb terms of a residual's columns cols: (c, A, B) becomes
    (c, A, B on cols) and (c, A) becomes (c, A on cols).  cols None
    keeps every column."""
    if cols is None:
        return terms
    return [(c, *ops[:-1], ops[-1].restricted(cols)) for c, *ops in terms]
