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
them, and two uses supply "X is zero on block w-1":

  - relation residuals (opalgebra.GeneratorRegistry.lifted), with E the
    total Delta(E) over every leg and lo = 1: block 0 is its own seed
    set, so by induction on w a polynomial in the registry's generators
    that is zero on every seed column of weight <= top is zero on every
    column of weight <= top;
  - Casimir spectra (spectra.chain_counts), with X = P_w(Q^(A)) and E
    = Delta_A(E): P_w = (Q - mu) P_(w-1), which block w-1 annihilates
    once the chain has accepted it.

(AB) restricted to columns S is A (B restricted to S), so a residual
written as a lincomb is evaluated on S by restricting the last operand
of each term (on_columns).
"""

from __future__ import annotations

from .sparse import SparseOperator


def seed_runs(basis, lo: int, w: int) -> list:
    """S_w as contiguous index ranges: the states of block w with no
    quanta on leg lo, in index order.  In graded-lex order there is one
    run per block for lo = 1."""
    states = basis.states
    runs = []
    start = None
    block = basis.weight_block(w)
    for j in block:
        if states[j][lo - 1] == 0:
            if start is None:
                start = j
        elif start is not None:
            runs.append(range(start, j))
            start = None
    if start is not None:
        runs.append(range(start, block.stop))
    return runs


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
    return [j for w in range(top + 1) for run in seed_runs(e.basis, 1, w) for j in run]


def on_columns(terms, cols):
    """The lincomb terms of a residual's columns cols: (c, A, B) becomes
    (c, A, B on cols) and (c, A) becomes (c, A on cols).  cols None
    keeps every column."""
    if cols is None:
        return terms
    return [(c, *ops[:-1], ops[-1].restricted(cols)) for c, *ops in terms]
