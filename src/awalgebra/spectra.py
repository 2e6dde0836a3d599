"""Casimir spectra on weight blocks.

The coupled Casimir of an interval A acts block diagonally; on the
weight-w block its eigenvalues are lambda(k_A + x) for x = 0..w, where
k_A is the sum of the interval's weight labels.  Rather than
diagonalize (eigenvectors need not be rational), the checks verify the
annihilating polynomial

    P_w(Q)  =  prod_(x=0..w) (Q^(A) - lambda(k_A + x))  =  0   on the block,

entirely in rational arithmetic.

Lifting through Delta_A(E).  Q = Q^(A) is built from the coproduct over
the legs lo..hi of A, so it commutes with E = Delta_A(E).  Block w is
accepted from a zero count on its seed columns S_w (no quanta on leg
lo) alone when this certificate, checked in code, holds:

    (a) Q is block diagonal and Q E - E Q is zero on the columns of
        weight <= n_max - 1 (lifting.commutes_below_top);
    (b) block w is spanned by lifting through E (lifting.spanned_by_lifting);
    (c) block w's eigenvalue list is block w-1's list followed by one
        more value mu (lambda(k_A + w) for the predicted lists);
    (d) block w-1 was accepted: P_(w-1)(Q) = 0 on block w-1.

This is the lemma of lifting.py for X = P_w(Q), a polynomial in Q by
(a): with (c) and (d), P_w(Q) = (Q - mu) P_(w-1)(Q) is zero on block
w-1.  Block 0 is its own seed set.  A block whose seeds leave a
residual, or whose certificate fails, has every column counted, so
every block's count is its whole-block count either way; the lift only
saves the products of the columns outside S_w.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import ONE, inverse
from .lifting import commutes_below_top, seed_runs, spanned_by_lifting
from .opalgebra import label_of_subset
from .reporting import RelationReport
from .sparse import SparseOperator
from .uqrep import check_interval, interval_ops


def casimir_eigenvalue(q, kappa: int):
    """Shifted eigenvalue -(q^(2 kappa - 1) + q^(1 - 2 kappa))/(q + q^-1).

    Symmetric under kappa -> 1 - kappa; equals -1 at kappa = 1 for
    every q.
    """
    return -(q ** (2 * kappa - 1) + q ** (1 - 2 * kappa)) / (q + inverse(q))


def predicted_eigenvalues(p, interval, weight: int) -> list:
    """lambda(k_A + x) for x = 0..weight on the weight block."""
    k_a = p.interval_weight(interval)
    return [casimir_eigenvalue(p.q, k_a + x) for x in range(weight + 1)]


def annihilating_residual(op, eigenvalues, cols) -> int:
    """Nonzero entries of prod_x (op - lambda_x) on the columns cols.

    cols is a contiguous column range inside one weight block (the whole
    block or part of it); the block is the one holding cols.start.  op
    must have degree 0, so that it maps the block into itself; each
    factor applies op and subtracts lambda_x times its input (one fused
    lincomb pass after the first factor), and the product starts from
    the identity on cols.  The kernel reads op's columns only at the
    rows of its input, which stay in the block, so op needs no
    restriction to it.

    Column j of the product is P(op) e_j and depends on no other column,
    so the count over a block is the sum of the counts over any
    partition of its columns into ranges.
    """
    if op.degree != 0:
        raise ValueError("the annihilating polynomial needs a degree-0 operator")
    basis = op.basis
    weights = basis.weights
    if not cols or cols.step != 1 or weights[cols.start] != weights[cols.stop - 1]:
        raise ValueError(f"columns {cols} are not a range inside one weight block")
    r = SparseOperator(basis, {j: {j: ONE} for j in cols}, 0)
    if not eigenvalues:
        return r.nnz()
    first, *rest = eigenvalues
    # The first factor meets the identity columns, so its three passes
    # are cheap; written with *, - and scale, the benchmark's layer
    # trace (which cannot see lincomb) records the kernel under it.
    r = op * r - r.scale(first)
    for lam in rest:
        if r.is_zero():
            break
        r = SparseOperator.lincomb(basis, ((1, op, r), (-lam, r)))
    return r.nnz()


def lift_certificate(op, e, lo: int, eigenvalues: dict) -> dict:
    """{w: whether (a), (b) and (c) hold for block w} over the weights of
    eigenvalues (weight -> eigenvalue list); (d) is settled by the chain
    from block w-1's count.  Block 0 is its own seed set and never
    lifted; neither is a block whose w-1 is not among the weights."""
    commutes = None
    out = {}
    for w, lams in eigenvalues.items():
        prev = eigenvalues.get(w - 1)
        ok = w >= 1 and prev is not None and lams[:-1] == prev  # (c)
        if ok and commutes is None:
            commutes = commutes_below_top(op, e)  # (a), once
        out[w] = ok and commutes and spanned_by_lifting(e, lo, w)  # (b)
    return out


class BlockCount(NamedTuple):
    """A block's whole-block count of nonzero entries, the columns whose
    products were computed, and whether (a)-(d) held for it."""

    nonzero: int
    columns: int
    certified: bool


def _complement(block: range, runs) -> list:
    """The column ranges of block outside runs (sorted, disjoint)."""
    out = []
    start = block.start
    for run in runs:
        if run.start > start:
            out.append(range(start, run.start))
        start = run.stop
    if start < block.stop:
        out.append(range(start, block.stop))
    return out


def chain_counts(op, e, lo: int, eigenvalues: dict, count=None, run=None) -> dict:
    """{w: BlockCount} for the blocks of eigenvalues (weight -> list).

    A block whose certificate (a)-(c) holds computes only its seed runs
    first; every other block computes all its columns.  run(units) maps
    the (w, column range) units of this first pass to (w, count) pairs
    in any split of those ranges (serial count by default).  Then, in
    weight order, a certified block is accepted from zero seeds when
    block w-1 was accepted (d); otherwise its remaining columns are
    counted here with count(op, eigenvalues[w], cols), so each block
    reports its whole-block count.  count defaults to this module's
    annihilating_residual, looked up at the call.
    """
    count = count or annihilating_residual
    basis = op.basis
    lifts = lift_certificate(op, e, lo, eigenvalues)
    first = {
        w: seed_runs(basis, lo, w) if lifts[w] else [basis.weight_block(w)]
        for w in eigenvalues
    }
    units = [(w, cols) for w, runs in first.items() for cols in runs]
    if run is None:
        counts = ((w, count(op, eigenvalues[w], cols)) for w, cols in units)
    else:
        counts = run(units)
    nonzero = dict.fromkeys(eigenvalues, 0)
    for w, n in counts:
        nonzero[w] += n
    out = {}
    for w in sorted(eigenvalues):
        block = basis.weight_block(w)
        certified = lifts[w] and out[w - 1].nonzero == 0  # (d)
        columns = sum(map(len, first[w]))
        if lifts[w] and not (certified and nonzero[w] == 0):
            for cols in _complement(block, first[w]):
                nonzero[w] += count(op, eigenvalues[w], cols)
            columns = len(block)
        out[w] = BlockCount(nonzero[w], columns, certified)
    return out


def spectrum_reports(reg, interval, weights) -> list[RelationReport]:
    """Annihilating-polynomial checks of one interval Casimir on the
    given weight blocks, one report each, counted by chain_counts."""
    p = reg.params
    lo, hi = check_interval(p, interval)
    for w in weights:
        if not 0 <= w <= p.n_max:
            raise ValueError(f"weight {w} not within 0..{p.n_max}")
    label = label_of_subset(range(lo, hi + 1))
    op = reg[label]
    lams = {w: predicted_eigenvalues(p, interval, w) for w in weights}
    blocks = chain_counts(op, interval_ops(p, interval)["E"], lo, lams)
    return [
        RelationReport(
            id=f"spectra/{label}/w{w}",
            kind="annihilating-polynomial",
            inputs={
                "operator": label,
                "weight": w,
                "eigenvalues": [str(x) for x in lams[w]],
            },
            status="pass" if blocks[w].nonzero == 0 else "fail",
            residual_summary={
                "nonzero_entries": blocks[w].nonzero,
                "sample": None,
                "columns_computed": blocks[w].columns,
                "certificate_held": blocks[w].certified,
            },
        )
        for w in weights
    ]


def check_annihilating(reg, interval, weight: int) -> RelationReport:
    """Annihilating-polynomial check for one interval Casimir on one
    weight block, as a report; alone, the block has no chain and every
    column is counted."""
    return spectrum_reports(reg, interval, [weight])[0]
