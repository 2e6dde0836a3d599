"""Casimir spectra on weight blocks.

The coupled Casimir of an interval A acts block diagonally; on the
weight-w block its eigenvalues are lambda(k_A + x) for x = 0..w, where
k_A is the sum of the interval's weight labels.  Rather than
diagonalize (eigenvectors need not be rational), the checks verify the
annihilating polynomial

    P_w(Q)  =  prod_(x=0..w) (Q^(A) - lambda(k_A + x))  =  0   on the block,

entirely in rational arithmetic.

Quotient membership.  Q = Q^(A) is built from the coproduct over the
legs lo..hi of A, so it commutes with E = Delta_A(E) and keeps the
A-weight of a state (its quanta on legs lo..hi), which E raises by one.
On the A-weight-a part of block w modulo E of the A-weight-(a-1) part
of block w-1, Q is the scalar lambda(k_A + a), since the lowest-weight
vectors of A-weight a span that quotient.  So each seed s of block
w (no quanta on leg lo) needs one test, with one column of Q and no
product: (Q - lambda_a) e_s lies in E(block w-1), for a the A-weight of
s (lifting.reduces_to_zero).  Block w >= 1 is certified, and its count
is 0, when this certificate, checked in code, holds for the list
mu_0..mu_w of the block:

    (a)  Q is block diagonal and Q E - E Q is zero on the columns of
         weight <= n_max - 1 (lifting.commutes_below_top);
    (a') Q keeps the A-weight of every column, and E raises it by
         exactly one;
    (b)  block w is spanned by lifting through E
         (lifting.spanned_by_lifting), which also says that E maps
         block w-1 into block w;
    (c)  the list has w + 1 values and its first w are block w-1's list;
    (d)  block w-1 was certified, or it is block 0 and its count is 0;
    (e)  (Q - mu_a) e_s lies in E(block w-1) for every seed s of block
         w, a its A-weight.

Proof.  Write V(w, a) for the span of the states of block w of A-weight
a, and H(w, a) for: prod_(y<=a) (Q - mu_y) = 0 on V(w, a).  By (a) and
(a'), Q maps V(w, a) into itself, and by (a') and (b), E maps V(w-1,
a-1) into V(w, a).  Eliminating along the pivots of (b), each state of
V(w, a) with quanta on leg lo is a multiple of E applied to a state of
V(w-1, a-1) plus states of V(w, a) with fewer, so V(w, a) = E V(w-1,
a-1) + span of its seeds.  H(w, a) follows from H(w-1, a-1), which
holds vacuously for a = 0 (V(w-1, -1) = 0):

  - for v in V(w-1, a-1), Q commutes with E on v's block (weight
    <= n_max - 1) and the factors commute, so prod_(y<=a) (Q - mu_y) E v
    = E (Q - mu_a) prod_(y<a) (Q - mu_y) v = 0;
  - for a seed s of A-weight a, (e) gives (Q - mu_a) e_s = E u, where
    the reduction builds u in V(w-1, a-1) (it subtracts columns m - e_lo
    of E for rows m in V(w, a)), so prod_(y<=a) (Q - mu_y) e_s =
    E prod_(y<a) (Q - mu_y) u = 0.

(d) supplies H(w-1, b) for every b <= w-1 with block w-1's list, which
is block w's by (c): a certified block w-1 by induction, block 0 from
its count (by (c) its list is the single mu_0, and V(0, 0) is the whole
block).  With H(w, a) for every a <= w, P_w(Q) = 0 on block w, the sum
of the V(w, a), since each prod_(y<=a) (Q - mu_y) divides P_w.

Block 0, and every block from the first that is refused up, is counted
whole with annihilating_residual, so every block's count is its
whole-block count.
"""

from __future__ import annotations

from typing import NamedTuple

from .exactnum import ONE, inverse
from .lifting import commutes_below_top, reduces_to_zero, seed_states, spanned_by_lifting
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


class BlockCount(NamedTuple):
    """A block's whole-block count of nonzero entries, the columns it
    computed (its seeds when certified, all its columns otherwise) and
    whether (a)-(e) held for it."""

    nonzero: int
    columns: int
    certified: bool


def keeps_interval_weight(op, e, a) -> bool:
    """(a'): op keeps the A-weight a[j] of every column j, and e raises
    it by exactly one."""
    return all(a[i] == a[j] for j, col in op.cols.items() for i in col) and all(
        a[i] == a[j] + 1 for j, col in e.cols.items() for i in col
    )


def seed_in_lift(op, e, lo: int, s: int, lam) -> bool:
    """(e) for seed s: (op - lam) e_s, op's column s less lam in row s,
    lies in E(block w-1)."""
    n, d = int(lam.numerator), int(lam.denominator)
    r = {i: d * v for i, v in op.cols.get(s, {}).items()}
    r[s] = r.get(s, 0) - n * op.den
    return reduces_to_zero(r, e, lo)


def chain_counts(op, e, interval, eigenvalues: dict, count=None) -> dict:
    """{w: BlockCount} for the blocks of eigenvalues (weight -> list),
    in weight order.

    A block w >= 1 whose certificate (a)-(e) holds is certified with
    count 0 from one membership test per seed.  Block 0 and every block
    refused are counted whole with count(op, eigenvalues[w], block);
    count defaults to this module's annihilating_residual, looked up at
    the call.  (a) and (a') are checked once, when a block first needs
    them.
    """
    count = count or annihilating_residual
    basis = op.basis
    lo, hi = interval
    a_weight = [sum(m[lo - 1 : hi]) for m in basis.states]
    graded = None
    out = {}
    for w in sorted(eigenvalues):
        lams = eigenvalues[w]
        prev = out.get(w - 1)
        held = (
            prev is not None
            and (prev.certified or (w == 1 and prev.nonzero == 0))  # (d)
            and len(lams) == w + 1
            and lams[:-1] == eigenvalues[w - 1]  # (c)
            and spanned_by_lifting(e, lo, w)  # (b)
        )
        if held and graded is None:
            graded = commutes_below_top(op, e) and keeps_interval_weight(op, e, a_weight)
        seeds = seed_states(basis, lo, w)
        if held and graded and all(seed_in_lift(op, e, lo, s, lams[a_weight[s]]) for s in seeds):
            out[w] = BlockCount(0, len(seeds), True)
        else:
            block = basis.weight_block(w)
            out[w] = BlockCount(count(op, lams, block), len(block), False)
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
    blocks = chain_counts(op, interval_ops(p, interval)["E"], (lo, hi), lams)
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
