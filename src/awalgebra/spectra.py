"""Casimir spectra on weight blocks.

The coupled Casimir of an interval A acts block diagonally; on the
weight-w block its eigenvalues are lambda(k_A + x) for x = 0..w, where
k_A is the sum of the interval's weight labels.  Rather than
diagonalize (eigenvectors need not be rational), the checks verify the
annihilating polynomial

    P_w(Q)  =  prod_(x=0..w) (Q^(A) - lambda(k_A + x))  =  0   on the block,

entirely in rational arithmetic.

Corollary (one certificate).  Let p_A be A's own realization
(RepParams.interval_realization, p itself for the total interval), C_A
its Casimir of all its legs, E_A its Delta(E), and top the largest
weight asked for.  When lifting.quotient_table({C_A}) holds with E = E_A
and lambda_x = lambda(k_A + x) for x <= top, the P_w paragraph of
lifting.py makes P_v(C_A) zero on p_A's blocks v <= top.  By the slice
lemma of lifting.py, block w of p is the sum over the outside parts o of
the states of A-weight w - |o| on the slice of o, where uqrep's
casimir(p, A) is C_A on its block w - |o|.  When block w's list is the
top list's first w + 1 values, P_(w-|o|) divides P_w, so P_w(casimir(p,
A)) is zero on block w of p (certified_counts).  The lemma speaks of the
operators uqrep builds, so every block is counted whole with
annihilating_residual, the reference, when the table is refused, a list
is no such prefix, or the operator reported is not casimir(p, A) (a
registry may hold any table).  Block 0, one state, is counted whole.
"""

from __future__ import annotations

from .exactnum import ONE
from .lifting import quotient_table, seed_states
from .opalgebra import label_of_subset
from .reporting import RelationReport
from .sparse import SparseOperator
from .uqrep import casimir, check_interval, interval_ops, predicted_eigenvalues


def annihilating_residual(op, eigenvalues, block) -> int:
    """Nonzero entries of prod_x (op - lambda_x) on the columns of one
    whole weight block, given as its index range block.

    Each factor applies op and subtracts lambda_x times its input (one
    fused lincomb pass after the first factor), and the product starts
    from the identity on the block.  The kernel reads op's columns only
    at the rows of its input, so op needs no restriction to the block;
    an op of weight degree 0 keeps those rows in the block.  For any
    other op the count is that of the same product, whose columns leave
    the block: the defining suite and the certificate (lifting.py, (i))
    are what reject such an op.
    """
    basis = op.basis
    if not block or basis.weight_block(basis.weights[block.start]) != block:
        raise ValueError(f"columns {block} are not a whole weight block")
    r = SparseOperator(basis, {j: {j: ONE} for j in block}, 0)
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


def certified_counts(sub, c_a, eigenvalues: dict) -> dict | None:
    """{w: nonzero entries} for the blocks of eigenvalues (weight ->
    list) of a realization whose interval A has the own realization sub
    (p_A), when the corollary decides them: 0 for every block w >= 1,
    and block 0 counted whole on sub's block 0, the same state.  None
    when it does not.

    c_a is casimir(sub, (1, sub.legs)), as spectrum_reports builds it;
    a test may pass another operator in its place.
    """
    top = max(eigenvalues)
    chain = eigenvalues[top]
    if len(chain) != top + 1 or any(x != chain[: w + 1] for w, x in eigenvalues.items()):
        return None
    if quotient_table({"C": c_a}, "C", interval_ops(sub, (1, sub.legs))["E"], chain) is None:
        return None
    block = sub.basis.weight_block(0)
    return {
        w: annihilating_residual(c_a, x, block) if w == 0 else 0 for w, x in eigenvalues.items()
    }


def spectrum_reports(p, interval, weights, op=None) -> list[RelationReport]:
    """Annihilating-polynomial checks of op, the interval's Casimir as a
    registry holds it, on the given weight blocks of p, one report each,
    decided by certified_counts or counted whole.  op=None stands for
    casimir(p, interval), built only when the blocks are counted whole."""
    lo, hi = check_interval(p, interval)
    for w in weights:
        if not 0 <= w <= p.n_max:
            raise ValueError(f"weight {w} not within 0..{p.n_max}")
    label = label_of_subset(range(lo, hi + 1))
    lams = {w: predicted_eigenvalues(p, interval, w) for w in weights}
    sub = p.interval_realization(interval)
    counts = None
    if op is None or op == casimir(p, interval):  # slices serve only the operators uqrep builds
        counts = certified_counts(sub, casimir(sub, (1, sub.legs)), lams)
    held = counts is not None
    if not held:
        op = casimir(p, interval) if op is None else op
        counts = {w: annihilating_residual(op, lams[w], p.basis.weight_block(w)) for w in weights}
    columns = {
        w: len(seed_states(sub.basis, w) if held and w else p.basis.weight_block(w))
        for w in weights
    }
    return [
        RelationReport(
            id=f"spectra/{label}/w{w}",
            kind="annihilating-polynomial",
            inputs={
                "operator": label,
                "weight": w,
                "eigenvalues": [str(x) for x in lams[w]],
            },
            status="pass" if counts[w] == 0 else "fail",
            residual_summary={
                "nonzero_entries": counts[w],
                "sample": None,
                "columns_computed": columns[w],
                "certificate_held": held and w > 0,
            },
        )
        for w in weights
    ]
