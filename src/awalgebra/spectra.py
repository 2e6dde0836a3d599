"""Casimir spectra on weight blocks.

The coupled Casimir of an interval A acts block diagonally; on the
weight-w block its eigenvalues are lambda(k_A + x) for x = 0..w, where
k_A is the sum of the interval's weight labels.  Rather than
diagonalize (eigenvectors need not be rational), the checks verify the
annihilating polynomial

    prod_(x=0..w) (Q^(A) - lambda(k_A + x))  =  0   on the block,

entirely in rational arithmetic.
"""

from __future__ import annotations

from .exactnum import inverse
from .opalgebra import label_of_subset
from .reporting import RelationReport
from .sparse import SparseOperator
from .uqrep import check_interval


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


def annihilating_residual(op, eigenvalues, block) -> int:
    """Nonzero entries of prod_x (op - lambda_x) on the block's columns.

    op must have degree 0, so that it maps the block into itself; the
    factors are then applied to the block's columns only, and each one
    is op restricted to the block with lambda_x folded into its
    diagonal.
    """
    if op.degree != 0:
        raise ValueError("the annihilating polynomial needs a degree-0 operator")
    op_b = op.restricted(block)
    iden_b = SparseOperator.identity(op.basis).restricted(block)
    r = iden_b
    for lam in eigenvalues:
        r = (op_b - iden_b.scale(lam)) * r
        if r.is_zero():
            break
    return r.nnz()


def check_annihilating(reg, interval, weight: int) -> RelationReport:
    """Annihilating-polynomial check for one interval Casimir on one
    weight block, as a report."""
    p = reg.params
    check_interval(p, interval)
    if not 0 <= weight <= p.n_max:
        raise ValueError(f"weight {weight} not within 0..{p.n_max}")
    lo, hi = interval
    label = label_of_subset(range(lo, hi + 1))
    op = reg[label]
    lams = predicted_eigenvalues(p, interval, weight)
    block = reg.basis.weight_block(weight)
    nonzero = annihilating_residual(op, lams, block)
    return RelationReport(
        id=f"spectra/{label}/w{weight}",
        kind="annihilating-polynomial",
        inputs={
            "operator": label,
            "weight": weight,
            "eigenvalues": [str(x) for x in lams],
        },
        status="pass" if nonzero == 0 else "fail",
        residual_summary={"nonzero_entries": nonzero, "sample": None},
    )
