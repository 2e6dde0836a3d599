"""Test-only helpers shared by several test modules."""

from awalgebra.opalgebra import is_consecutive, subset_of_label


def degree_is_consistent(op) -> bool:
    """True when every stored entry of op obeys its declared degree."""
    if op.degree is None:
        return True
    weights = op.basis.weights
    return all(
        weights[i] == weights[j] + op.degree for j, col in op.cols.items() for i in col
    )


def below_top(op):
    """op restricted to the columns below the top weight block."""
    basis = op.basis
    return op.restricted(range(0, basis.weight_block(basis.n_max - 1).stop))


def is_derived_label(label: str) -> bool:
    """True for the labels of derived generators (non-consecutive legs)."""
    subset = subset_of_label(label)
    return bool(subset) and not is_consecutive(subset)


def monomial(reg, labels):
    """Ordered product of labeled generators of reg (empty = identity)."""
    if not labels:
        return -reg["Q0"]  # Q0 is minus the identity
    out = reg[labels[0]]
    for la in labels[1:]:
        out = out * reg[la]
    return out
