"""Test-only helpers shared by several test modules."""


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
