import pytest

from awalgebra.exactnum import parse, rational
from awalgebra.opalgebra import build_registry
from awalgebra.spectra import (
    casimir_eigenvalue,
    check_annihilating,
    predicted_eigenvalues,
)
from awalgebra.uqrep import RepParams


def registry(q, k, n_max):
    p = RepParams(q=q, k=tuple(k), legs=len(k), n_max=n_max)
    return build_registry(p)


@pytest.mark.parametrize("q", [rational(2), parse("5/3"), parse("2/5"), rational(7)])
def test_eigenvalue_at_kappa_one(q):
    assert casimir_eigenvalue(q, 1) == rational(-1)


def test_eigenvalues_frozen_at_q_two():
    q = rational(2)
    assert casimir_eigenvalue(q, 2) == rational(-13, 4)
    assert casimir_eigenvalue(q, 3) == rational(-205, 16)


@pytest.mark.parametrize("q", [parse("5/3"), parse("2/5")])
def test_eigenvalue_reflection_symmetry(q):
    for kappa in range(-3, 5):
        assert casimir_eigenvalue(q, kappa) == casimir_eigenvalue(q, 1 - kappa)


def casimir_eigenvalue_unshifted(q, kappa: int):
    """Unshifted eigenvalue (q^(2 kappa - 1) + q^(1 - 2 kappa) - 2)/(q - q^-1)^2."""
    return (q ** (2 * kappa - 1) + q ** (1 - 2 * kappa) - 2) / (q - 1 / q) ** 2


@pytest.mark.parametrize("q", [parse("5/3"), rational(2)])
def test_shift_of_eigenvalues(q):
    # same affine map that links the two Casimir normalizations
    s2 = (q - 1 / q) ** 2
    t = q + 1 / q
    for kappa in range(1, 6):
        mu = casimir_eigenvalue_unshifted(q, kappa)
        assert casimir_eigenvalue(q, kappa) == -(s2 * mu + 2) / t


def test_predicted_eigenvalues_list():
    p = RepParams(q=rational(2), k=(1, 1), legs=2, n_max=2)
    assert predicted_eigenvalues(p, (1, 2), 1) == [
        rational(-13, 4),
        rational(-205, 16),
    ]


def test_annihilating_two_legs():
    reg = registry(rational(2), (1, 1), 2)
    for w in range(3):
        rep = check_annihilating(reg, (1, 2), w)
        assert rep.status == "pass", rep
        assert len(rep.inputs["eigenvalues"]) == w + 1


def test_annihilating_all_intervals_small():
    reg = registry(parse("5/3"), (1, 2, 1), 2)
    for interval in [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)]:
        for w in range(reg.params.n_max + 1):
            assert check_annihilating(reg, interval, w).status == "pass"


def test_annihilating_needs_every_factor():
    # dropping one eigenvalue factor must leave a nonzero residual,
    # otherwise the check would be vacuous
    from awalgebra.spectra import annihilating_residual

    reg = registry(rational(2), (1, 1), 2)
    op = reg["Q12"]
    lams = predicted_eigenvalues(reg.params, (1, 2), 1)
    block = reg.basis.weight_block(1)
    assert annihilating_residual(op, lams, block) == 0
    assert annihilating_residual(op, lams[:1], block) > 0
    assert annihilating_residual(op, lams[1:], block) > 0


def test_weight_out_of_range():
    reg = registry(rational(2), (1, 1), 1)
    with pytest.raises(ValueError):
        check_annihilating(reg, (1, 2), 5)


def test_annihilating_needs_degree_zero():
    from awalgebra.spectra import annihilating_residual
    from awalgebra.uqrep import interval_ops

    reg = registry(rational(2), (1, 1), 2)
    raise_op = interval_ops(reg.params, (1, 2))["E"]
    with pytest.raises(ValueError):
        annihilating_residual(raise_op, [rational(1)], reg.basis.weight_block(1))
