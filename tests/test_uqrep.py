from fractions import Fraction

import pytest

from awalgebra import cli, uqrep
from awalgebra.exactnum import ONE, Rational, inverse, parse, rational
from awalgebra.sparse import SparseOperator
from awalgebra.opalgebra import build_registry, consecutive_subsets, label_of_subset
from awalgebra.relcheck import check_coassociativity, check_defining_relations
from awalgebra.uqrep import (
    CACHE_SIZE,
    RepParams,
    _basis,
    _leg_ops,
    casimir,
    casimir_eigenvalue,
    casimir_unshifted,
    interval_ops,
    predicted_eigenvalues,
    primitive_generator,
)
from helpers import below_top, degree_is_consistent

Q2 = rational(2)
Q53 = parse("5/3")


def make(q, k, n_max):
    p = RepParams(q=q, k=tuple(k), legs=len(k), n_max=n_max)
    return p, p.basis


def test_params_validation():
    with pytest.raises(ValueError):
        RepParams(q=rational(1), k=(1, 1), legs=2, n_max=2)
    with pytest.raises(ValueError):
        RepParams(q=rational(-1), k=(1, 1), legs=2, n_max=2)
    with pytest.raises(ValueError):
        RepParams(q=Q2, k=(1, 1, 1), legs=2, n_max=2)
    with pytest.raises(ValueError):
        RepParams(q=Q2, k=(0, 1), legs=2, n_max=2)
    with pytest.raises(ValueError):
        RepParams(q=Q2, k=(1, 1), legs=2, n_max=0)


def test_params_reject_float_q():
    with pytest.raises(ValueError):
        RepParams(q=1.5, k=(1, 1), legs=2, n_max=2)


def test_params_reject_bool_q():
    with pytest.raises(ValueError):
        RepParams(q=True, k=(1, 1), legs=2, n_max=2)


def test_params_reject_bool_weight():
    with pytest.raises(ValueError):
        RepParams(q=Q2, k=(True, 1), legs=2, n_max=2)


def test_params_are_immutable_values():
    p = RepParams(q=Q53, k=[1, 2], legs=2, n_max=3)
    same = RepParams(q=Fraction(5, 3), k=(1, 2), legs=2, n_max=3)
    assert p == same and p is not same
    assert hash(p) == hash(same) and len({p, same}) == 1
    assert p.replace() == p and p.replace(n_max=4) == RepParams(Q53, (1, 2), 2, 4)
    assert p.replace(k=[2, 1]).k == (2, 1) and p != p.replace(n_max=4)
    for field, value in (("q", Q2), ("k", (2, 2)), ("legs", 3), ("n_max", 4), ("basis", None), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(p, field, value)
    assert p == same and p.basis is same.basis


# each rejected field value, on top of a valid two-leg parameter set
REJECTED = {
    "bool q": {"q": True},
    "bool k": {"k": (True, 1)},
    "k too long": {"k": (1, 1, 1)},
    "k too short": {"k": (1,)},
    "q=0": {"q": 0},
    "q=1": {"q": rational(1)},
    "q=-1": {"q": -1},
    "n_max=0": {"n_max": 0},
    "legs=0": {"legs": 0, "k": ()},
    "legs=5": {"legs": 5, "k": (1,) * 5},
}


@pytest.mark.parametrize("bad", REJECTED.values(), ids=REJECTED.keys())
def test_params_reject_through_constructor_and_replace(bad):
    good = RepParams(q=Q53, k=(1, 2), legs=2, n_max=3)
    with pytest.raises(ValueError):
        RepParams(**{**good._asdict(), **bad})
    with pytest.raises(ValueError):
        good.replace(**bad)
    # the named tuple's own _replace validates too
    with pytest.raises(ValueError):
        good._replace(**bad)


def test_params_store_q_as_backend_rational():
    for q in (2, Fraction(5, 3), Q53):
        p = RepParams(q=q, k=(1, 1), legs=2, n_max=2)
        assert type(p.q) is Rational and p.q == q


def test_interval_weight():
    p, _ = make(Q53, (1, 2, 1, 3), 2)
    assert p.interval_weight((1, 2)) == 3
    assert p.interval_weight((2, 4)) == 6
    with pytest.raises(ValueError):
        p.interval_weight((0, 2))
    with pytest.raises(ValueError):
        p.interval_weight((3, 5))


def test_k_is_diagonal_with_known_entry():
    p, b = make(Q2, (1, 1), 2)
    K = primitive_generator(p, 1, "K")
    assert K.get(0, 0) == Q2  # q^(k+0) on the vacuum
    assert K.degree == 0 and K.nnz() == len(b)
    Kinv = primitive_generator(p, 1, "Kinv")
    assert (K * Kinv) == SparseOperator.identity(b)


def test_raising_coefficients_frozen():
    # A_n = -q^(-1-2k-2n) (1-q^(2n+2)) (1-q^(4k+2n)) / (q^-1-q)^2
    # at q=2, k=1: A_0 = -5/2, A_1 = -105/8
    p, b = make(Q2, (1, 1), 2)
    E = primitive_generator(p, 1, "E")
    assert E.get(b.index_of((1, 0)), b.index_of((0, 0))) == rational(-5, 2)
    assert E.get(b.index_of((2, 0)), b.index_of((1, 0))) == rational(-105, 8)
    assert E.degree == 1 and degree_is_consistent(E)


def per_state_generator(p, leg, which):
    """The leg generator computed entry by entry, one basis state at a
    time, through the checking constructor: the construction the
    per-occupation tables of primitive_generator replace."""
    basis = p.basis
    q = p.q
    k = p.k[leg - 1]
    ax = leg - 1
    cols = {}
    if which in ("K", "Kinv"):
        sign = 1 if which == "K" else -1
        for j, m in enumerate(basis.states):
            cols[j] = {j: q ** (sign * (k + m[ax]))}
        degree = 0
    elif which == "F":
        for j, m in enumerate(basis.states):
            n = m[ax]
            if n >= 1:
                target = m[:ax] + (n - 1,) + m[ax + 1 :]
                cols[j] = {basis.index_of(target): ONE}
        degree = -1
    else:
        denom = (ONE / q - q) ** 2
        for j, m in enumerate(basis.states):
            if basis.weights[j] >= basis.n_max:
                continue
            n = m[ax]
            coeff = (
                -(q ** (-1 - 2 * k - 2 * n))
                * (1 - q ** (2 * n + 2))
                * (1 - q ** (4 * k + 2 * n))
                / denom
            )
            target = m[:ax] + (n + 1,) + m[ax + 1 :]
            cols[j] = {basis.index_of(target): coeff}
        degree = 1
    return SparseOperator(basis, cols, degree)


ACCEPTANCE = [(Q53, (1, 2, 1, 3)), (parse("2/5"), (2, 1, 1, 1))]


@pytest.mark.parametrize("n_max", [1, 5])
@pytest.mark.parametrize("legs", [1, 2, 3, 4])
@pytest.mark.parametrize("q, k", ACCEPTANCE)
def test_leg_tables_match_per_state_formula(q, k, legs, n_max):
    # n_max 1 leaves one raising coefficient below the cut-off block
    p, _ = make(q, k[:legs], n_max)
    for leg in range(1, legs + 1):
        for which in ("E", "F", "K", "Kinv"):
            got = primitive_generator(p, leg, which)
            want = per_state_generator(p, leg, which)
            assert (got.den, got.cols, got.degree) == (want.den, want.cols, want.degree)


def test_lowering_is_unit_shift():
    p, b = make(Q53, (2, 1), 3)
    F = primitive_generator(p, 1, "F")
    assert F.get(b.index_of((0, 1)), b.index_of((1, 1))) == ONE
    # annihilates every state with n_1 = 0
    for j, m in enumerate(b.states):
        if m[0] == 0:
            assert j not in F.cols
    assert F.degree == -1 and degree_is_consistent(F)


def test_single_leg_defining_relations():
    p, b = make(Q53, (2, 3), 4)
    q = p.q
    for leg in (1, 2):
        E = primitive_generator(p, leg, "E")
        F = primitive_generator(p, leg, "F")
        K = primitive_generator(p, leg, "K")
        Ki = primitive_generator(p, leg, "Kinv")
        assert (K * Ki - SparseOperator.identity(b)).is_zero()
        assert (K * E - (E * K).scale(q)).is_zero()
        assert ((K * F).scale(q) - F * K).is_zero()
        # [E,F] = (K^2 - K^-2)/(q - q^-1), exact below the top block
        lhs = E * F - F * E
        rhs = (K * K - Ki * Ki).scale(inverse(q - inverse(q)))
        count, _ = below_top(lhs - rhs).nonzero_in_columns()
        assert count == 0


def test_commutator_truncation_artifact_is_confined():
    # on the top weight block E*F is exact but F*E is cut off, so the
    # [E,F] relation must be restricted; make sure the residual indeed
    # lives only there (this is what the restricted check relies on)
    p, b = make(Q53, (1, 1), 2)
    E = primitive_generator(p, 1, "E")
    F = primitive_generator(p, 1, "F")
    K = primitive_generator(p, 1, "K")
    Ki = primitive_generator(p, 1, "Kinv")
    resid = (E * F - F * E) - (K * K - Ki * Ki).scale(inverse(p.q - inverse(p.q)))
    total, _ = resid.nonzero_in_columns()
    below, _ = below_top(resid).nonzero_in_columns()
    assert below == 0 and total > 0


def explicit_interval_sum(p, basis, interval, which):
    """Independent construction of the interval raising/lowering
    operator: sum over the acting leg i of

        (prod_{j<i} K_j) X_i (prod_{j>i} Kinv_j),   X in {E, F}
    """
    lo, hi = interval
    total = SparseOperator.zero(basis)
    for i in range(lo, hi + 1):
        term = SparseOperator.identity(basis)
        for j in range(lo, i):
            term = term * primitive_generator(p, j, "K")
        term = term * primitive_generator(p, i, which)
        for j in range(i + 1, hi + 1):
            term = term * primitive_generator(p, j, "Kinv")
        total = total + term
    return total


@pytest.mark.parametrize("which", ["E", "F"])
def test_interval_generator_matches_explicit_sum(which):
    p, b = make(Q53, (1, 2, 1), 3)
    for interval in [(1, 2), (2, 3), (1, 3)]:
        assert interval_ops(p, interval)[which] == explicit_interval_sum(
            p, b, interval, which
        )


def test_interval_k_is_product():
    p, b = make(Q53, (1, 2, 1), 3)
    prod = SparseOperator.identity(b)
    for leg in (1, 2, 3):
        prod = prod * primitive_generator(p, leg, "K")
    assert interval_ops(p, (1, 3))["K"] == prod


def test_coassociativity_left_vs_right():
    p, b = make(Q53, (1, 2, 1, 3), 3)
    for interval in [(1, 3), (2, 4), (1, 4)]:
        left = interval_ops(p, interval, "left")
        right = interval_ops(p, interval, "right")
        for w in ("E", "F", "K", "Kinv"):
            assert left[w] == right[w]


def test_interval_defining_relations():
    p, b = make(Q53, (1, 2), 3)
    ops = interval_ops(p, (1, 2))
    q = p.q
    assert (ops["K"] * ops["Kinv"] - SparseOperator.identity(b)).is_zero()
    assert (ops["K"] * ops["E"] - (ops["E"] * ops["K"]).scale(q)).is_zero()
    lhs = ops["E"] * ops["F"] - ops["F"] * ops["E"]
    rhs = (ops["K"] * ops["K"] - ops["Kinv"] * ops["Kinv"]).scale(
        inverse(q - inverse(q))
    )
    count, _ = below_top(lhs - rhs).nonzero_in_columns()
    assert count == 0


def test_single_leg_casimir_is_known_scalar():
    # shifted eigenvalue -(q^(2k-1)+q^(1-2k))/(q+q^-1): k=1 gives -1 for
    # every q; k=2 gives -13/4 at q=2
    p, b = make(Q2, (1, 2), 2)
    c1 = casimir(p, (1, 1))
    assert c1 == SparseOperator.identity(b, rational(-1))
    c2 = casimir(p, (2, 2))
    assert c2 == SparseOperator.identity(b, rational(-13, 4))


def test_single_leg_unshifted_casimir():
    # (q^(2k-1)+q^(1-2k)-2)/(q-q^-1)^2 at q=2, k=1: (2+1/2-2)/(3/2)^2 = 2/9
    p, b = make(Q2, (1, 1), 2)
    u = casimir_unshifted(p, (1, 1))
    assert u == SparseOperator.identity(b, rational(2, 9))


def test_two_leg_casimir_vacuum_block():
    # the weight-0 block of the coupled Casimir carries kappa = k_1+k_2
    p, b = make(Q2, (1, 1), 2)
    c = casimir(p, (1, 2))
    assert c.get(0, 0) == rational(-13, 4)
    assert c.degree == 0 and degree_is_consistent(c)


def test_shift_identity_between_casimirs():
    p, b = make(Q53, (1, 2, 1), 2)
    q = p.q
    s2 = (q - inverse(q)) ** 2
    t = q + inverse(q)
    for interval in [(1, 1), (1, 2), (2, 3), (1, 3)]:
        sh = casimir(p, interval)
        un = casimir_unshifted(p, interval)
        mapped = (un.scale(s2) + SparseOperator.identity(b, rational(2))).scale(
            -inverse(t)
        )
        assert sh == mapped


def explicit_casimir_unshifted(p, interval):
    """The unshifted Casimir from its defining formula,

        (q^-1 K^2 + q K^-2 - 2) / (q - q^-1)^2 + E F
    """
    ops = interval_ops(p, interval)
    q = p.q
    iq = ONE / q
    s2 = (q - iq) ** 2
    iden = SparseOperator.identity(p.basis)
    k2 = ops["K"] * ops["K"]
    ki2 = ops["Kinv"] * ops["Kinv"]
    ef = ops["E"] * ops["F"]
    return (k2.scale(iq) + ki2.scale(q) - iden.scale(2)).scale(ONE / s2) + ef


@pytest.mark.parametrize("q, k", [(Q53, (1, 2, 1, 3)), (parse("2/5"), (2, 1, 1, 1))])
@pytest.mark.parametrize("legs", [3, 4])
def test_unshifted_casimir_matches_defining_formula(q, k, legs):
    p, _ = make(q, k[:legs], 3)
    for lo in range(1, legs + 1):
        for hi in range(lo, legs + 1):
            want = explicit_casimir_unshifted(p, (lo, hi))
            assert casimir_unshifted(p, (lo, hi)) == want, (lo, hi)


def test_casimir_commutes_with_interval_algebra():
    # the interval Casimir is central for the interval's own generators
    p, b = make(Q53, (1, 2), 3)
    c = casimir(p, (1, 2))
    ops = interval_ops(p, (1, 2))
    for w in ("E", "F", "K"):
        resid = c * ops[w] - ops[w] * c
        count, _ = below_top(resid).nonzero_in_columns()
        assert count == 0


def test_casimir_caching_returns_same_object():
    p, b = make(Q53, (1, 2), 2)
    assert casimir(p, (1, 2)) is casimir(p, (1, 2))


CACHES = (_leg_ops, interval_ops, casimir, casimir_unshifted, uqrep.leg_table, uqrep._leg_entries, casimir_eigenvalue)


def test_caches_stay_bounded():
    # the caches key on parameter values, which other tests may share
    for cached in CACHES:
        cached.cache_clear()
    for q in range(2, CACHE_SIZE + 4):
        p, b = make(rational(q), (1, 2), 1)
        casimir(p, (1, 2))
        casimir_unshifted(p, (1, 2))
        interval_ops(p, (1, 2), "right")
        predicted_eigenvalues(p, (1, 2), 1)
    for n_max in range(1, CACHE_SIZE + 4):
        interval_ops(make(Q53, (1, 2), n_max)[0], (1, 2))
    for cached in CACHES:
        info = cached.cache_info()
        assert info.maxsize == CACHE_SIZE
        assert info.currsize <= CACHE_SIZE, cached


LABELS = [label_of_subset(range(lo, hi + 1)) for lo, hi in consecutive_subsets(4)]


@pytest.mark.parametrize(
    "runs",
    [[["verify", "--k", "1,2,3,4"]], [["spectrum", "--op", label, "--nmax", "7"] for label in LABELS]],
    ids=["verify-four-labels", "spectrum-all-labels"],
)
def test_one_command_evicts_nothing(monkeypatch, capsys, runs):
    # from cold caches, serially in this process: every key is built
    # once and kept, so no uqrep cache runs past CACHE_SIZE
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    caches = [f for f in vars(uqrep).values() if hasattr(f, "cache_info") and f.__module__ == uqrep.__name__]
    assert len(caches) == 8
    for cached in (*caches, build_registry):
        cached.cache_clear()
    for argv in runs:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    for cached in caches:
        info = cached.cache_info()
        assert info.misses == info.currsize <= CACHE_SIZE, (cached.__name__, info)


def test_left_folds_share_one_cache_key():
    # defining suite and registry at four legs: 10 left folds, 3 right;
    # the caches key on parameter values, which other tests may share
    p, _ = make(Q53, (1, 2, 1, 3), 1)
    interval_ops.cache_clear()
    build_registry.cache_clear()
    check_defining_relations(p)
    check_coassociativity(p)
    build_registry(p)
    assert interval_ops.cache_info().misses == 13


def test_equal_parameters_share_one_basis():
    # two equal parameter sets are two instances with one basis object
    p1, _ = make(Q53, (1, 2, 1), 3)
    p2, _ = make(parse("5/3"), [1, 2, 1], 3)
    assert p1 == p2 and p1 is not p2
    assert p1.basis is p2.basis
    # the cache keys on shape alone
    p3, _ = make(Q2, (3, 1, 2), 3)
    assert p3.basis is p1.basis
    assert make(Q53, (1, 2, 1), 2)[1] is not p1.basis
    assert _basis.cache_info().maxsize == CACHE_SIZE


@pytest.fixture
def couples(monkeypatch):
    """Counts the _couple calls interval_ops makes, from cold caches."""
    for cached in CACHES:
        cached.cache_clear()
    seen = []
    couple = uqrep._couple
    monkeypatch.setattr(uqrep, "_couple", lambda a, b: seen.append(None) or couple(a, b))
    return seen


def test_left_fold_extends_the_shorter_left_fold(couples):
    p, _ = make(Q53, (1, 2, 1, 3), 2)
    interval_ops(p, (1, 4))
    assert len(couples) == 3
    misses = interval_ops.cache_info().misses
    interval_ops(p, (1, 2))
    interval_ops(p, (1, 3))
    assert len(couples) == 3 and interval_ops.cache_info().misses == misses


def test_right_fold_extends_the_shorter_right_fold(couples):
    p, _ = make(Q53, (1, 2, 1, 3), 2)
    interval_ops(p, (2, 4), "right")
    before = len(couples)
    interval_ops(p, (1, 4), "right")
    assert len(couples) == before + 1


def test_two_leg_right_fold_is_the_left_fold():
    p, _ = make(Q53, (1, 2, 1, 3), 2)
    for lo in (1, 2, 3):
        assert interval_ops(p, (lo, lo + 1), "right") is interval_ops(p, (lo, lo + 1))
