import pytest

from awalgebra import spectra
from awalgebra.exactnum import parse, rational
from awalgebra.opalgebra import build_registry, consecutive_subsets
from awalgebra.sparse import SparseOperator
from awalgebra.spectra import (
    annihilating_residual,
    casimir_eigenvalue,
    chain_counts,
    check_annihilating,
    keeps_interval_weight,
    predicted_eigenvalues,
    spanned_by_lifting,
    spectrum_reports,
)
from awalgebra.uqrep import RepParams, casimir, interval_ops


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


def _variants(lams):
    """The predicted eigenvalues, one shifted by 1/den and one dropped."""
    last = lams[-1]
    shifted = lams[:-1] + [last + rational(1, last.denominator)]
    return {"predicted": lams, "shifted": shifted, "dropped": lams[1:]}


@pytest.mark.parametrize("variant", ["predicted", "shifted", "dropped"])
def test_column_parts_sum_to_the_block_count(variant):
    # columns of prod (Q - lambda) are independent, so any split of a
    # block's columns into two ranges keeps the block's count
    from awalgebra.spectra import annihilating_residual
    from awalgebra.uqrep import casimir

    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5)
    op = casimir(p, (1, 3))
    for w in range(p.n_max + 1):
        block = p.basis.weight_block(w)
        lams = _variants(predicted_eigenvalues(p, (1, 3), w))[variant]
        whole = annihilating_residual(op, lams, block)
        assert (whole == 0) == (variant == "predicted")
        for split in range(block.start + 1, block.stop):
            parts = (range(block.start, split), range(split, block.stop))
            assert sum(annihilating_residual(op, lams, cols) for cols in parts) == whole


def test_column_range_must_lie_in_one_block():
    from awalgebra.spectra import annihilating_residual

    reg = registry(rational(2), (1, 1), 2)
    op = reg["Q12"]
    block = reg.basis.weight_block(1)
    lams = predicted_eigenvalues(reg.params, (1, 2), 1)
    assert annihilating_residual(op, lams, range(block.start, block.start + 1)) == 0
    for cols in (
        range(block.start - 1, block.start + 1),
        range(block.start, block.stop + 1),
        range(block.start, block.start),
        range(block.start, block.stop, 2),
    ):
        with pytest.raises(ValueError):
            annihilating_residual(op, lams, cols)


# -- one quotient-membership test per seed ------------------------------

CHAIN_PARAMS = {
    "default": RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=5),
    "legs3": RepParams(q=parse("5/3"), k=(1, 2, 1), legs=3, n_max=5),
}


def _seeds(basis, lo, w):
    return [j for j in basis.weight_block(w) if basis.states[j][lo - 1] == 0]


def _chain(p, interval, lams, op=None, e=None, count=None):
    op = casimir(p, interval) if op is None else op
    e = interval_ops(p, interval)["E"] if e is None else e
    return chain_counts(op, e, interval, lams, count)


@pytest.mark.parametrize("params", CHAIN_PARAMS)
@pytest.mark.parametrize("variant", ["predicted", "shifted", "dropped"])
def test_chain_counts_equal_whole_block_counts(params, variant):
    # every block reports its whole-block count; with the predicted
    # eigenvalues every block from weight 1 on is certified from its seeds
    p = CHAIN_PARAMS[params]
    for interval in consecutive_subsets(p.legs):
        op = casimir(p, interval)
        lams = {
            w: _variants(predicted_eigenvalues(p, interval, w))[variant]
            for w in range(p.n_max + 1)
        }
        blocks = _chain(p, interval, lams)
        for w, got in blocks.items():
            block = p.basis.weight_block(w)
            assert got.nonzero == annihilating_residual(op, lams[w], block), (interval, w)
            if variant == "predicted":
                assert got.nonzero == 0
                assert got.certified == (w >= 1)
                lifted = len(_seeds(p.basis, interval[0], w)) if w else len(block)
                assert got.columns == lifted
            else:
                assert got.columns == len(block) and not got.certified


def test_diagonal_operator_right_only_on_seeds_reports_its_whole_count():
    # lambda_0 on the seed states and lambda_0 + 1/den elsewhere: the
    # seeds are annihilated but the operator does not commute with E,
    # so the certificate refuses and every column is counted
    p = CHAIN_PARAMS["default"]
    interval = (1, 3)
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
    lam0 = lams[0][0]
    wrong = lam0 + rational(1, lam0.denominator)
    diag = SparseOperator.diagonal(p.basis, lambda j: wrong if p.basis.states[j][0] else lam0)
    blocks = _chain(p, interval, lams, op=diag)
    for w, got in blocks.items():
        block = p.basis.weight_block(w)
        whole = annihilating_residual(diag, lams[w], block)
        assert whole == len(block) - len(_seeds(p.basis, 1, w))
        assert got == (whole, len(block), False)
        assert annihilating_residual(diag, lams[w], range(block.start, block.start + 1)) == 0


def _without_entry(e, row, col):
    cols = {j: dict(c) for j, c in e.cols.items()}
    del cols[col][row]
    return SparseOperator._raw(e.basis, cols, e.degree, e.den)


def test_zeroed_lo_leg_entry_of_e_refuses_the_certificate():
    p = CHAIN_PARAMS["default"]
    basis = p.basis
    lams = {w: predicted_eigenvalues(p, (1, 3), w) for w in range(p.n_max + 1)}
    row = basis.index_of((1, 1, 1, 0))  # block 3
    col = basis.index_of((0, 1, 1, 0))
    e = interval_ops(p, (1, 3))["E"]
    assert e.cols[col][row]
    bad = _without_entry(e, row, col)
    assert spanned_by_lifting(e, 1, 3) and not spanned_by_lifting(bad, 1, 3)
    blocks = _chain(p, (1, 3), lams, e=bad)
    assert not any(b.certified for b in blocks.values())
    # Q1 is a scalar and commutes with any E, so only (b) refuses block
    # 3, and every block from there up is counted whole
    lams1 = {w: predicted_eigenvalues(p, (1, 1), w) for w in range(p.n_max + 1)}
    e1 = interval_ops(p, (1, 1))["E"]
    bad1 = _without_entry(e1, row, col)
    blocks = _chain(p, (1, 1), lams1, e=bad1)
    assert [b.certified for b in blocks.values()] == [w in (1, 2) for w in lams1]
    for w in range(3, p.n_max + 1):
        assert blocks[w] == (0, len(basis.weight_block(w)), False)


def test_list_that_does_not_extend_the_previous_one_is_counted_whole():
    # block 2 carries one surplus factor: it still annihilates block 2,
    # but block 2's list is no longer block 1's plus one value, nor is
    # block 3's block 2's plus one value; the chain stays broken above
    p = CHAIN_PARAMS["default"]
    lams = {w: predicted_eigenvalues(p, (1, 4), w) for w in range(p.n_max + 1)}
    lams[2] = lams[2] + [rational(7)]
    blocks = _chain(p, (1, 4), lams)
    basis = p.basis
    assert blocks[1] == (0, len(_seeds(basis, 1, 1)), True)
    for w in range(2, p.n_max + 1):
        assert blocks[w] == (0, len(basis.weight_block(w)), False)


def test_block_after_a_failed_block_is_counted_whole(monkeypatch):
    # one seed of block 2 refused: block 3's seeds all pass, but block 2
    # was not certified (d)
    p = CHAIN_PARAMS["default"]
    basis = p.basis
    first = basis.weight_block(2).start
    real = spectra.seed_in_lift

    def refusing(op, e, lo, s, lam):
        return s != first and real(op, e, lo, s, lam)

    monkeypatch.setattr(spectra, "seed_in_lift", refusing)
    lams = {w: predicted_eigenvalues(p, (1, 4), w) for w in range(p.n_max + 1)}
    blocks = _chain(p, (1, 4), lams)
    assert blocks[1] == (0, len(_seeds(basis, 1, 1)), True)
    for w in range(2, p.n_max + 1):
        assert blocks[w] == (0, len(basis.weight_block(w)), False)


@pytest.mark.parametrize("interval", [(1, 3), (2, 3), (2, 4)])
def test_wrong_value_at_one_interval_weight_falls_back_from_its_block(interval):
    # block 3's value for A-weight 3 moved by 1/den: the list still
    # extends block 2's (c), but the A-weight-3 seeds fail their
    # membership test (e), and every block from 3 up reports the
    # whole-block count
    p = CHAIN_PARAMS["default"]
    basis = p.basis
    op = casimir(p, interval)
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
    lams[3][3] += rational(1, lams[3][3].denominator)
    assert lams[3][:-1] == lams[2]
    blocks = _chain(p, interval, lams)
    for w, got in blocks.items():
        block = basis.weight_block(w)
        assert got.nonzero == annihilating_residual(op, lams[w], block)
        assert got.certified == (w in (1, 2))
        assert got.columns == (len(_seeds(basis, interval[0], w)) if got.certified else len(block))
    assert blocks[3].nonzero > 0


def test_seeds_that_pass_under_lists_that_do_not_extend_are_refused():
    # Q12 plus the quanta on legs 3 and 4 commutes with E and keeps the
    # A-weight; on the seeds of A-weight a in block w it is lambda_a +
    # (w - a) modulo E, so every seed passes under lists that do not
    # extend each other, yet P_w is not zero: (c) must refuse
    p = CHAIN_PARAMS["default"]
    basis = p.basis
    interval = (1, 2)
    outside = SparseOperator.diagonal(basis, lambda j: rational(sum(basis.states[j][2:])))
    op = casimir(p, interval) + outside
    e = interval_ops(p, interval)["E"]
    lams = {
        w: [lam + (w - a) for a, lam in enumerate(predicted_eigenvalues(p, interval, w))]
        for w in range(p.n_max + 1)
    }
    for w in range(1, p.n_max + 1):
        assert all(spectra.seed_in_lift(op, e, 1, s, lams[w][basis.states[s][1]]) for s in _seeds(basis, 1, w))
    blocks = _chain(p, interval, lams, op=op)
    for w, got in blocks.items():
        block = basis.weight_block(w)
        assert got == (annihilating_residual(op, lams[w], block), len(block), False)
        assert (got.nonzero > 0) == (w >= 1)


def test_entry_breaking_the_interval_weight_refuses_the_certificate(monkeypatch):
    # Q12 with one entry off the seeds that moves A-weight 1 to A-weight
    # 0 inside block 2; with (a) taken as given, (a') alone must refuse
    p = CHAIN_PARAMS["default"]
    basis = p.basis
    interval = (1, 2)
    op = casimir(p, interval)
    e = interval_ops(p, interval)["E"]
    a_weight = [m[0] + m[1] for m in basis.states]
    row, col = basis.index_of((0, 0, 2, 0)), basis.index_of((1, 0, 1, 0))
    cols = {j: dict(c) for j, c in op.cols.items()}
    cols[col][row] = op.den
    bad = SparseOperator._raw(basis, cols, op.degree, op.den)
    assert keeps_interval_weight(op, e, a_weight) and not keeps_interval_weight(bad, e, a_weight)
    monkeypatch.setattr(spectra, "commutes_below_top", lambda op, e: True)
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
    blocks = _chain(p, interval, lams, op=bad)
    for w, got in blocks.items():
        block = basis.weight_block(w)
        assert got == (annihilating_residual(bad, lams[w], block), len(block), False)
    assert blocks[2].nonzero > 0
    # the seeds alone would have passed
    assert all(spectra.seed_in_lift(bad, e, 1, s, lams[2][a_weight[s]]) for s in _seeds(basis, 1, 2))


def test_single_block_has_no_chain():
    p = CHAIN_PARAMS["default"]
    reg = build_registry(p)
    rep = check_annihilating(reg, (1, 4), 3)
    assert rep.residual_summary == {
        "nonzero_entries": 0,
        "sample": None,
        "columns_computed": len(p.basis.weight_block(3)),
        "certificate_held": False,
    }


def test_reports_compute_the_seed_columns_of_leg_lo(monkeypatch):
    # the polynomial runs on block 0 alone; every later block tests its
    # seeds (no quanta on leg lo), one membership test each
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=3)
    reg = build_registry(p)
    computed = []

    def recording(op, lams, cols):
        computed.extend(cols)
        return annihilating_residual(op, lams, cols)

    monkeypatch.setattr(spectra, "annihilating_residual", recording)
    for interval in consecutive_subsets(p.legs):
        computed.clear()
        reports = spectrum_reports(reg, interval, range(p.n_max + 1))
        assert computed == list(p.basis.weight_block(0))
        assert [r.residual_summary["columns_computed"] for r in reports] == [
            len(_seeds(p.basis, interval[0], w)) for w in range(p.n_max + 1)
        ], interval
        assert [r.residual_summary["certificate_held"] for r in reports] == [False, True, True, True]
