import pytest

from awalgebra import spectra
from awalgebra.exactnum import parse, rational
from awalgebra.lifting import seed_states, spanned_by_lifting
from awalgebra.opalgebra import build_registry, consecutive_subsets, label_of_subset
from awalgebra.sparse import SparseOperator
from awalgebra.spectra import annihilating_residual, certified_counts, spectrum_reports
from awalgebra.uqrep import RepParams, casimir, casimir_eigenvalue, interval_ops, predicted_eigenvalues


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


@pytest.mark.parametrize("q", [parse("5/3"), parse("-2/5")])
def test_cached_eigenvalue_equals_the_formula(q):
    casimir_eigenvalue.cache_clear()
    for _ in range(2):  # computed, then taken from the cache
        for kappa in range(1, 21):
            want = -(q ** (2 * kappa - 1) + q ** (1 - 2 * kappa)) / (q + 1 / q)
            assert casimir_eigenvalue(q, kappa) == want
    assert casimir_eigenvalue.cache_info().hits == 20
    # an int q's value, with its float power, does not answer for the
    # equal exact q
    assert isinstance(casimir_eigenvalue(2, 2), float)
    exact = casimir_eigenvalue(rational(2), 2)
    assert exact == rational(-13, 4) and type(exact) is type(rational(2))


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
        rep = spectrum_reports(reg.params, (1, 2), [w])[0]
        assert rep.status == "pass", rep
        assert len(rep.inputs["eigenvalues"]) == w + 1


def test_annihilating_all_intervals_small():
    reg = registry(parse("5/3"), (1, 2, 1), 2)
    for interval in [(1, 1), (2, 2), (3, 3), (1, 2), (2, 3), (1, 3)]:
        for w in range(reg.params.n_max + 1):
            assert spectrum_reports(reg.params, interval, [w])[0].status == "pass"


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
        spectrum_reports(reg.params, (1, 2), [5])[0]


def test_annihilating_counts_an_operator_of_any_degree():
    # a raising operator leaves the block: its product on the block's
    # columns is still defined, and counted
    from awalgebra.spectra import annihilating_residual
    from awalgebra.uqrep import interval_ops

    reg = registry(rational(2), (1, 1), 2)
    raise_op = interval_ops(reg.params, (1, 2))["E"]
    assert annihilating_residual(raise_op, [rational(1)], reg.basis.weight_block(1)) > 0


def _variants(lams):
    """The predicted eigenvalues, one shifted by 1/den, one dropped, and
    the list cut to its first three values."""
    last = lams[-1]
    shifted = lams[:-1] + [last + rational(1, last.denominator)]
    return {"predicted": lams, "shifted": shifted, "dropped": lams[1:], "capped": lams[:3]}


def test_column_range_must_lie_in_one_block():
    # only a whole weight block is accepted
    from awalgebra.spectra import annihilating_residual

    reg = registry(rational(2), (1, 1), 2)
    op = reg["Q12"]
    block = reg.basis.weight_block(1)
    lams = predicted_eigenvalues(reg.params, (1, 2), 1)
    assert annihilating_residual(op, lams, block) == 0
    for cols in (
        range(block.start, block.start + 1),
        range(block.start + 1, block.stop),
        range(block.start - 1, block.start + 1),
        range(block.start, block.stop + 1),
        range(block.start, block.start),
        range(block.start, block.stop, 2),
    ):
        with pytest.raises(ValueError):
            annihilating_residual(op, lams, cols)


# -- one quotient certificate on the interval's own realization --------

CHAIN_PARAMS = {
    "default": RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=5),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=5),
    "legs3": RepParams(q=parse("5/3"), k=(1, 2, 1), legs=3, n_max=5),
}


@pytest.mark.parametrize("params", CHAIN_PARAMS)
def test_registry_interval_entries_are_uqreps_casimirs(params):
    # the spectra suite decides casimir(p, A) and reports it under A's
    # label, with no registry: build_registry must hold that operator
    # under that label, so that a label mix-up there still fails
    p = CHAIN_PARAMS[params]
    held = build_registry(p).held
    for lo, hi in consecutive_subsets(p.legs):
        assert held[label_of_subset(range(lo, hi + 1))] == casimir(p, (lo, hi)), (lo, hi)


def _reports(monkeypatch, p, interval, lams):
    """spectrum_reports on every block of lams (weight -> list), the
    lists read in place of the predicted ones."""
    monkeypatch.setattr(spectra, "predicted_eigenvalues", lambda p, interval, w: lams[w])
    return {r.inputs["weight"]: r.residual_summary for r in spectrum_reports(p, interval, sorted(lams))}


def _whole(p, op, lams):
    """Every block of lams counted whole, with its own column count."""
    out = {}
    for w, values in lams.items():
        block = p.basis.weight_block(w)
        out[w] = {
            "nonzero_entries": annihilating_residual(op, values, block),
            "sample": None,
            "columns_computed": len(block),
            "certificate_held": False,
        }
    return out


def _decide(p, interval, lams):
    sub = p.interval_realization(interval)
    return certified_counts(sub, casimir(sub, (1, sub.legs)), lams)


@pytest.mark.parametrize("params", CHAIN_PARAMS)
@pytest.mark.parametrize("variant", ["predicted", "shifted", "dropped", "capped"])
def test_chain_counts_equal_whole_block_counts(params, variant, monkeypatch):
    # every interval's reports carry the whole-block counts; with the
    # predicted eigenvalues every block is decided on p_A at once, from
    # weight 1 on by its seeds there, and the other lists are refused and
    # counted whole (the capped ones are prefixes of each other, but the
    # top list is too short for the top block)
    p = CHAIN_PARAMS[params]
    for interval in consecutive_subsets(p.legs):
        op = casimir(p, interval)
        lams = {
            w: _variants(predicted_eigenvalues(p, interval, w))[variant]
            for w in range(p.n_max + 1)
        }
        got = _reports(monkeypatch, p, interval, lams)
        whole = _whole(p, op, lams)
        assert {w: s["nonzero_entries"] for w, s in got.items()} == {
            w: s["nonzero_entries"] for w, s in whole.items()
        }, interval
        if variant == "predicted":
            sub = p.interval_realization(interval)
            assert _decide(p, interval, lams) == dict.fromkeys(lams, 0)
            for w, summary in got.items():
                assert summary["nonzero_entries"] == 0
                assert summary["certificate_held"] == (w >= 1)
                lifted = len(seed_states(sub.basis, w)) if w else 1
                assert summary["columns_computed"] == lifted, (interval, w)
        else:
            assert _decide(p, interval, lams) is None
            assert got == whole, interval


@pytest.mark.parametrize("variant", ["predicted", "shifted"])
def test_no_operator_reports_as_uqreps_casimir_built_only_to_count_whole(variant, monkeypatch):
    # p's own Casimir of a sub-interval is built only when the
    # certificate refuses and the blocks are counted whole
    p = CHAIN_PARAMS["default"]
    for interval in ((2, 3), (1, 3)):
        lams = {w: _variants(predicted_eigenvalues(p, interval, w))[variant] for w in range(p.n_max + 1)}
        built = []
        monkeypatch.setattr(spectra, "casimir", lambda *key: built.append(key) or casimir(*key))
        _reports(monkeypatch, p, interval, lams)
        assert ((p, interval) in built) == (variant != "predicted"), interval
        monkeypatch.undo()


def test_diagonal_operator_right_only_on_seeds_reports_its_whole_count():
    # lambda_0 on the seed states and lambda_0 + 1/den elsewhere: the
    # seeds are annihilated but the operator does not commute with E, so
    # the certificate refuses it as p_A's Casimir
    p = CHAIN_PARAMS["default"]
    interval = (1, 3)
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
    lam0 = lams[0][0]
    wrong = lam0 + rational(1, lam0.denominator)

    def diagonal(basis):
        return SparseOperator.diagonal(basis, lambda j: wrong if basis.states[j][0] else lam0)

    sub = p.interval_realization(interval)
    assert certified_counts(sub, diagonal(sub.basis), lams) is None


def _without_entry(e, row, col):
    cols = {j: dict(c) for j, c in e.cols.items()}
    del cols[col][row]
    return SparseOperator._raw(e.basis, cols, e.degree, e.den)


def test_zeroed_lo_leg_entry_of_e_refuses_the_certificate(monkeypatch):
    # an entry of p_A's E on its first leg (the interval's leg lo) that
    # (span) needs: the certificate refuses, even for the scalar Q2
    p = CHAIN_PARAMS["default"]
    for interval, row, col in (((1, 3), (1, 1, 1), (0, 1, 1)), ((2, 2), (3,), (2,))):
        sub = p.interval_realization(interval)
        basis = sub.basis
        lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
        ops = interval_ops(sub, (1, sub.legs))
        i, j = basis.index_of(row), basis.index_of(col)
        w = basis.weights[i]
        assert ops["E"].cols[j][i]
        bad = _without_entry(ops["E"], i, j)
        assert spanned_by_lifting(ops["E"], w) and not spanned_by_lifting(bad, w)
        assert _decide(p, interval, lams) == dict.fromkeys(lams, 0)
        monkeypatch.setattr(spectra, "interval_ops", lambda p, interval: {**ops, "E": bad})
        assert _decide(p, interval, lams) is None
        # every block is counted whole, and still vanishes
        got = _reports(monkeypatch, p, interval, lams)
        assert got == _whole(p, casimir(p, interval), lams)
        assert not any(s["nonzero_entries"] for s in got.values())
        monkeypatch.undo()


def test_list_that_does_not_extend_the_previous_one_is_counted_whole(monkeypatch):
    # block 2 carries one surplus factor: it still annihilates block 2,
    # but its list is not the top list's first three values, so no block
    # is decided on p_A
    p = CHAIN_PARAMS["default"]
    lams = {w: predicted_eigenvalues(p, (1, 4), w) for w in range(p.n_max + 1)}
    lams[2] = lams[2] + [rational(7)]
    assert _decide(p, (1, 4), lams) is None
    got = _reports(monkeypatch, p, (1, 4), lams)
    assert got == _whole(p, casimir(p, (1, 4)), lams)
    assert not any(s["nonzero_entries"] for s in got.values())


@pytest.mark.parametrize("interval", [(1, 3), (2, 3), (2, 4)])
def test_wrong_value_at_one_interval_weight_falls_back_from_its_block(interval, monkeypatch):
    # the value for A-weight 3 moved by 1/den in every list from block 3
    # on: each list is still the top list's prefix, but p_A's Casimir is
    # not that value on M_3, (iv) refuses, and every block is counted
    # whole, nonzero from block 3 on
    p = CHAIN_PARAMS["default"]
    lams = {w: predicted_eigenvalues(p, interval, w) for w in range(p.n_max + 1)}
    moved = lams[3][3] + rational(1, lams[3][3].denominator)
    for w in range(3, p.n_max + 1):
        lams[w][3] = moved
    assert _decide(p, interval, lams) is None
    got = _reports(monkeypatch, p, interval, lams)
    assert got == _whole(p, casimir(p, interval), lams)
    assert [s["nonzero_entries"] > 0 for s in got.values()] == [w >= 3 for w in lams]


def test_single_block_has_no_chain():
    # a block asked for alone is decided on p_A, from the lists up to it
    p = CHAIN_PARAMS["default"]
    for interval, seeds in (((1, 4), 10), ((2, 3), 1), ((3, 3), 0)):
        rep = spectrum_reports(p, interval, [3])[0]
        sub = p.interval_realization(interval)
        assert len(seed_states(sub.basis, 3)) == seeds
        assert rep.residual_summary == {
            "nonzero_entries": 0,
            "sample": None,
            "columns_computed": seeds,
            "certificate_held": True,
        }, interval


def test_reports_compute_the_seed_columns_of_leg_lo(monkeypatch):
    # the polynomial runs on block 0 alone; every later block is
    # decided by p_A's seeds (no quanta on its first leg, the interval's
    # leg lo)
    p = RepParams(q=parse("5/3"), k=(1, 2, 1, 3), legs=4, n_max=3)
    computed = []

    def recording(op, lams, cols):
        computed.extend(cols)
        return annihilating_residual(op, lams, cols)

    monkeypatch.setattr(spectra, "annihilating_residual", recording)
    for interval in consecutive_subsets(p.legs):
        computed.clear()
        reports = spectrum_reports(p, interval, range(p.n_max + 1))
        sub = p.interval_realization(interval)
        assert computed == list(p.basis.weight_block(0))
        assert [r.residual_summary["columns_computed"] for r in reports] == [1] + [
            len(seed_states(sub.basis, w)) for w in range(1, p.n_max + 1)
        ], interval
        assert [r.residual_summary["certificate_held"] for r in reports] == [False, True, True, True]
