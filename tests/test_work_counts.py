"""Deterministic work counts of a serial verify at nmax 3, per suite:
the registry residuals evaluated (GeneratorRegistry.residual calls with
terms) and the sparse kernel calls (SparseOperator.lincomb).  Counts
repeat exactly where wall times do not, so a change that evaluates a
pair the registry has already decided, or forms a product a rule
spares, fails here."""

import pytest

from awalgebra import cli
from awalgebra.exactnum import parse
from awalgebra.opalgebra import GeneratorRegistry
from awalgebra.sparse import SparseOperator
from awalgebra.uqrep import RepParams
from helpers import clear_operator_caches

# suite -> (residuals with terms, lincomb calls), from operator caches
# emptied before the run.  prop1 builds the registry and its quotient:
# 11 of its lincombs are the certificate's products
COUNTS = {
    "default": {
        "defining": (0, 88),
        "prop1": (10, 36),
        "prop2": (10, 20),
        "aw3": (32, 36),
        "aw3-quadratic": (2, 54),
        "master": (20, 80),
        "spectra": (0, 63),
        "independence": (0, 0),
    },
}
COUNTS["q=-2/5"] = {**COUNTS["default"], "spectra": (0, 57)}
PARAMS = {
    "default": RepParams(q=parse("5/3"), k=cli.DEFAULT_K, legs=4, n_max=3),
    "q=-2/5": RepParams(q=parse("-2/5"), k=(2, 1, 1, 1), legs=4, n_max=3),
}


@pytest.mark.parametrize("name", PARAMS)
def test_serial_verify_work_counts(name, monkeypatch):
    residuals, lincombs = [], []
    real_residual, real_lincomb = GeneratorRegistry.residual, SparseOperator.lincomb.__func__
    monkeypatch.setattr(
        GeneratorRegistry, "residual", lambda self, terms: (terms and residuals.append(1)) or real_residual(self, terms)
    )
    monkeypatch.setattr(SparseOperator, "lincomb", classmethod(lambda *args: lincombs.append(1) or real_lincomb(*args)))
    clear_operator_caches()
    got = {}
    try:
        for suite, reports, _ in cli.suite_results(cli.SUITE_ORDER, PARAMS[name], False):
            assert all(r.ok for r in reports), suite
            got[suite] = (len(residuals), len(lincombs))
            del residuals[:], lincombs[:]
    finally:
        clear_operator_caches()
    assert got == COUNTS[name]
