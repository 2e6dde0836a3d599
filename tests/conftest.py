"""Shared fixtures: session-scoped operator registries at the two reference
parameter sets, plus the leading-block probe for orientation searches."""

import pytest

from awalgebra.exactnum import rational
from awalgebra.opalgebra import build_registry
from awalgebra.uqrep import RepParams


def _registry(q, k, legs, n_max):
    return build_registry(RepParams(q=q, k=k, legs=legs, n_max=n_max))


@pytest.fixture(scope="session")
def default_registry():
    """Generic parameters, full truncation depth."""
    return _registry(rational(5, 3), (1, 2, 1, 3), legs=4, n_max=6)


@pytest.fixture(scope="session")
def alt_registry():
    """Second parameter set: q below one, different weights."""
    return _registry(rational(2, 5), (2, 1, 1, 1), legs=4, n_max=6)


@pytest.fixture(scope="session")
def default_probe(default_registry):
    """Weight blocks <= 3 of default_registry, with its quotient
    restricted alike (GeneratorRegistry.restricted)."""
    return default_registry.restricted(3)


@pytest.fixture(scope="session")
def leg3_registry():
    """Three-leg realization used for the standalone cubic-pair checks."""
    return _registry(rational(5, 3), (1, 2, 1), legs=3, n_max=5)


@pytest.fixture
def announce(capsys):
    """Print one verdict line per acceptance criterion, bypassing capture,
    then assert."""

    def _announce(criterion, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{criterion}] {status} {detail}", flush=True)
        assert ok, f"{criterion}: {detail}"

    return _announce
