"""Per-leg action of the q-deformed lowest-weight ladder algebra,
interval operators assembled through the coproduct, and the shifted and
unshifted Casimir operators.

Single-leg action on the occupation states e_n, for a leg of weight
label k >= 1:

    K e_n    = q^(k+n) e_n
    Kinv e_n = q^-(k+n) e_n
    F e_n    = e_(n-1)        (F e_0 = 0)
    E e_n    = A_n e_(n+1)

    A_n = -q^(-1-2k-2n) (1 - q^(2n+2)) (1 - q^(4k+2n)) / (q^-1 - q)^2

This is the usual square-root-normalized ladder action rescaled by a
diagonal gauge so that F has unit entries and E absorbs the product of
the raising and lowering coefficients.  The rescaling is conjugation by
a diagonal matrix, so every algebra relation, every Casimir entry and
every spectrum is untouched, while all matrix entries become rational
in q.

Multi-leg operators on a consecutive interval of legs come from
iterating the comultiplication

    Delta(E) = K (x) E + E (x) Kinv
    Delta(F) = K (x) F + F (x) Kinv
    Delta(K) = K (x) K

which may be folded from the left or from the right; coassociativity
says the two brackets agree, and the verification suites check that.

Truncation: E out of the top weight block is cut off.  Compositions
where F acts first (E*F, hence every Casimir) are exact on the whole
truncated space; relations that apply E first (the [E, F] commutator)
are exact on columns of weight <= n_max - 1 and are checked there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .exactnum import ONE, Rational
from .fockspace import TruncatedBasis
from .sparse import SparseOperator

GENERATOR_NAMES = ("E", "F", "K", "Kinv")

# Entries kept by the basis cache (keyed on shape) and by each of the
# four operator caches below.  They are keyed on parameter values, so
# equal parameters share one entry across runs in a process; the bound
# drops the least recently used parameter sets and keeps a long-lived
# process from holding all of them.  One default
# verify run fills at most 19 entries of any of them (interval_ops: 10
# left and 3 right folds at four legs, 6 left folds for the three-leg
# sub-realization; casimir 16, _leg_ops 7, casimir_unshifted 6).
CACHE_SIZE = 32


@dataclass(frozen=True)
class RepParams:
    """One realization: deformation parameter q, one integer weight label
    per leg, the number of legs and the truncation n_max.

    q must be exact (int, Fraction or the backend's Rational) and is
    stored as the backend's Rational; bools are rejected in q and k.
    Compared and hashed by these values, which key the operator caches.
    """

    q: object
    k: tuple[int, ...]
    legs: int
    n_max: int

    def __post_init__(self):
        object.__setattr__(self, "k", tuple(self.k))
        if self.legs not in (2, 3, 4):
            raise ValueError(f"legs must be 2, 3 or 4, got {self.legs}")
        if len(self.k) != self.legs:
            raise ValueError(
                f"need one weight label per leg: got {len(self.k)} for {self.legs}"
            )
        if not all(_is_integer(x) and x >= 1 for x in self.k):
            raise ValueError(f"weight labels must be integers >= 1, got {self.k}")
        q = self.q
        if not (_is_integer(q) or isinstance(q, (Fraction, Rational))):
            raise ValueError(f"q must be an exact rational, got {q!r}")
        q = Rational(q)
        object.__setattr__(self, "q", q)
        if q == 0 or q == 1 or q == -1:
            raise ValueError("q must be nonzero and not a root of unity")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @cached_property
    def basis(self) -> TruncatedBasis:
        """The truncated occupation basis every operator lives on, one
        object per shape (legs, n_max) while it stays in the cache."""
        return _basis(self.legs, self.n_max)

    def interval_weight(self, interval) -> int:
        """Sum of the weight labels over an interval of legs."""
        lo, hi = check_interval(self, interval)
        return sum(self.k[lo - 1 : hi])


@lru_cache(maxsize=CACHE_SIZE)
def _basis(legs: int, n_max: int) -> TruncatedBasis:
    return TruncatedBasis(legs, n_max)


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def check_interval(p: RepParams, interval):
    lo, hi = interval
    if not (1 <= lo <= hi <= p.legs):
        raise ValueError(f"interval {interval} not within legs 1..{p.legs}")
    return lo, hi


def primitive_generator(p: RepParams, leg: int, which: str) -> SparseOperator:
    """Generator acting on a single leg, identity on all others."""
    if not 1 <= leg <= p.legs:
        raise ValueError(f"leg {leg} not within 1..{p.legs}")
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
    elif which == "E":
        denom = (ONE / q - q) ** 2
        for j, m in enumerate(basis.states):
            if basis.weights[j] >= basis.n_max:
                continue  # raising out of the truncation is cut off
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
    else:
        raise ValueError(f"unknown generator {which!r}")
    return SparseOperator(basis, cols, degree)


def _couple(left: dict, right: dict) -> dict:
    """Coproduct combination of two adjacent leg groups."""
    lk, rki = left["K"], right["Kinv"]

    def fold(x):
        return SparseOperator.lincomb(lk.basis, ((1, lk, right[x]), (1, left[x], rki)))

    return {
        "E": fold("E"),
        "F": fold("F"),
        "K": left["K"] * right["K"],
        "Kinv": left["Kinv"] * right["Kinv"],
    }


@lru_cache(maxsize=CACHE_SIZE)
def _leg_ops(p: RepParams, leg: int) -> dict:
    return {w: primitive_generator(p, leg, w) for w in GENERATOR_NAMES}


@lru_cache(maxsize=CACHE_SIZE)
def interval_ops(p: RepParams, interval, assembly: str = "left") -> dict:
    """All four generators on a consecutive interval of legs.

    assembly picks the coproduct folding order, "left" for
    ((1 (x) 2) (x) 3) ... or "right" for ... (1 (x) (2 (x) 3)); the two
    agree by coassociativity.  Returned dicts are shared and cached;
    treat them as read-only.
    """
    lo, hi = check_interval(p, interval)
    if assembly not in ("left", "right"):
        raise ValueError(f"unknown assembly order {assembly!r}")
    per_leg = [_leg_ops(p, leg) for leg in range(lo, hi + 1)]
    if assembly == "left":
        acc = per_leg[0]
        for nxt in per_leg[1:]:
            acc = _couple(acc, nxt)
    else:
        acc = per_leg[-1]
        for prev in reversed(per_leg[:-1]):
            acc = _couple(prev, acc)
    return acc


@lru_cache(maxsize=CACHE_SIZE)
def casimir(p: RepParams, interval) -> SparseOperator:
    """Shifted Casimir of an interval:

        -(q^-1 K^2 + q K^-2 + (q - q^-1)^2 E F) / (q + q^-1)

    Block diagonal (degree 0) and exact on the whole truncated space,
    since F acts before the truncated E.  On a single leg of weight
    label k it is the scalar -(q^(2k-1) + q^(1-2k)) / (q + q^-1).
    """
    ops = interval_ops(p, interval)
    q = p.q
    iq = ONE / q
    s2 = (q - iq) ** 2
    t = q + iq
    k, ki = ops["K"], ops["Kinv"]
    return SparseOperator.lincomb(
        p.basis,
        ((-iq / t, k, k), (-q / t, ki, ki), (-s2 / t, ops["E"], ops["F"])),
    )


@lru_cache(maxsize=CACHE_SIZE)
def casimir_unshifted(p: RepParams, interval) -> SparseOperator:
    """Unshifted Casimir of an interval:

        (q^-1 K^2 + q K^-2 - 2) / (q - q^-1)^2 + E F

    computed as the affine image of the shifted one, inverting
    shifted = -((q - q^-1)^2 unshifted + 2) / (q + q^-1).
    """
    q = p.q
    iq = ONE / q
    s2 = (q - iq) ** 2
    t = q + iq
    return SparseOperator.lincomb(
        p.basis,
        ((-t / s2, casimir(p, interval)), (-2 / s2, SparseOperator.identity(p.basis))),
    )
