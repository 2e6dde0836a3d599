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

Every entry depends on q, the leg's label k and its occupation n
alone, so each generator is filled from a table of at most n_max + 1
values, one per n, written as int numerators over the table's common
denominator (leg_table), which every leg of that label shares, through
the leg's index map of entry positions, which every basis of that
shape shares.

Multi-leg operators on a consecutive interval of legs come from
iterating the comultiplication

    Delta(E) = K (x) E + E (x) Kinv
    Delta(F) = K (x) F + F (x) Kinv
    Delta(K) = K (x) K

which may be folded from the left or from the right; coassociativity
says the two brackets agree, and the verification suites check that.
Each fold is one coupling away from a cached fold one leg shorter
(interval_ops), so the ten left folds of four legs take six couplings
and the three right folds three more.

Truncation: E out of the top weight block is cut off.  Compositions
where F acts first (E*F, hence every Casimir) are exact on the whole
truncated space; relations that apply E first (the [E, F] commutator)
are exact on columns of weight <= n_max - 1 and are checked there.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .exactnum import ONE, Rational, inverse
from .fockspace import TruncatedBasis
from .sparse import SparseOperator

GENERATOR_NAMES = ("E", "F", "K", "Kinv")

# Weight degree of each generator: E raises the weight, F lowers it.
DEGREE = {"E": 1, "F": -1, "K": 0, "Kinv": 0}

# Entries kept by each cache below: the basis cache (keyed on shape),
# the leg tables (q, label, n_max, generator), the index maps (shape,
# leg), the four operator caches and the eigenvalues (q, kappa).  They
# are keyed on values, so equal parameters share one entry across runs
# in a process; the bound drops the least recently used entries and
# keeps a long-lived process from holding all of them.  32 entries
# hold all that one serial verify with four distinct labels, or the
# spectrum of all ten labels in one process, makes, so neither evicts
# an entry it reads again (tests/test_uqrep.py,
# test_one_command_evicts_nothing).  A forked verify empties the fold
# and leg caches in the verify process once its second worker holds its
# copy, unless that process's own suites read the folds
# (cli.suite_results, clear_fold_caches).
CACHE_SIZE = 32


class _Fields(NamedTuple):
    q: object
    k: tuple
    legs: int
    n_max: int


class RepParams(_Fields):
    """One realization: deformation parameter q, one integer weight label
    per leg, the number of legs and the truncation n_max.

    q must be exact (int, Fraction or the backend's Rational) and is
    stored as the backend's Rational; bools are rejected in q and k.
    An immutable named tuple, compared and hashed by these values, which
    key the operator caches.  Every way to make one validates: the
    constructor, replace (and the named tuple's _replace and _make) and
    unpickling.
    """

    __slots__ = ()

    def __new__(cls, q, k, legs, n_max):
        k = tuple(k)
        if legs not in (1, 2, 3, 4):
            raise ValueError(f"legs must be 1, 2, 3 or 4, got {legs}")
        if len(k) != legs:
            raise ValueError(f"need one weight label per leg: got {len(k)} for {legs}")
        if not all(_is_integer(x) and x >= 1 for x in k):
            raise ValueError(f"weight labels must be integers >= 1, got {k}")
        if not (_is_integer(q) or isinstance(q, (Fraction, Rational))):
            raise ValueError(f"q must be an exact rational, got {q!r}")
        q = Rational(q)
        if q == 0 or q == 1 or q == -1:
            raise ValueError("q must be nonzero and not a root of unity")
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        return super().__new__(cls, q, k, legs, n_max)

    @classmethod
    def _make(cls, iterable):
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    def replace(self, **changes) -> RepParams:
        """These parameters with the given fields changed, validated as
        a new set."""
        return self._replace(**changes)

    @property
    def basis(self) -> TruncatedBasis:
        """The truncated occupation basis every operator lives on, one
        object per shape (legs, n_max) while it stays in the cache."""
        return _basis(self.legs, self.n_max)

    def interval_realization(self, interval) -> RepParams:
        """p_A of the slice lemma (lifting.py): the legs lo..hi alone,
        with their weight labels, the same q and the same n_max."""
        lo, hi = check_interval(self, interval)
        return RepParams(self.q, self.k[lo - 1 : hi], hi - lo + 1, self.n_max)

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


@lru_cache(maxsize=CACHE_SIZE)
def leg_table(q, k: int, n_max: int, which: str) -> tuple:
    """(nums, den): the entries of generator which on a leg of weight
    label k, one per occupation n of that leg (the module doc), as int
    numerators over their common denominator.  They depend on q, the
    label and n alone, the premise of the slice lemma (lifting.py), so
    every leg of every realization with this label shares the table.
    No numerator is zero: q is nonzero and no root of unity."""
    if which in ("K", "Kinv"):
        sign = 1 if which == "K" else -1
        table = [q ** (sign * (k + n)) for n in range(n_max + 1)]
    elif which == "F":
        table = [ONE] * (n_max + 1)
    elif which == "E":
        denom = (ONE / q - q) ** 2
        table = [
            -(q ** (-1 - 2 * k - 2 * n))
            * (1 - q ** (2 * n + 2))
            * (1 - q ** (4 * k + 2 * n))
            / denom
            for n in range(n_max)
        ]
    else:
        raise ValueError(f"unknown generator {which!r}")
    den = lcm(*(int(v.denominator) for v in table))
    return tuple(int(v.numerator) * (den // int(v.denominator)) for v in table), den


@lru_cache(maxsize=CACHE_SIZE)
def _leg_entries(basis: TruncatedBasis, leg: int) -> dict:
    """degree -> the (column, row, occupation n of the column's state)
    of every entry of a generator of that degree on one leg: K and Kinv
    (0), F (-1) and E (1), whose raising out of the truncation (the top
    weight block) is cut off.  Cached per basis shape and leg."""
    ax = leg - 1
    states, index_of, n_max = basis.states, basis.index_of, basis.n_max
    return {
        0: [(j, j, m[ax]) for j, m in enumerate(states)],
        -1: [
            (j, index_of(m[:ax] + (m[ax] - 1,) + m[ax + 1 :]), m[ax])
            for j, m in enumerate(states)
            if m[ax] >= 1
        ],
        1: [
            (j, index_of(m[:ax] + (m[ax] + 1,) + m[ax + 1 :]), m[ax])
            for j, m in enumerate(states)
            if basis.weights[j] < n_max
        ],
    }


def primitive_generator(p: RepParams, leg: int, which: str) -> SparseOperator:
    """Generator acting on a single leg, identity on all others, filled
    from its label's table (leg_table) through the leg's index map."""
    if not 1 <= leg <= p.legs:
        raise ValueError(f"leg {leg} not within 1..{p.legs}")
    nums, den = leg_table(p.q, p.k[leg - 1], p.n_max, which)
    degree = DEGREE[which]
    basis = p.basis
    cols = {j: {i: nums[n]} for j, i, n in _leg_entries(basis, leg)[degree]}
    # canonical as it stands: the table's numerators over the lcm of its
    # denominators share no factor with it, and every entry occurs
    return SparseOperator._raw(basis, cols, degree, den)


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
    agree by coassociativity.  Each fold extends a cached fold one leg
    shorter by one coupling: the left fold of lo..hi couples the left
    fold of lo..hi-1 with leg hi, the right fold couples leg lo with
    the right fold of lo+1..hi.  Two legs have one bracketing, which
    is the left fold's, under the left fold's cache key.  Returned
    dicts are shared and cached; treat them as read-only.
    """
    lo, hi = check_interval(p, interval)
    if assembly not in ("left", "right"):
        raise ValueError(f"unknown assembly order {assembly!r}")
    if lo == hi:
        return _leg_ops(p, lo)
    if assembly == "left":
        return _couple(interval_ops(p, (lo, hi - 1)), _leg_ops(p, hi))
    if hi - lo == 1:
        return interval_ops(p, (lo, hi))
    rest = (lo + 1, hi)
    right = interval_ops(p, rest, "right") if hi - lo > 2 else interval_ops(p, rest)
    return _couple(_leg_ops(p, lo), right)


# the caches themselves, captured here: the benchmark's layer tracer
# and some tests replace the module's names with plain wrappers that
# have no cache_clear
_FOLD_CACHES = (_leg_ops, interval_ops)


def clear_fold_caches() -> None:
    """Empty the leg-operator and fold caches (_leg_ops, interval_ops).
    The Casimirs stay cached, and a later call rebuilds a fold."""
    for cache in _FOLD_CACHES:
        cache.cache_clear()


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


# typed: an int q would give a float, which must not answer for an
# equal Rational q
@lru_cache(maxsize=CACHE_SIZE, typed=True)
def casimir_eigenvalue(q, kappa: int):
    """Shifted eigenvalue -(q^(2 kappa - 1) + q^(1 - 2 kappa))/(q + q^-1).

    Symmetric under kappa -> 1 - kappa; equals -1 at kappa = 1 for
    every q.  Cached per (q, kappa).
    """
    return -(q ** (2 * kappa - 1) + q ** (1 - 2 * kappa)) / (q + inverse(q))


def predicted_eigenvalues(p, interval, weight: int) -> list:
    """lambda(k_A + x) for x = 0..weight, lambda = casimir_eigenvalue and
    k_A the interval's weight: the eigenvalues of casimir(p, interval)
    on the weight block (spectra.py checks them)."""
    k_a = p.interval_weight(interval)
    return [casimir_eigenvalue(p.q, k_a + x) for x in range(weight + 1)]


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
