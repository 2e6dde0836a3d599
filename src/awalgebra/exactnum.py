"""Exact rational scalars: parameters, eigenvalues, operator entries as
read and written at the boundaries of the sparse kernel.

The operator arithmetic itself runs on Python ints over a shared
denominator (see sparse.py), so the choice of backend here matters only
for scalar work: q and its powers, eigenvalue predictions, parsing and
printing.  gmpy2's mpq is used when installed, stdlib
fractions.Fraction otherwise; both keep values canonical (positive
denominator, gcd(numerator, denominator) = 1) and both raise
ZeroDivisionError on a zero denominator.
"""

from __future__ import annotations

import re

try:
    from gmpy2 import mpq as Rational

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rational

    BACKEND = "fractions"

ZERO = Rational(0)
ONE = Rational(1)

_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rational(num, den=1):
    """Exact rational num/den in canonical form."""
    return Rational(num, den)


def inverse(a):
    """Multiplicative inverse; ZeroDivisionError at zero."""
    return ONE / a


def parse(text):
    """Parse "a" or "a/b" (optional sign on the numerator only).

    Anything outside that grammar is a ValueError; a zero denominator
    is a ZeroDivisionError.
    """
    if not isinstance(text, str) or not _LITERAL.fullmatch(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Rational(text.lstrip("+"))


def to_text(a) -> str:
    """Canonical text form, parse(to_text(a)) == a."""
    if a.denominator == 1:
        return str(a.numerator)
    return f"{a.numerator}/{a.denominator}"
