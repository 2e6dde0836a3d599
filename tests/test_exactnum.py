import pytest
from hypothesis import given, strategies as st

from awalgebra import exactnum
from awalgebra.exactnum import ONE, ZERO, inverse, parse, rational, to_text


def test_add():
    assert rational(1, 2) + rational(1, 3) == rational(5, 6)


def test_mul():
    assert rational(6, 4) * rational(2, 3) == rational(1)


def test_inverse():
    assert inverse(rational(-2, 7)) == rational(-7, 2)


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        inverse(ZERO)


def test_power():
    # q ** e with negative e builds the leg action
    assert rational(2, 3) ** -2 == rational(9, 4)
    assert rational(2, 3) ** 0 == ONE
    assert rational(-1, 2) ** 3 == rational(-1, 8)


def test_power_zero_negative():
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1


def test_parse():
    assert parse("-6/4") == rational(-3, 2)
    assert parse("7") == rational(7)
    assert parse("+5/3") == rational(5, 3)


def test_parse_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        parse("5/0")


@pytest.mark.parametrize("bad", ["", "1.5", "2/3/4", "a/b", "1/-2", " 1/2", "5/ 3", "5/3\n"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse(bad)


def test_q_combinations():
    # the default deformation parameter of the verification suites
    q = parse("5/3")
    assert q - inverse(q) == rational(16, 15)
    assert q + inverse(q) == rational(34, 15)


rationals = st.builds(
    rational,
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**4),
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert a + (b + c) == (a + b) + c
    assert a * (b * c) == (a * b) * c
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a
    assert a + (-a) == ZERO
    if a != 0:
        assert a * inverse(a) == ONE


@given(rationals)
def test_canonical_form(a):
    import math

    assert a.denominator > 0
    assert math.gcd(int(a.numerator), int(a.denominator)) == 1


@given(rationals)
def test_text_round_trip(a):
    assert parse(to_text(a)) == a


def test_backend_is_exact():
    # 1/3 has no finite binary expansion; exactness is the whole point
    third = rational(1, 3)
    assert third + third + third == ONE
    assert exactnum.BACKEND in ("gmpy2", "fractions")
