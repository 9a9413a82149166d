import random
from fractions import Fraction
from math import floor, gcd, ulp

import pytest
from hypothesis import assume, given, settings, strategies as st

from phiplane.field import (HALF, ONE, PHI, QPhi, ZERO, FieldError, cmp,
                            phi_power, sgn_affine, _fib_pair)


def test_normal_form_and_equality():
    x = QPhi(Fraction(1, 2), 3)
    assert x.a == Fraction(1, 2) and x.b == 3
    assert QPhi(2, 0) == 2
    assert QPhi(0, 1) == PHI
    assert hash(QPhi(1, 2)) == hash(QPhi(Fraction(1), Fraction(2)))


def test_phi_squared_is_phi_plus_one():
    assert PHI * PHI == PHI + 1


def test_product_reduction():
    # (1 + 2 phi)(3 + phi): a1a2 + b1b2 = 5, cross + b1b2 = 9
    assert QPhi(1, 2) * QPhi(3, 1) == QPhi(5, 9)


def test_inverse_and_division():
    x = QPhi(Fraction(2, 3), Fraction(-5, 7))
    assert x * x.inverse() == ONE
    assert (x / x) == ONE
    assert ONE / PHI == PHI - 1   # 1/phi = phi - 1


def test_division_by_zero():
    with pytest.raises(FieldError):
        ZERO.inverse()
    with pytest.raises(FieldError):
        QPhi(1) / QPhi(0)


def test_sign_near_phi():
    # F_n*phi - F_{n+1} is tiny but nonzero, alternating around zero
    for n in range(1, 25):
        fn, fn1 = _fib_pair(n)
        v = QPhi(-(fn + fn1), fn)
        assert v.sign() == (1 if n % 2 == 1 else -1)
    assert QPhi(0).sign() == 0


def test_total_order():
    assert PHI > 1
    assert PHI < 2
    assert QPhi(0, -1) < 0
    vals = [QPhi(1), PHI, QPhi(2), PHI + 1, QPhi(0)]
    assert sorted(vals) == [QPhi(0), QPhi(1), PHI, QPhi(2), PHI + 1]


def test_floor_frac():
    n, f = PHI.floor_frac()
    assert n == 1 and f == PHI - 1
    n, f = (-PHI).floor_frac()
    assert n == -2 and f == 2 - PHI
    n, f = QPhi(Fraction(7, 2)).floor_frac()
    assert n == 3 and f == HALF
    x = QPhi(Fraction(-3, 4), Fraction(5, 3))
    n, f = x.floor_frac()
    assert x == f + n and ZERO <= f < ONE


def test_floor_matches_float_oracle():
    rng = random.Random(3)
    for _ in range(300):
        x = QPhi(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                 Fraction(rng.randint(-50, 50), rng.randint(1, 20)))
        assert x.__floor__() == floor(float(x.approx(120)))


def test_phi_power():
    assert phi_power(0) == ONE
    assert phi_power(1) == PHI
    assert phi_power(2) == PHI + 1
    assert phi_power(-1) == PHI - 1
    assert phi_power(-2) == 2 - PHI
    for j in range(-12, 13):
        for k in range(-12, 13):
            assert phi_power(j) * phi_power(k) == phi_power(j + k)


def test_approx_precision():
    v = PHI.approx(200)
    assert abs(v * v - v - 1) < Fraction(1, 2 ** 190)


def test_serialization_roundtrip():
    x = QPhi(Fraction(-7, 12), Fraction(22, 5))
    assert QPhi.from_ints(x.to_ints()) == x


def test_immutability():
    with pytest.raises(AttributeError):
        PHI.a = Fraction(1)


# -- property tests against a Fraction-pair reference -------------------


def ref_mul(x, y):
    (a1, b1), (a2, b2) = x, y
    return (a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def ref_inverse(x):
    a, b = x
    n = a * a + a * b - b * b
    return ((a + b) / n, -b / n)


def ref_sign(x):
    """Sign of a + b*phi from r = -a/b against phi's minimal polynomial."""
    a, b = x
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    r = -a / b
    if r < 0:
        return sb
    return sb if r * r - r - 1 < 0 else -sb


def ref_floor(x):
    # a 400-bit rational phi gives a candidate; the exact sign corrects it
    a, b = x
    n = floor(a + b * PHI.approx(400))
    while ref_sign((a - n, b)) < 0:
        n -= 1
    while ref_sign((a - n - 1, b)) >= 0:
        n += 1
    return n


def pair(x):
    return (x.a, x.b)


def assert_normal(x):
    A, B, D = x.scaled()
    assert D > 0 and gcd(A, B, D) == 1
    assert QPhi(x.a, x.b) == x and pair(QPhi(x.a, x.b)) == pair(x)


small = st.fractions(min_value=-60, max_value=60, max_denominator=40)
large = st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200),
                  st.integers(1, 10 ** 9))
coeff = st.one_of(small, small, large)
elements = st.builds(QPhi, coeff, coeff)
powers = st.builds(phi_power, st.integers(-200, 200))
values = st.one_of(elements, powers,
                   st.builds(lambda p, x: p * x, powers, elements))


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_ring_ops_match_reference(x, y):
    for got, want in ((x + y, (x.a + y.a, x.b + y.b)),
                      (x - y, (x.a - y.a, x.b - y.b)),
                      (x * y, ref_mul(pair(x), pair(y))),
                      (-x, (-x.a, -x.b))):
        assert pair(got) == want
        assert_normal(got)
    if x:
        inv = x.inverse()
        assert pair(inv) == ref_inverse(pair(x))
        assert_normal(inv)
        assert pair(y / x) == ref_mul(pair(y), ref_inverse(pair(x)))
    else:
        with pytest.raises(FieldError):
            x.inverse()


@settings(max_examples=300, deadline=None)
@given(values, st.integers(-10 ** 6, 10 ** 6), coeff)
def test_mixed_ops_with_rationals(x, n, q):
    for r in (n, q):
        assert pair(x + r) == (x.a + r, x.b)
        assert pair(x - r) == (x.a - r, x.b)
        assert pair(r - x) == (r - x.a, -x.b)
        assert (x < r, x == r) == (ref_sign((x.a - r, x.b)) < 0,
                                   x.b == 0 and x.a == r)
        assert pair(x * r) == (x.a * r, x.b * r)
        assert_normal(x * r)
        if r:
            assert pair(x / r) == (x.a / r, x.b / r)
            assert_normal(x / r)


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_order_matches_reference(x, y):
    s = ref_sign((x.a - y.a, x.b - y.b))
    assert x.sign() == ref_sign(pair(x))
    assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert (x == y) == (s == 0) == (pair(x) == pair(y))


@settings(max_examples=300, deadline=None)
@given(values)
def test_floor_frac_matches_reference(x):
    n, f = x.floor_frac()
    assert n == ref_floor(pair(x))
    assert pair(f) == (x.a - n, x.b)
    assert_normal(f)
    assert ZERO <= f < ONE


@settings(max_examples=300, deadline=None)
@given(values, values)
def test_eq_and_hash(x, y):
    z = (x + y) - y         # the same value reached another way
    assert z == x and hash(z) == hash(x)
    if x.b == 0:
        assert x == x.a and hash(x) == hash(x.a)
        if x.a.denominator == 1:
            assert x == x.a.numerator and hash(x) == hash(x.a.numerator)
    else:
        assert x != x.a


@settings(max_examples=300, deadline=None)
@given(powers, powers, coeff)
def test_sign_of_large_coefficients_agrees_with_approx(p, q, r):
    x = p * q - r           # coefficients up to about 2**280
    v = x.approx(400)
    # approx is within |b| * 2**-400 of the value
    assume(abs(v) > 2 * abs(x.b) / 2 ** 400)
    assert x.sign() == (1 if v > 0 else -1)


@settings(max_examples=300, deadline=None)
@given(values, values, values)
def test_fused_predicates_match_differences(x, y, z):
    assert cmp(x, y) == (x - y).sign() == -cmp(y, x)
    assert cmp(x, x) == 0
    assert sgn_affine(x, y, z) == (x * z + y).sign()
    assert sgn_affine(ZERO, y, z) == y.sign()


@settings(max_examples=300, deadline=None)
@given(powers, powers, coeff, st.integers(-200, 200))
def test_fused_predicates_of_large_coefficients_agree_with_approx(p, q, r, k):
    # x and y = x + r*phi**k differ by as little as phi**-200 * |r|
    x = p * q
    y = x + phi_power(k) * r
    v = x.approx(400) - y.approx(400)
    # approx is within |b| * 2**-400 of the value
    assume(abs(v) > 2 * (abs(x.b) + abs(y.b)) / 2 ** 400)
    assert cmp(x, y) == (1 if v > 0 else -1)
    w = (y * q).approx(400) + x.approx(400)
    assume(abs(w) > 2 * (abs((y * q).b) + abs(x.b)) / 2 ** 400)
    assert sgn_affine(y, x, q) == (1 if w > 0 else -1)


def test_large_power_identities():
    for k in (100, 160, 200):
        up, down = phi_power(k), phi_power(-k)
        assert up * down == ONE
        assert down.inverse() == up
        assert down.sign() == 1 and (-down).sign() == -1
        assert (down - phi_power(-k - 1)).sign() == 1
        assert (HALF - down).floor_frac()[0] == 0
        assert (down - HALF).floor_frac()[0] == -1
        assert_normal(up * HALF * down)


def test_float_keeps_its_digits_on_large_coefficients():
    # phi**-k = F_{-k} phi + F_{-k-1}: A and B*phi cancel, and the plain
    # estimate A/D + (B/D)*phi read 0.0 for phi**-60; phi**k does not
    # cancel
    for k in range(60, 201):
        want = float(phi_power(k).approx(1200))
        assert abs(float(phi_power(k)) - want) <= 2.0 ** -40 * want
        for x in (phi_power(-k), -phi_power(-k) / 97, ONE - phi_power(-k),
                  phi_power(-k) + phi_power(-k - 3)):
            want = float(x.approx(1200))
            assert abs(float(x) - want) <= ulp(want), (k, x)
    assert float(phi_power(-60)) == pytest.approx(2.8889603743e-13)
    # subnormal values with coefficients beyond the double range: A/D
    # alone overflows, the value does not.  approx(bits) is off by up to
    # |B| 2**-(bits+2) with |B| up to 2**1041 here, so 2000 bits would not do
    for k in (-1480, -1500):
        want = float(phi_power(k).approx(2400))
        assert 0 < want < 2.0 ** -1022
        assert abs(float(phi_power(k)) - want) <= ulp(want), k
