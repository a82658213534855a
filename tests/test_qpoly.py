import random

import pytest
from hypothesis import example, given, settings, strategies as st

from heckelab.qpoly import (LaurentQ, poly_add, poly_add_scaled, poly_mul,
                            poly_shape, poly_shift, poly_trim, q_factorial,
                            q_integer)

Q = LaurentQ.q()
ONE = LaurentQ.one()


def random_laurent(rng, terms=4, span=6, coeff=9):
    return LaurentQ({rng.randint(-span, span): rng.randint(-coeff, coeff)
                     for _ in range(rng.randint(0, terms))})


def test_arith_examples():
    assert (1 + Q) * (1 + Q) == 1 + 2 * Q + Q ** 2
    half = LaurentQ.q_half(1)
    assert (LaurentQ.q_half(-1) + half) * half == 1 + Q
    a = LaurentQ({3: 2, -1: 5})
    assert a + LaurentQ.zero() == a
    assert a - a == LaurentQ.zero()
    assert not LaurentQ.zero()


def test_bar():
    assert LaurentQ.q_half(1).bar() == LaurentQ.q_half(-1)
    assert (1 + Q).bar() == 1 + LaurentQ.q(-1)
    assert LaurentQ.integer(7).bar() == LaurentQ.integer(7)
    rng = random.Random(11)
    for _ in range(50):
        a = random_laurent(rng)
        assert a.bar().bar() == a


def test_ring_axioms_random():
    rng = random.Random(5)
    for _ in range(40):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_pow():
    assert (1 + Q) ** 0 == ONE
    assert (1 + Q) ** 3 == 1 + 3 * Q + 3 * Q ** 2 + Q ** 3
    assert LaurentQ.q_half(1) ** -2 == LaurentQ.q(-1)
    assert (-ONE) ** -3 == -ONE


def test_props_examples():
    p = (1 + Q).props()
    assert p.palindromic and p.unimodal and p.nonnegative
    p = (1 + 3 * Q + Q ** 2).props()
    assert p.palindromic and p.unimodal
    assert not (1 - Q).props().nonnegative
    # 1 + q^2 has an internal zero: palindromic but not unimodal
    p = (1 + Q ** 2).props()
    assert p.palindromic and not p.unimodal
    # zero is vacuously everything
    z = LaurentQ.zero().props()
    assert z.nonnegative and z.palindromic and z.unimodal
    assert z.min_half_exponent is None
    # mixed parity support falls back to half steps
    p = (1 + LaurentQ.q_half(1)).props()
    assert p.palindromic and p.unimodal


def test_props_degree_bounds():
    a = LaurentQ({-3: 1, 4: 2})
    p = a.props()
    assert p.min_half_exponent == -3 and p.max_half_exponent == 4


def test_q_integers():
    assert q_integer(1) == ONE
    assert q_integer(3) == 1 + Q + Q ** 2
    assert q_factorial(3) == 1 + 2 * Q + 2 * Q ** 2 + Q ** 3
    assert q_factorial(0) == ONE


def test_serialization_roundtrip():
    rng = random.Random(23)
    for _ in range(60):
        a = random_laurent(rng)
        assert LaurentQ.parse(str(a)) == a
        assert LaurentQ.from_json(a.to_json()) == a
    assert str(1 + Q) == "1 + q"
    assert str(LaurentQ.zero()) == "0"
    assert str(LaurentQ.q_half(-1) + LaurentQ.q_half(1)) == "q^(-1/2) + q^(1/2)"
    assert str(2 * Q ** 2 - ONE) == "-1 + 2*q^2"


def test_evaluate_and_specialize():
    a = 1 + 2 * Q + Q ** 3
    assert a.evaluate(2) == 13
    assert a.at_q1() == 4
    assert (Q - 1).at_q1() == 0


# -- the tuple kernel, differentially against LaurentQ ------------------------

seeded = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)
# coefficient lists, possibly with trailing zeros, and canonical tuples
raw = st.lists(st.integers(-12, 12), max_size=7)
polys = raw.map(lambda c: poly_trim(list(c)))
shifts = st.integers(0, 4)
laurents = st.dictionaries(st.integers(-9, 9),
                           st.integers(-150, 150)).map(LaurentQ)


def as_laurent(a: tuple) -> LaurentQ:
    assert not a or a[-1] != 0, a  # the kernel keeps tuples trimmed
    return LaurentQ.from_poly_coeffs(a)


@seeded
@given(polys, polys)
def test_poly_add_matches_laurent(a, b):
    assert as_laurent(poly_add(a, b)) == as_laurent(a) + as_laurent(b)


@seeded
@given(polys, polys, st.integers(-5, 5), shifts)
@example((), (), -3, 2)
@example((1, 2), (), -1, 4)
@example((), (1, 2), -1, 2)
@example((0, 0, 1), (1,), -1, 2)
def test_poly_add_scaled_matches_laurent(a, b, c, k):
    got = poly_add_scaled(a, b, c, k)
    assert as_laurent(got) == as_laurent(a) + c * Q ** k * as_laurent(b)


@seeded
@given(polys, polys)
def test_poly_mul_matches_laurent(a, b):
    assert as_laurent(poly_mul(a, b)) == as_laurent(a) * as_laurent(b)


@seeded
@given(polys, shifts)
def test_poly_shift_matches_laurent(a, k):
    assert as_laurent(poly_shift(a, k)) == as_laurent(a) * Q ** k


@seeded
@given(raw)
@example([])
@example([0, 0])
@example([1, 0, 2, 0])
def test_poly_coeffs_round_trip(c):
    f = LaurentQ.from_poly_coeffs(c)
    assert f.poly_coeffs() == poly_trim(list(c))
    assert LaurentQ.from_poly_coeffs(f.poly_coeffs()) == f


@seeded
@given(laurents)
@example(LaurentQ.q_half(1))
@example(LaurentQ.q(-1))
@example(1 + LaurentQ.q_half(3))
def test_poly_coeffs_rejects_half_and_negative_powers(f):
    if any(k < 0 or k % 2 for k, _ in f.items()):
        with pytest.raises(ValueError):
            f.poly_coeffs()
    else:
        assert LaurentQ.from_poly_coeffs(f.poly_coeffs()) == f


@seeded
@given(laurents)
def test_parse_inverts_str(f):
    assert LaurentQ.parse(str(f)) == f


@seeded
@given(polys)
@example(())
@example((0, 0, 1, 2, 1))
@example((0, 1, 0, 1))
def test_poly_shape_matches_props(a):
    # props reads the support of a polynomial in q from its lowest term
    p = as_laurent(a).props()
    assert poly_shape(a) == (p.nonnegative, p.palindromic, p.unimodal)

