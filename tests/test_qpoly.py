import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from heckelab.characters import chi
from heckelab.hecke import kl_polynomial
from heckelab.lab import decompose_codominant
from heckelab.permutations import Perm, parse_perm
from heckelab.qpoly import (poly_add_scaled, poly_json, poly_latex, poly_mul,
                            poly_pack, poly_shape, poly_str, poly_trim,
                            poly_unpack, poly_width)
from heckelab.symfunc import (SymmetricFunction, positivity,
                              q_factorial_partition)
from hecke_oracle import Laurent

# the reference arithmetic of the tests, in q^(1/2)
Q = Laurent.q()


def random_laurent(rng, terms=4, span=6, coeff=9):
    return Laurent({rng.randint(-span, span): rng.randint(-coeff, coeff)
                    for _ in range(rng.randint(0, terms))})


def test_arith_examples():
    assert (1 + Q) * (1 + Q) == 1 + 2 * Q + Laurent.q(2)
    half = Laurent.q_half(1)
    assert (Laurent.q_half(-1) + half) * half == 1 + Q
    a = Laurent({3: 2, -1: 5})
    assert a + Laurent() == a
    assert a - a == Laurent()
    assert not Laurent()


def test_bar():
    assert Laurent.q_half(1).bar() == Laurent.q_half(-1)
    assert (1 + Q).bar() == 1 + Laurent.q(-1)
    assert Laurent({0: 7}).bar() == Laurent({0: 7})
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


def test_props_examples():
    assert poly_shape((1, 1)) == (True, True, True)
    assert poly_shape((1, 3, 1)) == (True, True, True)
    assert not poly_shape((1, -1))[0]
    # 1 + q^2 has an internal zero: palindromic but not unimodal
    assert poly_shape((1, 0, 1)) == (True, True, False)
    # zero is vacuously everything
    assert poly_shape(()) == (True, True, True)
    # the shape is read from the lowest term
    assert poly_shape((0, 0, 1, 2, 1)) == (True, True, True)
    assert poly_shape((0, 1, 0, 1)) == (True, True, False)


def test_canonical_form():
    # poly_trim drops trailing zeros, Fraction(0) too; the printers write
    # an integral Fraction as an int and any other as num/den
    f = poly_trim([0, Fraction(2), Fraction(1, 3), 0, Fraction(0)])
    assert f == (0, 2, Fraction(1, 3)) and poly_trim([0, 0]) == ()
    assert poly_json(f) == {"1": 2, "2": "1/3"}
    assert type(poly_json(f)["1"]) is int
    assert poly_str(f) == "2*q + 1/3*q^2"
    assert poly_latex(f) == "2q + 1/3q^{2}"


def test_serialization_roundtrip():
    cases = {(1, 1): ("1 + q", "1 + q", {"0": 1, "1": 1}),
             (): ("0", "0", {}),
             (-1, 0, 2): ("-1 + 2*q^2", "-1 + 2q^{2}", {"0": -1, "2": 2}),
             (0, -1, 0, 2): ("-q + 2*q^3", "-q + 2q^{3}", {"1": -1, "3": 2})}
    for p, printed in cases.items():
        assert (poly_str(p), poly_latex(p), poly_json(p)) == printed, p


def test_the_api_returns_plain_tuples():
    # one value type: what the API computes is handed out as it is
    w = parse_perm("4231")
    values = [kl_polynomial(Perm.identity(4), w), chi((2, 2), w),
              q_factorial_partition((3, 2)),
              positivity(SymmetricFunction("s", 2, {(1, 1): (1,)}), "h")
              .witness_coefficient]
    # a smooth w, a Thm 1.6 step and the leading-term search
    for v in ("2143", "4231", "34512"):
        values += decompose_codominant(parse_perm(v)).values()
    assert [type(v) for v in values] == [tuple] * len(values)


# -- the tuple kernel, differentially against the reference Laurent -----------

seeded = settings(derandomize=True, database=None, deadline=None,
                  max_examples=100)
# coefficient lists, possibly with trailing zeros, and canonical tuples
raw = st.lists(st.integers(-12, 12), max_size=7)
polys = raw.map(lambda c: poly_trim(list(c)))
shifts = st.integers(0, 4)


def as_laurent(a: tuple) -> Laurent:
    assert not a or a[-1] != 0, a  # the kernel keeps tuples trimmed
    return Laurent.from_poly(a)


@seeded
@given(polys, polys, st.integers(-5, 5), shifts)
@example((), (), -3, 2)
@example((1, 2), (), -1, 4)
@example((), (1, 2), -1, 2)
@example((0, 0, 1), (1,), -1, 2)
@example((1, -2, 3), (2, 2, -3), 1, 0)  # a + b, the plain sum
def test_poly_add_scaled_matches_laurent(a, b, c, k):
    got = poly_add_scaled(a, b, c, k)
    assert as_laurent(got) == as_laurent(a) + c * Laurent.q(k) * as_laurent(b)


@seeded
@given(polys, polys)
def test_poly_mul_matches_laurent(a, b):
    assert as_laurent(poly_mul(a, b)) == as_laurent(a) * as_laurent(b)


@seeded
@given(raw)
@example([])
@example([0, 0])
@example([1, 0, 2, 0])
def test_poly_coeffs_round_trip(c):
    # a SymmetricFunction stores the trimmed coefficient tuple, or nothing
    # for zero, and storing it again is a no-op
    f = SymmetricFunction("s", 1, {(1,): tuple(c)})
    assert f.polys == ({(1,): poly_trim(list(c))} if any(c) else {})
    assert SymmetricFunction("s", 1, f.polys).polys == f.polys


@seeded
@given(polys)
@example(())
@example((0, 0, 1, 2, 1))
@example((0, 1, 0, 1))
@example((2, 1, 2))
def test_poly_shape_matches_props(a):
    # the three properties from their definitions, on the coefficients
    # from the lowest term up: unimodal if some peak k has them rising
    # up to k and falling after it
    vec = list(a[next((i for i, v in enumerate(a) if v), len(a)):])
    unimodal = any(vec[:k + 1] == sorted(vec[:k + 1])
                   and vec[k:] == sorted(vec[k:], reverse=True)
                   for k in range(len(vec))) or not vec
    assert poly_shape(a) == (min(vec, default=0) >= 0, vec == vec[::-1],
                             unimodal)


@seeded
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=7),
       st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3))
@example([], [1])
@example([1, 0, -1], [-1, 1])
@example([-(2 ** 64)], [1])
def test_unpack_reads_back_signed_coefficients_at_their_width(c, signs):
    # every coefficient list packed at poly_width of its largest absolute
    # value reads back, those at the ends of the width, +-(2^(W-1) - 1),
    # first and last
    width = poly_width(max(map(abs, c), default=0))
    top = (1 << width - 1) - 1
    edges = [s * top for s in signs]
    for d in (c, edges + c, c + edges):
        assert poly_width(max(map(abs, d), default=0)) == width
        assert poly_unpack(poly_pack(d, width), width) == poly_trim(list(d))


def test_poly_width_is_the_least_with_room_for_the_bound():
    for bound in range(300):
        width = poly_width(bound)
        assert 2 ** (width - 1) > bound
        assert width == 1 or 2 ** (width - 2) <= bound
