import hashlib
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from heckelab.combinat import partitions
from heckelab.symfunc import (BASES, SymmetricFunction, _transition, conjugate,
                              kostka, num_syt, omega, positivity,
                              q_factorial_partition)


def element(basis, lam, coeff=(1,)):
    """coeff(q) basis_lam, for a tuple polynomial coeff."""
    return SymmetricFunction(basis, sum(lam), {lam: coeff})


def brute_monomial_expand(basis, lam, nvars):
    """Expand e/h/p/s_lam into monomials of `nvars` variables, brute force."""
    from itertools import combinations, product

    def gen_vectors(k):
        # exponent vectors of one factor
        if basis == "e":
            for pos in combinations(range(nvars), k):
                v = [0] * nvars
                for p in pos:
                    v[p] = 1
                yield tuple(v)
        elif basis == "h":
            for pos in combinations_with_replacement(range(nvars), k):
                v = [0] * nvars
                for p in pos:
                    v[p] += 1
                yield tuple(v)
        elif basis == "p":
            for p in range(nvars):
                v = [0] * nvars
                v[p] = k
                yield tuple(v)
        else:
            raise ValueError(basis)

    coeffs = {}
    for choice in product(*(list(gen_vectors(k)) for k in lam)):
        total = tuple(sum(v[i] for v in choice) for i in range(nvars))
        coeffs[total] = coeffs.get(total, 0) + 1
    # the m_mu coefficient is the coefficient of the one sorted monomial x^mu
    out = {}
    for vec, c in coeffs.items():
        if vec == tuple(sorted(vec, reverse=True)):
            out[tuple(x for x in vec if x)] = c
    return out


def random_symfunc(rng, n, basis):
    """Random coefficients, each one term c q^k with 0 <= k <= 3."""
    coeffs = {}
    for lam in rng.sample(partitions(n), k=min(3, len(partitions(n)))):
        coeffs[lam] = (0,) * rng.randint(0, 3) + (rng.randint(-5, 5),)
    return SymmetricFunction(basis, n, coeffs)


def test_partitions():
    assert len(partitions(4)) == 5
    assert partitions(1) == ((1,),)
    assert len(partitions(8)) == 22
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions(0) == ((),)
    with pytest.raises(ValueError, match="n must be >= 0"):
        partitions(-1)


def test_conjugate_and_hooks():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(conjugate((4, 2, 1))) == (4, 2, 1)
    assert num_syt((2, 1)) == 2
    assert num_syt((3, 2, 1)) == 16
    assert num_syt((1, 1, 1)) == 1
    assert sum(num_syt(lam) ** 2 for lam in partitions(6)) == 720


def test_kostka():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1)) == 1
    assert kostka((2, 1), (3,)) == 0
    assert kostka((3,), (1, 1, 1)) == 1
    assert kostka((2, 1), (2,)) == kostka((2,), (2, 1)) == 0  # sizes differ
    for lam in partitions(5):
        assert kostka(lam, lam) == 1
        assert kostka(lam, (1,) * 5) == num_syt(lam)


def test_constructor_checks():
    assert element("s", (2, 1), ()).polys == {}
    assert SymmetricFunction("m", 3, {(3,): (), (2, 1): (0, 1)}).polys == \
        {(2, 1): (0, 1)}
    with pytest.raises(ValueError, match="unknown basis"):
        SymmetricFunction("x", 2, {})
    with pytest.raises(ValueError, match="has size"):
        SymmetricFunction("s", 3, {(2, 1): (1,), (2,): (1,)})


def test_basis_conversion_examples():
    h2 = element("h", (2,))
    assert h2.convert("m").polys == {(2,): (1,), (1, 1): (1,)}
    p2 = element("p", (2,))
    assert p2.convert("m").polys == {(2,): (1,)}
    s11 = element("s", (1, 1))
    assert s11.convert("e").polys == {(2,): (1,)}


@pytest.mark.parametrize("basis", ["e", "h", "p"])
@pytest.mark.parametrize("lam", [(2,), (2, 1), (3, 2), (2, 2, 1), (3, 2, 1)])
def test_monomial_expansion_vs_brute(basis, lam):
    n = sum(lam)
    f = element(basis, lam).convert("m")
    expected = brute_monomial_expand(basis, lam, n)
    assert f.polys == {p: (c,) for p, c in expected.items() if c}


@pytest.mark.parametrize("n", [2, 5, 8, 10])
def test_all_conversions_round_trip(n):
    rng = random.Random(100 + n)
    for src in BASES:
        f = random_symfunc(rng, n, src)
        for dst in BASES:
            g = f.convert(dst).convert(src)
            assert g.polys == f.polys, (src, dst)


# sha256 of the 20 tables _transition(src, dst, n), src != dst, as the
# rational Gauss-Jordan inverse of each basis-to-m matrix gave them
TRANSITION_DIGESTS = {
    1: "0152d75161184b5b61d50c1b0ed2dc5baf42490a734d02c49c1a54ca5be7b9c0",
    2: "fd96ca41e67c7511cef71086fa36d3622234d66980b0332e50f32bb91df4a23b",
    3: "33ffcef04996cd4cf10de8913f204780fbe23eea5f1380671ce5ab983cde8ca0",
    4: "7d27ec24b9d63a1c7958c21f771c88e2a57033acafd3aeab82564ac5aa81a912",
    5: "2d5a178abef7eb78614aa45c17c02565f233602a8a2a0f39b9a77f28020fa974",
    6: "b7e67c85541d8dfcc8768677171603eb654105d3867be13d89a20788894f124d",
    7: "05060e9e204d1b42bbef3827388b26d06321dc719a71376d20460ee8804f3bff",
    8: "c4793d8b1db834b94848fe55ab5756276559e3d35057fec79237585837d3c996",
}


@pytest.mark.parametrize("n", sorted(TRANSITION_DIGESTS))
def test_transition_tables_match_the_recorded_digest(n):
    # repr keeps int and Fraction apart, so an integral Fraction fails too
    h = hashlib.sha256()
    for src in BASES:
        for dst in BASES:
            if src != dst:
                rows = sorted(_transition(src, dst, n).items())
                h.update(repr((src, dst, rows)).encode())
    assert h.hexdigest() == TRANSITION_DIGESTS[n]


def test_omega():
    h2 = element("h", (2,))
    assert omega(h2) == element("e", (2,))
    s21 = element("s", (2, 1))
    assert omega(s21) == s21  # (2,1) is self-conjugate
    p3 = element("p", (3,))
    assert omega(p3) == p3  # (-1)^(3-1) = +1
    assert omega(element("p", (2,))) == element("p", (2,), (-1,))


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_omega_involution_every_basis(n):
    rng = random.Random(7 * n)
    for basis in BASES:
        f = random_symfunc(rng, n, basis)
        assert omega(omega(f)) == f


@st.composite
def symfuncs(draw):
    """Degree n <= 6, a random basis, integer polynomials in q."""
    n = draw(st.integers(1, 6))
    lams = draw(st.lists(st.sampled_from(partitions(n)), max_size=4,
                         unique=True))
    polys = st.lists(st.integers(-9, 9), min_size=1, max_size=4)
    return SymmetricFunction(draw(st.sampled_from(BASES)), n, {
        lam: tuple(draw(polys)) for lam in lams})


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(symfuncs())
def test_round_trip_through_every_basis(f):
    for basis in BASES:
        assert f.convert(basis).convert(f.basis).polys == f.polys, basis
    twice = omega(omega(f))
    assert (twice.basis, twice.polys) == (f.basis, f.polys)


def test_schur_sum_is_h1n():
    for n in (2, 3, 4, 5, 6):
        total = SymmetricFunction("s", n, {lam: (num_syt(lam),)
                                           for lam in partitions(n)})
        assert total == element("h", (1,) * n)


def at_q1(f) -> dict:
    """q := 1 in each nonzero coefficient of f."""
    return {lam: v for lam, p in f.polys.items() if (v := sum(p))}


def test_q1_commutes_with_conversion():
    rng = random.Random(77)
    for n in (3, 5):
        for basis in BASES:
            f = random_symfunc(rng, n, basis)
            f_at_1 = SymmetricFunction(
                basis, n, {lam: (v,) for lam, v in at_q1(f).items()})
            for dst in BASES:
                assert at_q1(f.convert(dst)) == at_q1(f_at_1.convert(dst))


def test_integral_values_through_p_are_ints():
    # s -> p and h -> p carry Fractions; the integral ones print as ints
    f = element("h", (2,), (2,)).convert("p")
    assert f.polys == {(2,): (1,), (1, 1): (1,)}
    assert all(type(c) is int for t in f.to_json()["terms"]
               for c in t["coeff"].values())
    g = element("s", (2, 1)).convert("p").convert("h")
    assert g.polys == {(3,): (-1,), (2, 1): (1,)}
    assert all(type(c) is int for t in g.to_json()["terms"]
               for c in t["coeff"].values())
    assert str(g) == "(-1)*h[3] + (1)*h[2,1]"
    third = element("s", (2, 1)).convert("p")
    assert third.polys[(3,)] == (Fraction(-1, 3),)


def test_trailing_zeros_are_trimmed():
    # (1, 0) and (1,) are one polynomial, and (0,) is zero
    a = SymmetricFunction("s", 2, {(2,): (1, 0)})
    b = SymmetricFunction("s", 2, {(2,): (1,)})
    assert a == b and b == a and a.polys == {(2,): (1,)}
    zero = SymmetricFunction("s", 2, {(2,): (0,)})
    assert zero.polys == {} and str(zero) == "0"
    assert zero == SymmetricFunction("s", 2, {}) == zero
    # equal only to a function of the same degree
    assert zero != SymmetricFunction("s", 3, {}) and zero != ()
    assert zero.__eq__(()) is NotImplemented


def test_positivity():
    assert positivity(element("h", (2,), (1, 1)), "h").positive
    s11 = element("s", (1, 1))
    rep = positivity(s11, "h")  # s11 = h11 - h2
    assert not rep.positive
    assert rep.witness_partition == (2,)
    assert rep.witness_coefficient == (-1,)
    assert positivity(SymmetricFunction("m", 3, {}), "h").positive
    # s_2 = 1/2 p_2 + 1/2 p_11 is nonnegative, but not integral
    rep = positivity(element("s", (2,)), "p")
    assert not rep.positive
    assert rep.witness_partition == (2,)
    assert rep.witness_coefficient == (Fraction(1, 2),)
    # p_2 + p_11 = 2 h_2 is integral in p
    assert positivity(element("h", (2,), (2,)), "p").positive


def test_q_factorial_partition():
    assert q_factorial_partition((3,)) == (1, 2, 2, 1)
    assert q_factorial_partition((2, 1)) == (1, 1)
    assert q_factorial_partition((1, 1, 1, 1)) == (1,)


def test_serialization():
    f = SymmetricFunction("s", 3, {(2, 1): (0, 1, 1), (3,): (2,)})
    assert f.to_json() == {"basis": "s", "degree": 3, "terms": [
        {"partition": [3], "coeff": {"0": 2}},
        {"partition": [2, 1], "coeff": {"1": 1, "2": 1}}]}
    assert f.latex() == \
        "\\left(2\\right) s_{3} + \\left(q + q^{2}\\right) s_{21}"
    assert str(f) == "(2)*s[3] + (q + q^2)*s[2,1]"
    zero = SymmetricFunction("s", 3, {})
    assert (str(zero), zero.latex()) == ("0", "0")
    assert repr(zero) == "SymmetricFunction('s', 3, {})"
