import hashlib
import random

import pytest

from heckelab.characters import (_coxeter_h, _frobenius_coeffs, chi,
                                 character_table, cycle_type,
                                 frobenius_cprime, min_class_rep)
from heckelab import characters, hecke
from heckelab.combinat import partitions
from heckelab.hecke import KLRowStore, row_store
from heckelab.permutations import Perm, all_perms, parse_perm
from heckelab.qpoly import (poly_add_scaled, poly_mul, poly_pack, poly_shape,
                            poly_trim, poly_unpack)
from heckelab.symfunc import (SymmetricFunction, _transition,
                              murnaghan_nakayama, num_syt,
                              q_factorial_partition)
from hecke_oracle import (HeckeElement, Laurent, chi_element, cprime,
                          cprime_normalized, frobenius_ch)
from seminormal_oracle import (InterpolationError, chi_poly_from_word,
                               interpolate, interpolate_checked, poly_eval,
                               seminormal_table, standard_tableaux)

Q = (0, 1)


def chi_by_tuples(lam, w):
    """sum_mu f_{w,mu} V_{mu,lambda} in tuple arithmetic, from the class
    polynomials and Ram's values the packed kernel reads."""
    acc = ()
    for mu, p in characters._classes[
            characters._class_number(tuple(w))].items():
        acc = poly_add_scaled(acc, poly_mul(
            p, characters._class_values(mu).get(lam, ())), 1, 0)
    return acc


def alternate_word(w):
    """Reduced word built by rightmost descents; differs from the canonical
    leftmost-descent word in general."""
    w = list(w)
    rev = []
    while True:
        descents = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not descents:
            break
        i = descents[-1]
        w[i], w[i + 1] = w[i + 1], w[i]
        rev.append(i + 1)
    return tuple(reversed(rev))


def test_standard_tableaux():
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 2, 1))) == num_syt((3, 2, 1))
    assert standard_tableaux((2,)) == (((1, 2),),)


def test_one_dimensional_characters():
    rng = random.Random(1)
    for n in (3, 4, 5):
        for _ in range(5):
            w = Perm(rng.sample(range(1, n + 1), n))
            assert chi((n,), w) == (0,) * w.length() + (1,)
            assert chi((1,) * n, w) == ((-1) ** w.length(),)


def test_n2_explicit():
    s = Perm((2, 1))
    assert chi((2,), s) == Q
    assert chi((1, 1), s) == (-1,)


def test_trace_of_identity():
    for n in (3, 4, 5):
        e = Perm.identity(n)
        for lam in partitions(n):
            assert chi(lam, e) == (num_syt(lam),)


def test_degree_bound():
    rng = random.Random(3)
    for _ in range(10):
        w = Perm(rng.sample(range(1, 6), 5))
        for lam in partitions(5):
            assert len(chi(lam, w)) <= w.length() + 1


def test_reduced_word_independence():
    # the seminormal oracle's traces do not depend on the reduced word
    rng = random.Random(19)
    pairs = []
    for n in (3, 4, 5):
        perms = list(all_perms(n))
        for _ in range(30):
            pairs.append((rng.choice(partitions(n)), rng.choice(perms)))
    perms6 = list(all_perms(6))
    for _ in range(10):
        pairs.append((rng.choice(partitions(6)), rng.choice(perms6)))
    checked = 0
    for lam, w in pairs:
        first = chi_poly_from_word(lam, w.reduced_word())
        second = chi_poly_from_word(lam, alternate_word(w))
        assert first == second, (lam, w)
        checked += 1
    assert checked == 100


def test_chi_element_examples():
    for lam in partitions(4):
        assert chi_element(lam, HeckeElement.unit(4)) == \
            Laurent({0: num_syt(lam)})
    b = cprime(Perm((2, 1)))  # q^(1/2) C'_s in the scaled form T_e + T_s
    assert chi_element((2,), b) == Laurent.from_poly((1, 1))
    assert chi_element((1, 1), b) == Laurent()
    # the same through the normalized element with its half-power prefactor
    half = Laurent.q_half(1)
    normalized = cprime_normalized(Perm((2, 1))).scale(half)
    assert chi_element((2,), normalized) == Laurent.from_poly((1, 1))


def test_frobenius_examples():
    assert frobenius_ch(HeckeElement.unit(3)) == \
        SymmetricFunction("h", 3, {(1, 1, 1): (1,)})
    assert frobenius_ch(cprime(Perm((2, 1)))) == \
        SymmetricFunction("h", 2, {(2,): (1, 1)})
    assert frobenius_ch(cprime(Perm((3, 2, 1)))) == \
        SymmetricFunction("h", 3, {(3,): q_factorial_partition((3,))})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_frobenius_cprime_matches_general_path(n):
    for w in all_perms(n):
        assert frobenius_cprime(w) == frobenius_ch(cprime(w)), w


def test_character_table_consistency():
    for n in range(1, 7):
        table = character_table(n)
        for lam in partitions(n):
            for w in all_perms(n):
                want = chi_by_tuples(lam, w)
                assert table[lam][w] == want == chi(lam, w), (lam, w)


def test_frobenius_cprime_matches_seminormal_oracle_s5():
    # ch(B_w) = sum_lambda (sum_z P_{z,w} chi^lambda(T_z)) s_lambda, with
    # chi^lambda(T_z) from the seminormal form instead of class polynomials
    oracle = seminormal_table(5)
    for w in all_perms(5):
        row = row_store(5).row(w)
        got = frobenius_cprime(w)
        for lam in partitions(5):
            acc = ()
            for z, p in row.items():
                acc = poly_add_scaled(acc, poly_mul(p, oracle[lam][z]), 1, 0)
            assert got.polys.get(lam, ()) == acc, (w, lam)


def test_frobenius_cprime_keeps_no_decoded_rows(monkeypatch):
    # a character sweep reads the packed rows and decodes none into a
    # Perm-keyed row
    store = KLRowStore(5)
    monkeypatch.setitem(hecke._stores, 5, store)
    frobenius_cprime.cache_clear()
    for w in all_perms(5):
        frobenius_cprime(w)
    assert len(store._packed) == 120


@pytest.mark.parametrize("n", range(1, 9))
def test_frobenius_of_w0_is_the_q_factorial(monkeypatch, n):
    # P_{z,w0} = 1 for every z, so T = sum_z P_{z,w0}(1) = n!
    monkeypatch.setitem(hecke._stores, n, KLRowStore(n))
    w0 = Perm(range(n, 0, -1))
    assert _frobenius_coeffs(w0) == \
        {(n,): q_factorial_partition((n,))}


@pytest.mark.parametrize("w", ["54231", "645231"])
def test_frobenius_of_the_row_with_the_largest_t(monkeypatch, w):
    # T = 144 and 1728, the largest sum_z P_{z,w}(1) of S_5 and S_6, above
    # the n! of w0; compared with sum_z P_{z,w} chi^lambda(T_z) in tuples,
    # each chi^lambda(T_z) summed over class polynomials in tuples too
    w = parse_perm(w)
    n = len(w)
    store = KLRowStore(n)
    monkeypatch.setitem(hecke._stores, n, store)
    row = store.row(w)
    assert sum(sum(p) for p in row.values()) == max(
        sum(sum(p) for p in store.row(u).values()) for u in all_perms(n))
    want = {}
    for lam in partitions(n):
        acc = ()
        for z, p in row.items():
            acc = poly_add_scaled(acc, poly_mul(p, chi_by_tuples(lam, z)),
                                  1, 0)
        if acc:
            want[lam] = acc
    assert _frobenius_coeffs(w) == want


# sha256 over n = 1..6 of repr(character_table(n)), then repr of
# _frobenius_coeffs(w) for every w of S_n in all_perms order: every
# character value and every ch(B_w) of S_6 and below, recorded from the
# tuple sums over class polynomials that the packed kernel replaced
CHARACTERS6_SHA256 = \
    "1bfc0ae8956bd7ff997442319ce9f98a0644baaa5b6c3f1fdabfeeb454291269"


def test_characters_of_rank_at_most_6_golden_digest():
    digest = hashlib.sha256()
    for n in range(1, 7):
        digest.update(repr(character_table(n)).encode())
        for w in all_perms(n):
            digest.update(repr(_frobenius_coeffs(w)).encode())
    assert digest.hexdigest() == CHARACTERS6_SHA256


def symmetry_orbits(n):
    """Each orbit {w, w^-1, w0 w w0, w0 w^-1 w0} of S_n once, as a set,
    built from Perm products, in the order of its least element."""
    w0, seen = Perm(range(n, 0, -1)), set()
    for w in all_perms(n):
        if w not in seen:
            orbit = {w, w.inverse(), w0 * w * w0, w0 * w.inverse() * w0}
            seen |= orbit
            yield orbit


def asymmetric_orbits(n):
    """The least element of each orbit {w, w^-1, w0 w w0, w0 w^-1 w0} of
    S_n on which _frobenius_coeffs is not constant."""
    return [min(orbit) for orbit in symmetry_orbits(n)
            if len({repr(_frobenius_coeffs(x)) for x in orbit}) > 1]


def test_frobenius_is_constant_on_the_orbits_of_inversion_and_w0():
    # P_{z,w} = P_{z^-1,w^-1} = P_{w0 z w0,w0 w w0}, and every character
    # takes the same value at T_z, T_{z^-1} and T_{w0 z w0}; 295 orbits
    assert all(asymmetric_orbits(n) == [] for n in range(1, 7))


def test_a_perturbed_class_breaks_the_orbit_symmetry():
    # the cyclic-shift class of 354612, the least of its orbit, does not
    # hold its inverse 641253, so a changed class polynomial there breaks
    # ch(B_w) = ch(B_{w^-1})
    w = parse_perm("354612")
    for z in all_perms(6):  # number every class of S_6 before the change
        characters._class_number(tuple(z))
    c = characters._class_number(tuple(w))
    assert characters._class_number(tuple(w.inverse())) != c
    kept = characters._classes[c]
    caches = (characters._class_bound, characters._wide_class)
    try:
        characters._classes[c] = {
            **kept, (6,): poly_add_scaled(kept[(6,)], (1,), 1, 0)}
        for cache in caches:
            cache.cache_clear()
        assert w in asymmetric_orbits(6)
    finally:
        characters._classes[c] = kept
        for cache in caches:
            cache.cache_clear()
    assert asymmetric_orbits(6) == []


@pytest.mark.parametrize("width", [2, 3, 17])
def test_balanced_decode_at_the_edge_of_the_width(width):
    top = (1 << width - 1) - 1
    for coeffs in [(top, 0, -top), (-top, 0, top), (top, 0, 0, top),
                   (0, -top, 0, -top), (1, 0, -1)]:
        assert poly_unpack(poly_pack(coeffs, width), width) == coeffs
    assert poly_unpack(0, width) == ()


def test_interpolation_spare_point_guard():
    # tampering with a trace must be caught by the oracle's spare sample point
    xs = [2, 3, 4, 5]
    poly = (1, 2)  # 1 + 2q
    ys = [poly_eval(poly, x) for x in xs]
    assert interpolate(xs[:2], ys[:2]) == poly
    ys[3] += 1
    got = interpolate(xs[:3], ys[:3])
    assert poly_eval(got, xs[3]) != ys[3]
    with pytest.raises(InterpolationError):
        interpolate_checked(xs, ys, 2, "tampered")


@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_table_matches_seminormal_oracle(n):
    table = character_table(n)
    oracle = seminormal_table(n)
    for lam in partitions(n):
        for w in all_perms(n):
            assert table[lam][w] == oracle[lam][w], (lam, w)


def test_cycle_type_and_class_reps():
    assert cycle_type(Perm((2, 3, 1, 5, 4))) == (3, 2)
    assert cycle_type(Perm.identity(4)) == (1, 1, 1, 1)
    for n in (3, 4, 5, 6):
        for mu in partitions(n):
            rep = min_class_rep(mu)
            assert cycle_type(rep) == mu
            assert rep.length() == sum(p - 1 for p in mu)


def test_murnaghan_nakayama_basics():
    assert murnaghan_nakayama((3,), (1, 1, 1)) == 1
    assert murnaghan_nakayama((1, 1, 1), (3,)) == 1
    assert murnaghan_nakayama((2, 1), (1, 1, 1)) == 2
    assert murnaghan_nakayama((2, 1), (3,)) == -1
    with pytest.raises(ValueError, match="size mismatch"):
        murnaghan_nakayama((2, 1), (2,))
    # column orthogonality at the identity class: sum f^lam^2 = n!
    import math
    for n in (4, 5, 6):
        assert sum(murnaghan_nakayama(lam, (1,) * n) ** 2
                   for lam in partitions(n)) == math.factorial(n)
    # sign character
    for n in (4, 5):
        for mu in partitions(n):
            assert murnaghan_nakayama((1,) * n, mu) == (-1) ** (n - len(mu))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_q1_matches_murnaghan_nakayama(n):
    table = character_table(n)
    for lam in partitions(n):
        for w in all_perms(n):
            value = sum(table[lam][w])
            assert value == murnaghan_nakayama(lam, cycle_type(w)), (lam, w)


def test_haiman_unimodality_spot():
    # chi^lam(q^(l/2) C'_w) is nonnegative, palindromic, unimodal
    for w in all_perms(4):
        b = cprime(w)
        for lam in partitions(4):
            assert all(poly_shape(chi_element(lam, b).value()))


def test_partition_size_guard():
    with pytest.raises(ValueError):
        chi((2, 1), Perm.identity(4))


@pytest.mark.parametrize("k", range(1, 9))
def test_coxeter_h_matches_the_s_to_h_conversion(k):
    # sum_r (-1)^r q^(k-1-r) s_(k-r, 1^r) in the h basis, each hook by
    # s_(a, 1^b) = sum_j (-1)^j h_(a+j) e_(b-j) and e_m by the e -> h table,
    # not by the s -> h table that _coxeter_h converts with
    acc = {}
    for r in range(k):
        for j in range(r + 1):
            # partitions(m)[0] is (m), or () for m = 0
            for lam, c in _transition("e", "h", r - j)[
                    partitions(r - j)[0]]:
                nu = tuple(sorted((k - r + j,) + lam, reverse=True))
                coeffs = acc.setdefault(nu, [0] * k)
                coeffs[k - 1 - r] += (-1) ** (r + j) * c
    expected = {nu: poly_trim(c) for nu, c in acc.items() if any(c)}
    assert _coxeter_h(k) == expected
