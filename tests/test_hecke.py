import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from heckelab import rowtext
from heckelab.cli import main
from heckelab.hecke import KLRowStore, kl_polynomial, row_store
from heckelab.permutations import (Perm, all_perms, bruhat_leq, parse_perm,
                                   perm_to_str)
from heckelab.qpoly import (poly_add_scaled, poly_mul, poly_pack, poly_unpack,
                            poly_width)
from hecke_oracle import (HeckeElement, Laurent, cprime, cprime_normalized,
                          cprime_times_cs, hecke_multiply, iota)

Q = Laurent.q()
ONE_PLUS_Q = (1, 1)
E3 = Perm.identity(3)
S1 = Perm((2, 1, 3))
S2 = Perm((1, 3, 2))


def t(w):
    return HeckeElement.t(w)


def test_quadratic_relation():
    assert hecke_multiply(t(S1), t(S1)) == HeckeElement(3, {S1: Q - 1, E3: Q})


def test_lengths_add():
    assert hecke_multiply(t(S1), t(S2)) == t(Perm((2, 3, 1)))


def test_unit():
    a = HeckeElement(3, {S1: 1 + Q, Perm((2, 3, 1)): Laurent.q_half(1)})
    assert hecke_multiply(a, HeckeElement.unit(3)) == a
    assert hecke_multiply(HeckeElement.unit(3), a) == a


def test_rank_mismatch():
    with pytest.raises(ValueError):
        hecke_multiply(t(S1), t(Perm((2, 1))))


def test_braid_relation():
    lhs = hecke_multiply(hecke_multiply(t(S1), t(S2)), t(S1))
    rhs = hecke_multiply(hecke_multiply(t(S2), t(S1)), t(S2))
    assert lhs == rhs


def test_associativity_random():
    rng = random.Random(4)
    for n in (4, 5):
        perms = list(all_perms(n))
        for _ in range(12):
            a, b, c = (t(rng.choice(perms)) for _ in range(3))
            assert hecke_multiply(hecke_multiply(a, b), c) == \
                hecke_multiply(a, hecke_multiply(b, c))


def test_q1_specialization_is_group_algebra():
    rng = random.Random(6)
    for n in (3, 4, 5):
        perms = list(all_perms(n))
        for _ in range(10):
            u, v = rng.choice(perms), rng.choice(perms)
            prod = hecke_multiply(t(u), t(v))
            assert prod.at_q1() == {u * v: 1}, (u, v)


def test_iota_basics():
    assert iota(HeckeElement.unit(3)) == HeckeElement.unit(3)
    # T_s^{-1} solves T_s x = T_e
    it = iota(t(S1))
    assert it == HeckeElement(3, {S1: Laurent.q(-1),
                                  E3: Laurent.q(-1) - 1})
    assert hecke_multiply(t(S1), it) == HeckeElement.unit(3)


def test_iota_involution_random():
    rng = random.Random(14)
    perms = list(all_perms(4))
    for _ in range(10):
        a = HeckeElement(4, {rng.choice(perms): Laurent({rng.randint(-3, 3): 1})
                             for _ in range(3)})
        assert iota(iota(a)) == a


def test_iota_is_multiplicative():
    rng = random.Random(15)
    perms = list(all_perms(4))
    for _ in range(8):
        a, b = t(rng.choice(perms)), t(rng.choice(perms))
        assert iota(hecke_multiply(a, b)) == hecke_multiply(iota(a), iota(b))


def test_kl_basic_values():
    e4 = Perm.identity(4)
    assert kl_polynomial(e4, parse_perm("3412")) == ONE_PLUS_Q
    assert kl_polynomial(e4, parse_perm("4231")) == ONE_PLUS_Q
    assert kl_polynomial(e4, e4) == (1,)
    assert kl_polynomial(parse_perm("2134"), parse_perm("1243")) == ()
    w = parse_perm("245361")
    assert kl_polynomial(Perm.identity(6), w) == (1,)
    # P_{w,w} = 1 along random rows
    rng = random.Random(2)
    for _ in range(6):
        u = Perm(rng.sample(range(1, 6), 5))
        assert kl_polynomial(u, u) == (1,)


def test_kl_smooth_rows_are_all_ones():
    store = row_store(4)
    for w in all_perms(4):
        if w.is_smooth():
            assert all(p == (1,) for p in store.row(w).values()), w


def test_kl_degree_bound():
    store = row_store(4)
    for w in all_perms(4):
        lw = w.length()
        for z, p in store.row(w).items():
            if z != w:
                assert 2 * (len(p) - 1) < lw - z.length(), (z, w, p)


def test_kl_self_duality_s4():
    for w in all_perms(4):
        cn = cprime_normalized(w)
        assert iota(cn) == cn, w


def test_kl_self_duality_s5_sample():
    rng = random.Random(5)
    for w in rng.sample(list(all_perms(5)), 20):
        cn = cprime_normalized(w)
        assert iota(cn) == cn, w


def test_kl_row_support_is_interval():
    store = row_store(4)
    perms = list(all_perms(4))
    for w in perms:
        support = set(store.row(w))
        for z in perms:
            assert (z in support) == bruhat_leq(z, w), (z, w)


def test_kl_inversion_formula_s5():
    # sum_z (-1)^(l(x)+l(z)) P_{x,z} P_{w0 w, w0 z} = delta_{x,w}: a relation
    # between rows that the recursion building them does not use
    n = 5
    store = row_store(n)
    w0 = Perm(range(n, 0, -1))
    for w in all_perms(n):
        acc = {}
        for z in store.row(w):
            dual = store.row(w0 * z)[w0 * w]
            for x, p in store.row(z).items():
                sign = -1 if (x.length() + z.length()) & 1 else 1
                acc[x] = poly_add_scaled(acc.get(x, ()), poly_mul(p, dual),
                                         sign, 0)
        assert {x: p for x, p in acc.items() if p} == {w: (1,)}, w


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.sampled_from([7, 8]).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(Perm))
def test_kl_row_properties_s7_s8(w):
    row = row_store(len(w)).row(w)
    assert row[w] == (1,)
    lw = w.length()
    for z, p in row.items():
        assert p[0] == 1 and min(p) >= 0, (z, p)
        if z != w:
            assert 2 * (len(p) - 1) < lw - z.length(), (z, p)
    assert set(row) == {z for z in all_perms(len(w)) if bruhat_leq(z, w)}


# sha256 of `hecke-lab --format json kl --w <w>` stdout, recorded from the
# row store that built rows of tuple polynomials keyed by Perm (the first
# two), from the export that decoded rows into {Perm: tuple} (the next two;
# the coset permutations the benchmark draws from seeds) and from the store
# of lower half rows (78563412, singular, whose closure has
# mu-corrections with nonconstant polynomials); the rank 10 row, whose
# comma strings do not sort like the permutations, from the store of
# descent cosets with tuple keys; w0 of S_9, the largest rank printed as
# digit strings (362 880 entries, one coset), from the store that exported
# (z, rendered polynomial) pairs
KL_JSON_SHA256 = {
    "87654321":
        "8463083f1b346cc1b13388ba02aa5326a0ce44a8c2247d6c724775c49fdd1a02",
    "62754381":
        "e4474580f1e337b5e3733bd81d70d1037b4dd4bd582e800cad5e8257e1d53a59",
    "76854321":
        "f8db3c61206baec1a56080f1bfde2a097b5c53020e3ab2973f24b8c7b22c8e17",
    "85764321":
        "9e465b31892c65d8d8cdff6642d3df082d5dea7321d1893425013f2fddd95f05",
    "78563412":
        "0705acc4ba7fc73edecc0e34d393f336b813e9700abb1e60724138f6cb39d73d",
    "1,10,3,4,5,6,7,8,9,2":
        "31d035ef910a415906bb8118c6d27a735e10097a417259a28d479e9e727a1bd0",
    "987654321":
        "9f4955c622ef8b13c799f975dde951a0f76bd68d5823339fa4245ebca8d31cde",
}
# the same for `hecke-lab --format text kl --w <w>`
KL_TEXT_SHA256 = {
    "62754381":
        "9f1fff4fb3f309b9bb96e7b4dfff2c4bd765c0b56e403e61dcb82c47be9e8ebd",
    "78563412":
        "5f00a4fd0ef5e6f93a3ab4c2f2197f101d84c15cfefb8a7a9ba9e7a32c0b87cc",
    "1,10,3,4,5,6,7,8,9,2":
        "2796a027cc2b8b1a658e140281f1c09be00b4d30a9f68fbcafc9ef42a0cd0dcd",
}
# sha256 of `hecke-lab --format <fmt> cprime --w <w>` stdout: 7563412,
# recorded from the store of descent cosets with tuple keys, a row of 4 048
# entries on many small cosets; w0 of S_8, whose row is more than one
# chunk of the writer; the rank 10 row, in the comma form; 785634912 (text
# only), a rank 9 row of 94 720 entries on 1 855 stored double cosets with
# 122 distinct polynomials, from the store that exported (z, rendered
# polynomial) pairs
CPRIME_SHA256 = {
    "json": {
        "7563412":
            "149c6ed400d2951928ff802e319029887877e77b5c6bbee42d5825924555caf4",
        "87654321":
            "d4082bb2e12960e84887cdd43292493e899db254a2af41eaac236a8b37d2de95",
        "1,10,3,4,5,6,7,8,9,2":
            "75a44059f48042361e12f6f7e1b3b7330959f72c8436fd4585af67637d09e1a3",
    },
    "text": {
        "7563412":
            "8714b2146e38a6fa01b14db006f81408f80eacaca83886bafed00b913ed1ecb5",
        "87654321":
            "22de1fa528b745847d75103a1ee41540a3530c70f322e9b0fcbc3615de053fc6",
        "1,10,3,4,5,6,7,8,9,2":
            "10c13b8a908a879bc353eda149770ea197a24fb9ee1342d0dc29224e1e9e2e5a",
        "785634912":
            "85be234e5c9927f80475caf27d6d51401ea58ff865eb8145ae115b3b62b2ff2d",
    },
}


def stdout_sha256(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["--no-cache", *argv])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("w", sorted(KL_JSON_SHA256))
def test_kl_json_golden_digest(w):
    assert stdout_sha256("--format", "json", "kl", "--w", w) == \
        KL_JSON_SHA256[w]


@pytest.mark.parametrize("w", sorted(KL_TEXT_SHA256))
def test_kl_text_golden_digest(w):
    assert stdout_sha256("--format", "text", "kl", "--w", w) == \
        KL_TEXT_SHA256[w]


@pytest.mark.parametrize("fmt", sorted(CPRIME_SHA256))
def test_cprime_golden_digest(fmt):
    assert {w: stdout_sha256("--format", fmt, "cprime", "--w", w)
            for w in CPRIME_SHA256[fmt]} == CPRIME_SHA256[fmt]


def exported(store, y, poly_first):
    """[(z, P_{z,y})] read back from the text of rowtext.export, one entry
    a line, in the order it is written: with poly_first the repr of P_{z,y}
    is rendered before z (so every row with two distinct polynomials takes
    the entry-by-entry join), otherwise after it."""
    polys = {}

    def render(c):
        polys[repr(c)] = c
        return (repr(c) + "=", "") if poly_first else ("", "=" + repr(c))
    text = "".join(rowtext.export(store, y, render, "\n"))
    pairs = (line.split("=") for line in text.split("\n"))
    if poly_first:
        return [(z, polys[p]) for p, z in pairs]
    return [(z, polys[p]) for z, p in pairs]


@pytest.mark.parametrize("ys", [
    list(all_perms(5)),
    random.Random(18).sample(list(all_perms(7)), 10),
    [parse_perm("1,10,3,4,5,6,7,8,9,2")],
], ids=["s5", "s7-sample", "rank10"])
def test_export_matches_the_sorted_row(ys):
    # export expands the cosets as strings, row as tuples: the two agree
    store = KLRowStore(len(ys[0]))
    for y in ys:
        expected = [(perm_to_str(z), p) for z, p in sorted(
            store.row(y).items(), key=lambda item: (item[0].length(),
                                                    item[0]))]
        assert exported(store, y, False) == expected, y
        assert exported(store, y, True) == expected, y


# sha256 over n = 1..7 and every w of S_n in lexicographic order of
# repr([(z, P_{z,w})]) read back from export(w), one fresh store per rank:
# every row of S_7 and below, entry by entry, in the order the printers
# read; recorded from the store of right descent cosets
ALL_ROWS_SHA256 = \
    "897e1c56f506e42cef708c55c46324a1d5b5437d26b17643fc4b5239b8372a57"


def test_every_row_of_rank_at_most_7_golden_digest():
    digest = hashlib.sha256()
    for n in range(1, 8):
        store = KLRowStore(n)
        for w in all_perms(n):
            digest.update(repr(exported(store, w, False)).encode())
    assert digest.hexdigest() == ALL_ROWS_SHA256


def test_printing_the_w0_row_of_s8_peaks_below_5_mib():
    # the allocations of printing the built row of w0 in S_8 as JSON, with
    # the arrangements of its run written afresh: 5.9 MiB when the row was
    # exported as (z, rendered polynomial) pairs and joined entry by entry,
    # 4.1 MiB with each entry built once as its final string
    w = parse_perm("87654321")
    row_store(8).polynomial(Perm.identity(8), w)
    rowtext._arrangements.cache_clear()
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        tracemalloc.start()
        try:
            main(["--no-cache", "--format", "json", "kl", "--w", "87654321"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 5 * 2 ** 20


@pytest.mark.parametrize("comma", ["", ","])
def test_arrangements_by_inversions(comma):
    # each string lists the arrangements with k inversions in increasing
    # order, as itertools does
    for m in range(1, 7):
        labels = "".join(map(chr, range(49, 49 + m)))
        groups = [[] for _ in range(m * (m - 1) // 2 + 1)]
        for a in itertools.permutations(labels):
            k = sum(x > y for i, x in enumerate(a) for y in a[i + 1:])
            groups[k].append("".join(c + comma for c in a))
        assert rowtext._arrangements(labels, comma) == \
            tuple("\x1f".join(g) for g in groups), m


def test_negative_packed_coefficient_raises():
    # -1 + q packs to 2^B - 1 > 0, which nonnegative base-2^B digits would
    # read as the constant 2^B - 1
    w = parse_perm("3412")
    for read in (lambda s: s.row(w),
                 lambda s: list(rowtext.export(s, w, lambda c: ("", ""),
                                               ""))):
        for coeffs in ((-1,), (-1, 1)):
            store = KLRowStore(4)
            store.row(w)
            stored = store._packed[w]
            stored[next(iter(stored))] = poly_pack(coeffs, store._width)
            with pytest.raises(AssertionError,
                               match="negative KL coefficient"):
                read(store)


def test_the_store_width_is_two_above_the_longest_length():
    # poly_width(2^(n(n-1)/2)), as P_{z,y} <= 2^(n(n-1)/2) coefficientwise
    for n in range(1, 11):
        assert KLRowStore(n)._width == n * (n - 1) // 2 + 2


def _left_times_simple(k, z):
    """s_k z as a tuple: the values k and k + 1 of z exchanged."""
    return tuple(k + 1 if v == k else k if v == k + 1 else v for v in z)


def _times_simple(z, i):
    """z s_i as a tuple: the positions i and i + 1 of z exchanged."""
    return z[:i - 1] + (z[i], z[i - 1]) + z[i + 1:]


def test_stored_rows_are_descent_cosets():
    # a row keeps one value per double coset W_I z W_J of [e, y], I = D_L(y)
    # and J = D_R(y), keyed by the coset's minimal element; P_{z,y} =
    # P_{tz,y} = P_{zt',y} for every left descent t and right descent t' of
    # y (Kazhdan and Lusztig 1979, 2.3) gives back the rest
    store = KLRowStore(6)
    shared = {}
    pairs = 0
    for y in all_perms(6):
        row = store.row(y)
        pairs += len(row)
        stored = store._packed[y]
        left, right = y.inverse().descents(), y.descents()
        full = {}
        for r, p in stored.items():
            # the double coset of r, each z with l(z) - l(r): s_k z is
            # longer than z when k comes before k + 1 in z, z s_i when
            # z(i) < z(i+1)
            coset, todo = {r: 0}, [r]
            while todo:
                z = todo.pop()
                steps = [(_left_times_simple(k, z),
                          z.index(k) < z.index(k + 1)) for k in left]
                steps += [(_times_simple(z, i), z[i - 1] < z[i])
                          for i in right]
                for x, up in steps:
                    if x not in coset:
                        coset[x] = coset[z] + (1 if up else -1)
                        todo.append(x)
            # the key is the one shortest element of its double coset
            assert all(d > 0 for z, d in coset.items() if z != r), (r, y)
            for z in coset:
                # the double cosets of the keys cover the row once
                assert z not in full, (z, y)
                full[z] = poly_unpack(p, store._width)
        assert full == row, y
        for z, p in row.items():
            for k in left:
                assert row[_left_times_simple(k, z)] == p, (z, y, k)
            for i in right:
                assert row[_times_simple(z, i)] == p, (z, y, i)
        for p in stored.values():
            assert shared.setdefault(p, p) is p, (y, p)
    assert pairs == 98407  # the Bruhat-comparable pairs z <= y of S_6


def test_unpack_reads_coefficients_above_the_store_width():
    # a sum of products of KL polynomials can carry past the store's slot
    # width B; at a width above its value at q = 1 it decodes exactly
    b = KLRowStore(4)._width
    coeffs = [2 ** b + 3, 0, 1]
    width = poly_width(max(coeffs))
    packed = poly_pack(coeffs, width)
    assert poly_unpack(packed, width) == tuple(coeffs)
    assert poly_unpack(packed, b) != tuple(coeffs)


def test_single_entry_reads_match_the_row():
    # polynomial reads the one stored value at the coset of z; the row
    # holds exactly the z <= y, so it is () for every other z
    store = KLRowStore(5)
    perms = list(all_perms(5))
    for y in random.Random(3).sample(perms, 12):
        row = row_store(5).row(y)
        for z in perms:
            assert (z in row) == bruhat_leq(z, y), (z, y)
            assert store.polynomial(z, y) == row.get(z, ()), (z, y)
            assert kl_polynomial(z, y) == row.get(z, ()), (z, y)


def test_mu():
    # smooth w: mu(z, w), the coefficient of q^((l(w) - l(z) - 1)/2) in
    # P_{z,w}, is 1 exactly on the lower covers of w
    store = row_store(4)
    for w in all_perms(4):
        if not w.is_smooth():
            continue
        covers = w.lower_covers()
        for z in all_perms(4):
            if bruhat_leq(z, w) and z != w:
                gap = w.length() - z.length()
                p = store.polynomial(z, w)
                mu = p[gap // 2] if gap & 1 and gap // 2 < len(p) else 0
                assert mu == (1 if z in covers else 0), (z, w)


def test_cprime():
    e2 = Perm.identity(2)
    s = Perm((2, 1))
    assert cprime(e2) == HeckeElement.t(e2)
    assert cprime(s) == HeckeElement(2, {e2: 1, s: 1})
    w = parse_perm("245361")
    b = cprime(w)
    assert all(c == Laurent({0: 1}) for c in b.terms.values())
    assert len(b.terms) == len(row_store(6).row(w))


def test_cprime_times_cs_examples():
    s = Perm((2, 1))
    # C'_s C'_s = (q^(-1/2) + q^(1/2)) C'_s
    exp = cprime_times_cs(s, 1)
    assert exp == {s: Laurent.q_half(-1) + Laurent.q_half(1)}
    # C'_e C'_s = C'_s
    exp = cprime_times_cs(Perm.identity(2), 1)
    assert exp == {s: Laurent({0: 1})}
    # C'_231 C'_{s_1} = C'_321 + C'_213
    exp = cprime_times_cs(Perm((2, 3, 1)), 1)
    assert exp == {Perm((3, 2, 1)): Laurent({0: 1}),
                   Perm((2, 1, 3)): Laurent({0: 1})}


@pytest.mark.parametrize("n", [3, 4])
def test_cprime_times_cs_vs_hecke_multiply(n):
    for w in all_perms(n):
        for i in range(1, n):
            expansion = cprime_times_cs(w, i)
            lhs = hecke_multiply(cprime_normalized(w), cprime_normalized(
                Perm.identity(n).times_simple(i)))
            rhs = HeckeElement.zero(n)
            for z, c in expansion.items():
                rhs = rhs + cprime_normalized(z).scale(c)
            assert lhs == rhs, (w, i)


def test_cprime_times_cs_vs_hecke_multiply_s5_sample():
    rng = random.Random(25)
    perms = list(all_perms(5))
    for _ in range(15):
        w = rng.choice(perms)
        i = rng.randint(1, 4)
        expansion = cprime_times_cs(w, i)
        lhs = hecke_multiply(cprime_normalized(w), cprime_normalized(
            Perm.identity(5).times_simple(i)))
        rhs = HeckeElement.zero(5)
        for z, c in expansion.items():
            rhs = rhs + cprime_normalized(z).scale(c)
        assert lhs == rhs, (w, i)


def test_s8_counterexample_polynomial():
    w = parse_perm("62754381")
    assert kl_polynomial(Perm.identity(8), w) == ONE_PLUS_Q


def test_kl_table_json():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--no-cache", "--format", "json", "kl", "--w", "3412"]) \
            == 0
    data = json.loads(out.getvalue())
    assert data["n"] == 4
    entries = data["entries"]
    assert entries[0][:2] == ["1234", "3412"]
    assert entries[0][2] == {"0": 1, "1": 1}
    lengths = [parse_perm(z).length() for z, _, _ in entries]
    assert lengths == sorted(lengths)
    assert entries[-1][:2] == ["3412", "3412"]


def test_hecke_element_serialization():
    a = HeckeElement(3, {S1: 1 + Q, E3: Laurent.q(2)})
    assert str(a) == "(q^2)*T[123] + (1 + q)*T[213]"
    # a tuple polynomial holds integer powers of q only, so a half power
    # fails loudly
    with pytest.raises(AssertionError):
        str(HeckeElement(3, {E3: Laurent.q_half(-1)}))
