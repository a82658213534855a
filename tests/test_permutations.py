import hashlib
import json
import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from heckelab import permutations
from heckelab.combinat import (edge_count, enumerate_hessenberg,
                               hessenberg_edges, is_hessenberg,
                               parse_hessenberg)
from heckelab.permutations import (NotSmoothError, Perm, all_perms, bruhat_leq,
                                   codominant_of_hessenberg, coessential_set,
                                   hessenberg_of_smooth, orbit_representatives,
                                   parse_perm, perm_to_str, smooth_perms,
                                   transpositions_below)
from heckelab.lab import smooth_reduce
from test_characters import symmetry_orbits


def brute_length(w):
    return sum(1 for i, j in combinations(range(len(w)), 2) if w[i] > w[j])


def contains_pattern(w, p):
    """Some subsequence of w is order-isomorphic to p: the brute-force scan
    over every choice of len(p) positions."""
    return any(all((p[a] < p[b]) == (w[pos[a]] < w[pos[b]])
                   for a, b in combinations(range(len(p)), 2))
               for pos in combinations(range(len(w)), len(p)))


def subword_interval(w):
    """All z <= w via subwords of one fixed reduced expression: the oracle."""
    word = w.reduced_word()
    n = len(w)
    out = set()
    for bits in range(1 << len(word)):
        z = Perm.identity(n)
        for k, i in enumerate(word):
            if bits >> k & 1:
                z = z.times_simple(i)
        out.add(z)
    return out


def perms_of(*ranks):
    return st.sampled_from(ranks).flatmap(
        lambda n: st.permutations(range(1, n + 1))).map(Perm)


seeded = settings(derandomize=True, database=None, deadline=None,
                  max_examples=50)


def coessential_scan(w):
    """Direct scan of the defining inequalities (infinity convention)."""
    n = len(w)
    winv = w.inverse()
    big = n + 1

    def wv(i):
        return w[i - 1] if i <= n else big

    def iv(j):
        return winv[j - 1] if j <= n else big

    return frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
        if wv(i) <= j < wv(i + 1) and iv(j) <= i < iv(j + 1))


def test_perm_rejects_non_permutations():
    for word in ((1, 1, 2), (0, 1), (2, 3)):
        with pytest.raises(ValueError):
            Perm(word)
    with pytest.raises(ValueError):
        parse_perm("112")
    # a malformed string is refused in the parser's words, not int()'s
    for text in ("1,,2", "2,1,"):
        with pytest.raises(ValueError,
                           match=f"^not a permutation string: '{text}'$"):
            parse_perm(text)


def test_length_examples():
    assert Perm.identity(5).length() == 0
    w = parse_perm("245361")
    assert w.length() == 7 == brute_length(w)
    assert Perm((2, 1)).length() == 1


def test_length_random_vs_brute():
    rng = random.Random(2)
    for _ in range(30):
        word = rng.sample(range(1, 9), 8)
        w = Perm(word)
        assert w.length() == brute_length(w)
        assert w.length() == w.inverse().length()


def test_compose_convention():
    w = parse_perm("26754381")
    # right multiplication by s_1 swaps positions 1 and 2
    assert w * Perm.identity(8).times_simple(1) == parse_perm("62754381")
    assert w.times_simple(1) == parse_perm("62754381")
    # left multiplication by s_1 swaps the values 1 and 2
    assert Perm.identity(8).times_simple(1) * w == parse_perm("16754382")
    e = Perm.identity(8)
    assert w * e == w
    assert w * w.inverse() == e
    with pytest.raises(ValueError, match="size mismatch"):
        w * Perm.identity(7)


def test_length_times_simple():
    rng = random.Random(9)
    for _ in range(30):
        w = Perm(rng.sample(range(1, 8), 7))
        for i in range(1, 7):
            assert abs(w.times_simple(i).length() - w.length()) == 1


def test_bruhat_examples():
    assert bruhat_leq(Perm.identity(4), parse_perm("4321"))
    assert bruhat_leq(parse_perm("2134"), parse_perm("2314"))
    assert not bruhat_leq(parse_perm("2134"), parse_perm("1243"))
    with pytest.raises(ValueError):
        bruhat_leq(Perm.identity(3), Perm.identity(4))


@pytest.mark.parametrize("n", [3, 4])
def test_bruhat_vs_subword_oracle_exhaustive(n):
    perms = list(all_perms(n))
    for w in perms:
        below = subword_interval(w)
        for z in perms:
            assert bruhat_leq(z, w) == (z in below), (z, w)


def test_bruhat_vs_subword_oracle_s5():
    perms = list(all_perms(5))
    rng = random.Random(17)
    for w in rng.sample(perms, 25):
        below = subword_interval(w)
        for z in perms:
            assert bruhat_leq(z, w) == (z in below), (z, w)


@seeded
@given(perms_of(6), perms_of(6))
def test_bruhat_rank_criterion_matches_subword_oracle(z, w):
    assert bruhat_leq(z, w) == (z in subword_interval(w)), (z, w)


def test_lower_covers():
    assert Perm.identity(4).lower_covers() == set()
    assert Perm((2, 3, 1)).lower_covers() == {Perm((2, 1, 3)), Perm((1, 3, 2))}
    assert Perm((2, 1)).lower_covers() == {Perm((1, 2))}
    # every cover is one length down and Bruhat-below
    rng = random.Random(3)
    for _ in range(10):
        w = Perm(rng.sample(range(1, 7), 6))
        for z in w.lower_covers():
            assert z.length() == w.length() - 1
            assert bruhat_leq(z, w)


def test_lower_covers_match_length_definition_s6():
    for w in all_perms(6):
        target = w.length() - 1
        by_length = {w.times_transposition(i, j)
                     for i in range(1, 6) for j in range(i + 1, 7)
                     if w.times_transposition(i, j).length() == target}
        assert w.lower_covers() == by_length, w


@pytest.mark.parametrize("n", range(1, 7))
def test_descending_covers_match_the_filtered_lower_covers(n):
    # every w of S_n, smooth or not, at every ascent i
    for w in all_perms(n):
        covers = w.lower_covers()
        for i in range(1, n):
            if w[i - 1] < w[i]:
                got = permutations._descending_covers(w, i)
                assert len(got) == len(set(got)), (w, i)
                assert set(got) == {z for z in covers if z[i - 1] > z[i]}, \
                    (w, i)


def test_patterns():
    assert contains_pattern(parse_perm("3412"), (3, 4, 1, 2))
    assert contains_pattern(parse_perm("62754381"), (4, 2, 3, 1))
    assert not contains_pattern(parse_perm("245361"), (3, 1, 2))
    assert not contains_pattern(Perm.identity(6), (2, 1))
    assert contains_pattern(parse_perm("12453"), (1, 3, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_smooth_and_codominant_scans_match_contains_pattern(n):
    for w in all_perms(n):
        assert w.is_smooth() == (not contains_pattern(w, (3, 4, 1, 2))
                                 and not contains_pattern(w, (4, 2, 3, 1))), w
        assert w.is_codominant() == (not contains_pattern(w, (3, 1, 2))), w


def test_smooth_counts_to_n8():
    counts = [sum(1 for w in all_perms(n) if w.is_smooth())
              for n in range(1, 9)]
    assert counts == [1, 2, 6, 22, 88, 366, 1552, 6652]


@pytest.mark.parametrize("n", range(9))
def test_smooth_table_is_the_pattern_scan_filter(n):
    # same permutations in the same (lexicographic) order
    perms = smooth_perms(n)
    assert perms == tuple(w for w in all_perms(n)
                          if permutations._avoids_3412_4231(w))
    assert all(type(w) is Perm for w in perms)
    assert permutations._smooth_sets[n] == frozenset(perms)


def test_is_smooth_agrees_with_and_without_the_table(monkeypatch):
    smooth_perms(7)
    with_table = [w.is_smooth() for w in all_perms(7)]
    monkeypatch.delitem(permutations._smooth_sets, 7)
    assert [w.is_smooth() for w in all_perms(7)] == with_table
    assert sum(with_table) == 1552


def test_is_smooth_at_an_untabulated_rank_builds_no_table():
    assert parse_perm("2,1,4,3,6,5,8,7,10,9").is_smooth()
    assert not parse_perm("3,4,1,2,5,6,7,8,9,10").is_smooth()
    assert not parse_perm("1,2,3,4,5,6,10,8,9,7").is_smooth()
    assert 10 not in permutations._smooth_sets


def symmetry_orbit(w):
    """{w, w^-1, w0 w w0, w0 w^-1 w0}, from Perm products."""
    w0 = Perm(range(len(w), 0, -1))
    return {w, w.inverse(), w0 * w * w0, w0 * w.inverse() * w0}


@pytest.mark.parametrize("n", range(1, 7))
def test_orbit_representatives_are_the_least_of_each_orbit(n):
    least = [min(orbit) for orbit in symmetry_orbits(n)]
    assert orbit_representatives(all_perms(n)) == least
    smooth = set(smooth_perms(n))
    assert orbit_representatives(smooth_perms(n)) == \
        [w for w in least if w in smooth]


def test_orbit_counts():
    assert [len(orbit_representatives(all_perms(n))) for n in range(1, 8)] \
        == [1, 2, 4, 13, 45, 230, 1388]
    assert [len(orbit_representatives(smooth_perms(n)))
            for n in range(1, 9)] == [1, 2, 4, 11, 32, 114, 430, 1758]


@pytest.mark.parametrize("n", range(1, 9))
def test_smooth_orbits_reduce_into_the_orbit_of_the_reduction(n):
    # what lets thm15 run over the representatives: the orbits of the
    # smooth representatives are smooth and cover every smooth w, and
    # smooth_reduce maps each into the orbit of smooth_reduce(rep)
    smooth = set(smooth_perms(n))
    covered = set()
    for rep in orbit_representatives(smooth_perms(n)):
        orbit = symmetry_orbit(rep)
        assert orbit <= smooth, rep
        target = symmetry_orbit(smooth_reduce(rep))
        assert all(smooth_reduce(w) in target for w in orbit), rep
        covered |= orbit
    assert covered == smooth


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_codominant_implies_smooth(n):
    for w in all_perms(n):
        if w.is_codominant():
            assert w.is_smooth(), w


def test_coessential_set_matches_scan():
    # the dot-diagram example: Coess(245361) = {(1,2),(2,4),(4,5),(6,6)}
    w = parse_perm("245361")
    assert coessential_set(w) == frozenset({(1, 2), (2, 4), (4, 5), (6, 6)})
    # scan of the defining inequalities is the oracle everywhere
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        for w in all_perms(n):
            assert coessential_set(w) == coessential_scan(w), w
    for _ in range(25):
        w = Perm(rng.sample(range(1, 8), 7))
        assert coessential_set(w) == coessential_scan(w), w
    # the scan keeps the trailing (4,4) pair for 3142 and the diagonal for e
    assert coessential_set(parse_perm("3142")) == frozenset(
        {(2, 1), (2, 3), (4, 4)})
    assert coessential_set(Perm.identity(4)) == frozenset(
        {(1, 1), (2, 2), (3, 3), (4, 4)})


def test_hessenberg_of_smooth():
    assert hessenberg_of_smooth(parse_perm("245361")) == (2, 4, 5, 5, 6, 6)
    assert hessenberg_of_smooth(parse_perm("3142")) == (2, 3, 4, 4)
    assert hessenberg_of_smooth(Perm.identity(5)) == (1, 2, 3, 4, 5)
    with pytest.raises(NotSmoothError):
        hessenberg_of_smooth(parse_perm("4231"))
    with pytest.raises(NotSmoothError):
        hessenberg_of_smooth(parse_perm("3412"))


# sha256 of the JSON list of m_w for every smooth w of S_1, ..., S_9 in
# smooth_perms order, recorded when m_w was read off the coessential set
HESSENBERG_OF_SMOOTH_S9_SHA256 = \
    "445c949e237b56277d8b5c664645be453431a1084f401f321b9bc60bc11be5eb"


def test_hessenberg_of_smooth_golden_digest():
    ms = [list(hessenberg_of_smooth(w))
          for n in range(1, 10) for w in smooth_perms(n)]
    assert len(ms) == 37385
    assert hashlib.sha256(json.dumps(ms).encode()).hexdigest() == \
        HESSENBERG_OF_SMOOTH_S9_SHA256


def test_codominant_of_hessenberg():
    assert codominant_of_hessenberg((2, 4, 5, 5, 6, 6)) == parse_perm("245361")
    assert codominant_of_hessenberg((2, 6, 7, 7, 7, 7, 8, 8)) == parse_perm("26754381")
    assert codominant_of_hessenberg(tuple(range(1, 7))) == Perm.identity(6)
    with pytest.raises(ValueError):
        codominant_of_hessenberg((2, 1, 3))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_codominant_round_trip(n):
    for m in enumerate_hessenberg(n):
        w = codominant_of_hessenberg(m)
        assert w.is_codominant()
        assert hessenberg_of_smooth(w) == m
    for w in all_perms(n):
        if w.is_codominant():
            assert codominant_of_hessenberg(hessenberg_of_smooth(w)) == w


def test_transpositions_below():
    assert transpositions_below(Perm((2, 1))) == frozenset({(1, 2)})
    assert transpositions_below(Perm.identity(4)) == frozenset()
    w = parse_perm("245361")
    ts = transpositions_below(w)
    assert ts == frozenset(
        {(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (5, 6)})
    assert len(ts) == w.length()


def test_transpositions_below_matches_bruhat_leq_s6():
    e = Perm.identity(6)
    for w in all_perms(6):
        expected = frozenset(
            (i, j) for i in range(1, 6) for j in range(i + 1, 7)
            if bruhat_leq(e.times_transposition(i, j), w))
        assert transpositions_below(w) == expected, w
        # Lemma 2.2: below smooth w lie exactly l(w) transpositions
        if w.is_smooth():
            assert len(expected) == w.length(), w


def transpositions_below_by_rank_table(w):
    """(i j) <= w iff r_{a,b}(w) < min(a, b) on the square [i, j - 1]^2,
    read off a table of that test for every cell."""
    n = len(w)
    # low[a][b]: r_{a,b}(w) < min(a, b), for 1 <= a, b < n
    low = [[False] * n]
    rank = [0] * (n + 1)
    for a in range(1, n):
        for v in range(w[a - 1], n + 1):
            rank[v] += 1
        low.append([rank[b] < min(a, b) for b in range(n)])
    out = set()
    for i in range(1, n):
        # grow the square [i, j - 1]^2 while it stays low
        j = i
        while j < n and all(low[j][b] and low[b][j] for b in range(i, j + 1)):
            j += 1
            out.add((i, j))
    return frozenset(out)


def test_transpositions_below_matches_the_rank_table_s7():
    for w in all_perms(7):
        assert transpositions_below(w) == \
            transpositions_below_by_rank_table(w), w


def test_hessenberg_edges():
    assert hessenberg_edges((1, 2, 3)) == frozenset()
    assert hessenberg_edges((2, 3, 3)) == {(1, 2), (2, 3)}
    assert hessenberg_edges((3, 3, 3)) == {(1, 2), (1, 3), (2, 3)}
    assert len(hessenberg_edges((2, 4, 4, 5, 5))) == 1 + 2 + 1 + 1


def test_enumerate_hessenberg():
    assert enumerate_hessenberg(1) == [(1,)]
    assert len(enumerate_hessenberg(4)) == 14
    assert len(enumerate_hessenberg(8)) == 1430
    with pytest.raises(ValueError, match="n must be >= 1"):
        enumerate_hessenberg(0)
    for n in range(1, 11):
        ms = enumerate_hessenberg(n)
        assert len(ms) == comb(2 * n, n) // (n + 1)  # Catalan(n)
        assert ms == sorted(ms)
        assert all(is_hessenberg(m) for m in ms)


def test_enumerate_hessenberg_by_edge_count():
    # the pruned enumeration is the filtered one, order included, for empty,
    # out-of-range, single and two-gap sets of edge counts
    for n in range(1, 10):
        ms, top = enumerate_hessenberg(n), n * (n - 1) // 2
        for edges in [set(), {-1, top + 1}] + [
                s for e in range(top + 1) for s in ({e}, {e - 1, e + 1})]:
            assert enumerate_hessenberg(n, edges) == \
                [m for m in ms if edge_count(m) in edges], (n, edges)


def test_reduced_word():
    rng = random.Random(8)
    for _ in range(25):
        w = Perm(rng.sample(range(1, 9), 8))
        word = w.reduced_word()
        assert len(word) == w.length()
        u = Perm.identity(8)
        for i in word:
            u = u.times_simple(i)
        assert u == w


@seeded
@given(perms_of(8, 9))
def test_reduced_word_length_is_length(w):
    word = w.reduced_word()
    assert len(word) == w.length()
    u = Perm.identity(len(w))
    for i in word:
        u = u.times_simple(i)
    assert u == w


def test_serialization():
    assert perm_to_str(parse_perm("62754381")) == "62754381"
    w = Perm(tuple(range(1, 12)))
    assert parse_perm(perm_to_str(w)) == w
    assert parse_perm("e", 4) == Perm.identity(4)
    assert parse_perm("2,4,1,3") == parse_perm("2413")
    with pytest.raises(ValueError):
        parse_perm("e")
    with pytest.raises(ValueError):
        parse_perm("1123")
    with pytest.raises(ValueError):
        parse_hessenberg("2,1,3")
    assert parse_hessenberg("2,3,3") == (2, 3, 3)
