import hashlib
import json
from math import factorial, prod

import pytest

from heckelab.csf import (_blocks, _oracle_coeffs, _word, csf, csf_batch,
                          csf_index, csf_key, csf_oracle, edge_count)
from heckelab.permutations import (codominant_of_hessenberg,
                                   enumerate_hessenberg, hessenberg_edges,
                                   hessenberg_to_str, parse_perm)
from heckelab.symfunc import (SymmetricFunction, partitions,
                              q_factorial_partition)

ONE_PLUS_Q = (1, 1)


def canonical_sha256(coeffs_by_m: dict) -> str:
    """sha256 of the canonical JSON of {m: monomial tuple polynomials}."""
    canon = {hessenberg_to_str(m): {",".join(map(str, lam)): list(p)
                                    for lam, p in coeffs.items()}
             for m, coeffs in coeffs_by_m.items()}
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_indifference_graph():
    # the edges of G_m
    assert hessenberg_edges((1, 2, 3, 4)) == frozenset()
    assert len(hessenberg_edges((4, 4, 4, 4))) == 6
    assert len(hessenberg_edges((2, 6, 7, 7, 7, 7, 8, 8))) == 16
    # edge count equals sum(m(i) - i) equals l(w_m), by the inversion oracle
    assert edge_count((2, 6, 7, 7, 7, 7, 8, 8)) == 16
    assert parse_perm("26754381").length() == 16


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_edges_match_length_of_codominant(n):
    for m in enumerate_hessenberg(n):
        edges = hessenberg_edges(m)
        assert len(edges) == edge_count(m) == \
            codominant_of_hessenberg(m).length()
        assert edges == frozenset(
            (i, j) for i in range(1, n + 1) for j in range(i + 1, m[i - 1] + 1))


@pytest.mark.parametrize("k", range(1, 8))
def test_dyck_word_deletion_lemma(k):
    # for every independent set B of G_h, deleting the bits A_v and E_v of
    # v in B (the v-th 1 and the v-th 0 from the top) leaves the word of the
    # induced function h'(t) = #{u not in B : u <= h(t)}, and _blocks lists
    # exactly those sets with their weights and rest words
    for h in enumerate_hessenberg(k):
        word = _word(h)
        assert word.bit_length() == 2 * k, h
        bits = bin(word)[2:]
        ones = [i for i, b in enumerate(bits) if b == "1"]
        zeros = [i for i, b in enumerate(bits) if b == "0"]
        edges = hessenberg_edges(h)
        expected = []
        for mask in range(1, 1 << k):
            block = [v for v in range(1, k + 1) if mask >> (v - 1) & 1]
            if any((i, j) in edges for i in block for j in block):
                continue
            gone = {ones[v - 1] for v in block} | {zeros[v - 1]
                                                    for v in block}
            rest = "".join(b for i, b in enumerate(bits) if i not in gone)
            induced = tuple(sum(u not in block for u in range(1, h[t - 1] + 1))
                            for t in range(1, k + 1) if t not in block)
            assert int(rest or "0", 2) == _word(induced), (h, block)
            expected.append((len(block), sum(h[v - 1] - v for v in block),
                             _word(induced)))
        assert sorted(_blocks(word, 0, 1)) == sorted(expected), h


def test_csf_examples():
    f = csf((1, 2, 3))
    assert f.polys == {(1, 1, 1): (6,), (2, 1): (3,), (3,): (1,)}
    assert csf((2, 2)) == SymmetricFunction("e", 2, {(2,): ONE_PLUS_Q})
    assert csf((3, 3, 3)) == SymmetricFunction(
        "e", 3, {(3,): q_factorial_partition((3,))})
    assert csf((2, 2)).basis == "m"


def test_csf_oracle_examples():
    assert csf_oracle((2, 2)).polys == {(1, 1): ONE_PLUS_Q}
    assert csf_oracle((1, 2)).polys == {(2,): (1,), (1, 1): (2,)}
    # the oracle has no rank cap of its own: the empty and complete graphs
    # at n = 7
    for m in (tuple(range(1, 8)), (7,) * 7):
        assert csf_oracle(m) == csf(m)


def test_csf_oracle_extremes_n6():
    # the empty graph: every coloring is proper and has no ascent
    f = csf_oracle((1, 2, 3, 4, 5, 6))
    assert f.polys == {lam: (factorial(6) // prod(map(factorial, lam)),)
                       for lam in partitions(6)}
    # the complete graph: only six distinct colors, in all 6! orders
    assert csf_oracle((6,) * 6).polys == \
        {(1,) * 6: q_factorial_partition((6,))}


@pytest.mark.parametrize("m", [(2, 1, 3), (1, 1, 3), (4, 4, 4)])
def test_csf_and_oracle_reject_non_hessenberg(m):
    # decreasing, below the diagonal, beyond n
    for fn in (csf, csf_oracle):
        with pytest.raises(ValueError, match="not a Hessenberg function"):
            fn(m)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_oracle_distinct_colors_coefficient(n):
    # the m_{1^n} coefficient weighs the n! bijective colorings; its top
    # degree puts every edge in ascent, and reversing colors swaps ascents
    # and descents
    for m, coeffs in _oracle_coeffs(enumerate_hessenberg(n)).items():
        p = coeffs[(1,) * n]
        assert sum(p) == factorial(n), m
        assert len(p) - 1 == edge_count(m), m
        assert p == p[::-1], m


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_csf_matches_oracle_exhaustive(n):
    for m in enumerate_hessenberg(n):
        assert csf(m) == csf_oracle(m), m


# sha256 of the canonical JSON of the coloring oracle over every function
# of rank 6, recorded with the per-function oracle the trie walk replaced
ORACLE6_SHA256 = \
    "bbd346572bab939c94f93b017eb09b8dfe66696c3886c37197358dba6b029b4f"


def test_oracle6_golden_digest_and_coloring_count():
    oracle = _oracle_coeffs(enumerate_hessenberg(6))
    assert len(oracle) == 132
    assert canonical_sha256(oracle) == ORACLE6_SHA256
    # p(1) counts colorings: every (graph, proper coloring) pair of the rank
    assert sum(sum(p) for coeffs in oracle.values()
               for p in coeffs.values()) == 141121


def test_oracle7_matches_batch7_golden_digest():
    # the oracle above the csf-oracle check's bound of 6, over every
    # function of rank 7, against the digest of the DP's batch
    oracle = _oracle_coeffs(enumerate_hessenberg(7))
    assert len(oracle) == 429
    assert canonical_sha256(oracle) == BATCH7_SHA256


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_oracle_rank_walk_matches_one_function_walks(n):
    # the trie of the whole rank against the one-path trie of each function
    ms = enumerate_hessenberg(n)
    oracle = _oracle_coeffs(ms)
    assert list(oracle) == ms
    for m in ms:
        assert oracle[m] == _oracle_coeffs([m])[m], m


def test_oracle_rejects_mixed_ranks():
    with pytest.raises(ValueError, match="not of rank 2"):
        _oracle_coeffs([(1, 2), (3, 3, 3)])


def test_csf_top_degree_and_constant_term():
    for m in enumerate_hessenberg(5):
        f = csf(m)
        assert max(map(len, f.polys.values())) - 1 == edge_count(m)
        assert any(p[0] for p in f.polys.values())


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_disjoint_cliques_factorial(n):
    # build the clique Hessenberg function for each partition of n
    for lam in partitions(n):
        m = []
        start = 1
        for part in lam:
            m.extend([start + part - 1] * part)
            start += part
        m = tuple(m)
        expected = SymmetricFunction("e", n, {lam: q_factorial_partition(lam)})
        assert csf(m) == expected, lam


def test_empty_graph_multinomials():
    # no edges: every coloring is proper and has no ascent, so m_lambda
    # counts the ordered set partitions of shape lambda; at lambda = 1^10
    # that is 10!, the largest value a slot of the packed DP ever holds
    n = 10
    f = csf(tuple(range(1, n + 1)))
    assert f.polys == {lam: (factorial(n) // prod(map(factorial, lam)),)
                       for lam in partitions(n)}
    assert f.polys[(1,) * n] == (3628800,)


# sha256 of the canonical JSON of csf_batch(7): pins all 429 functions,
# beyond the reach of the n <= 6 coloring oracle
BATCH7_SHA256 = \
    "87676eff0b29acd94e0f8c3af22a48c2eb91581d6ccb3c39b8054621d92f8d4e"


def test_batch7_golden_digest():
    from heckelab.csf import _batches
    _batches.pop(7, None)
    batch = csf_batch(7)
    assert len(batch) == 429
    assert canonical_sha256(batch) == BATCH7_SHA256


# sha256 of the canonical JSON of csf_batch(8), recorded with the
# per-function subset DP that the shared induced-function memo replaced
BATCH8_SHA256 = \
    "4471a5e116b61e8ed65e61eb810257838c40272b771e28b7266a1e04b7865e4d"


def test_batch8_golden_digest():
    from heckelab.csf import _batches
    _batches.pop(8, None)
    batch = csf_batch(8)
    _batches.pop(8, None)
    assert len(batch) == 1430
    assert canonical_sha256(batch) == BATCH8_SHA256


# sha256 of the canonical JSON of csf_batch(9), recorded with the DP keyed
# on induced-function tuples that the Dyck-word memo replaced
BATCH9_SHA256 = \
    "8d97499fff9db80b17e431cb4753451ac4e23b3b801cd89010e33e28429b2769"


def test_batch9_golden_digest():
    from heckelab.csf import _batches
    _batches.pop(9, None)
    batch = csf_batch(9)
    _batches.pop(9, None)
    assert len(batch) == 4862
    assert canonical_sha256(batch) == BATCH9_SHA256


def test_single_csf_matches_batch6():
    # csf(m) runs the DP on m alone, with a memo of its own; the batch
    # shares one memo across all 132 functions of the rank
    batch = csf_batch(6)
    assert len(batch) == 132
    for m, coeffs in batch.items():
        assert csf(m).polys == coeffs, m


def test_batch_and_index():
    batch = csf_batch(4)
    assert len(batch) == 14
    for m, coeffs in batch.items():
        assert SymmetricFunction("m", 4, coeffs) == csf(m)
    assert csf_batch(4) is batch  # built once per rank
    index = csf_index(batch)
    for m, coeffs in batch.items():
        assert m in index[csf_key(coeffs)]
    # isomorphic embeddings share a csf: the single-edge graphs at n = 4
    assert sorted(index[csf_key(batch[(1, 2, 4, 4)])]) == \
        [(1, 2, 4, 4), (1, 3, 3, 4), (2, 2, 3, 4)]
