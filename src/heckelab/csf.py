"""
Chromatic quasisymmetric functions of the indifference graphs G_m of
Hessenberg functions (edges ``hessenberg_edges(m)``), collapsed to
symmetric functions with q coefficients, and the counterexample search
among them.  The default search computes only m1 and the functions one
edge either side of it; only the general search scans the batch of the
whole rank (csf_batch), which alone reads and writes the disk cache.

csf_q(G) = sum over proper colorings kappa of q^(asc(kappa)) x_kappa, where
asc counts edges {i, j} with i < j and kappa(i) < kappa(j), with the natural
vertex order 1 < 2 < ... < n.  For an indifference graph this is symmetric,
so the monomial-basis coefficient of m_lambda is the weight of the proper
colorings whose color classes, in increasing color order, have sizes
exactly lambda_1, lambda_2, ...

The production path is a dynamic program over color classes.  Coloring
G_h in increasing color order, the first class B is an independent set,
and an edge i < j between B and the rest is an ascent exactly when i is
in B; so B weighs sum over v in B of h(v) - v, and the rest V - B is
left to color with the later classes.  The subgraph induced on
v_1 < ... < v_r is G_h' for h'(t) = #{u in V - B : u <= h(v_t)} (v_t < v_s
is an edge exactly when v_s <= h(v_t), that is s <= h'(t)), and asc
compares colors along the vertex order only, which relabelling keeps; so
that subproblem depends only on (h', later class sizes), and one memo
serves a whole batch.

The memo keys h' by its Dyck word, an int.  The word of h of rank k reads
u = 1, ..., k, and for each u writes 1 (the bit A_u), then one 0 (E_t) for
each t with h(t) = u, in increasing t; the first event is the most
significant bit.
(i) h(t) is the number of 1s before E_t, so the word determines h.  It
    starts with A_1 = 1, so its bit_length() is exactly 2k, and the int is
    a canonical key; the empty graph's word is 0.
(ii) Deleting the bits A_v and E_v for all v in B leaves the word of h'.
    The surviving E_{v_t} keep their order, and each is preceded by
    exactly the A_u with u not in B and u <= h(v_t), whose count is h'(t);
    by (i) that is the word of h'.
(iii) For an independent B = {b_1 < b_2 < ...}, b_{i+1} > h(b_i), so from
    the top the word reads A_{b_1}, E_{b_1}, A_{b_2}, E_{b_2}, ...: A_v
    precedes E_v as v <= h(v), and E_{b_i} precedes A_{b_{i+1}}.  So
    deleting in increasing vertex order never moves a bit that is still
    to be deleted, and each vertex v, at bit positions a > e counted from
    the bottom, is one step on the rest x so far:
    y = (x >> (a + 1) << (a - 1)) | ((x & mid) >> 1) | (x & low), with
    low = (1 << e) - 1 and mid = ((1 << a) - 1) ^ ((1 << (e + 1)) - 1).

The oracle lists the proper colorings of each content lambda in turn,
vertex by vertex, on one preallocated color list, for every function of
a call in the same walk.  The earlier neighbours of vertex j are the
interval first(j), ..., j - 1 (i < j is an edge exactly when j <= h(i),
and h is non-decreasing), so h is fixed by first(1), ..., first(n), and
the functions of a call form a trie keyed by these sequences.  Graphs
with the same first(1), ..., first(k) have the same edges among vertices
1..k, so the walk lists each proper coloring of those vertices once for
all of them.  At vertex j, for each color c with room left, the walk
takes the node's children by decreasing first(j), so the window
first(j), ..., j - 1 of earlier neighbours grows one vertex at a time.
A vertex entering it with a smaller color adds one ascent.  A vertex
entering it with color c ends the children of c: it lies in the window
of every child with a smaller first(j) too, and would be a neighbour of
the same color there; the walk knows it as the last vertex colored c so
far.  The last two vertices are counted in place: at vertex n - 1, for
each color c with room and each child still open, the last vertex takes
the one color left, and for each grandchild still open, the flat list of
its function, indexed by the ascent count, gains 1.  So each (graph,
proper coloring) pair is counted exactly once: the graph fixes one
root-to-leaf path, the coloring fixes the color taken at each vertex on
it, and the walk goes down that path with that coloring exactly when
every window it meets is free of the vertex's color, that is when the
coloring is proper.  The oracle reads only the edges of each G_h; it
shares no memo, no Dyck word and no packing with the DP, nor the class
weights or the induced functions, so the DP's reductions are what it
checks.

Inside the DP a q-polynomial p is packed into the one int p(2^B)
(Kronecker substitution, heckelab.qpoly), so shifting by q^w and adding
is `acc += sub << B*w`.  The bound: a value at any rank k <= n counts
proper colorings of k vertices with given class sizes, so each
coefficient is at most k! <= n!, and one B = poly_width(n!) serves every
memo entry of the call.  Packed ints never leave `_csf_coeffs`, which
returns tuple polynomials.
"""

from __future__ import annotations

from math import factorial
from typing import NamedTuple

from .permutations import (enumerate_hessenberg, hessenberg_edges,
                           hessenberg_to_str, is_hessenberg, parse_hessenberg)
from .qpoly import (poly_add_scaled, poly_mul, poly_trim, poly_unpack,
                    poly_width)
from .symfunc import SymmetricFunction, partitions

__all__ = [
    "edge_count", "csf", "csf_oracle", "csf_batch", "csf_index", "csf_key",
    "CounterexampleResult", "counterexample_search",
]


def edge_count(m) -> int:
    """|E(G_m)| = sum(m(i) - i), which equals l(w_m)."""
    return sum(v - i for i, v in enumerate(m, start=1))


def _word(h) -> int:
    """The Dyck word of the Hessenberg function h (module docstring)."""
    word = 0
    for u in range(1, len(h) + 1):
        word = (word << 1 | 1) << h.count(u)  # A_u, then E_t for h(t) = u
    return word


def _blocks(word: int, size: int, width: int) -> list[tuple]:
    """(size, packed ascent shift into the rest, Dyck word of the rest) for
    every nonempty independent vertex set of G_h, where `word` is the Dyck
    word of h, of the given size (of every size when size is 0)."""
    steps = []  # per vertex v: (low, mid, a + 1, width * (h(v) - v), h(v))
    opened = []  # bit positions of A_1, A_2, ...
    for pos in range(word.bit_length() - 1, -1, -1):
        if word >> pos & 1:
            opened.append(pos)
            continue
        t, a = len(steps) + 1, opened[len(steps)]  # pos is E_t, a is A_t
        steps.append(((1 << pos) - 1, ((1 << a) - 1) ^ ((2 << pos) - 1),
                      a + 1, width * (len(opened) - t), len(opened)))
    k = len(steps)
    out = []
    stack = [(word, 0, 0, 0)]  # (rest, block size, shift, first free vertex)
    while stack:
        rest, count, shift, start = stack.pop()
        count += 1
        for v in range(start, k - size + count if size else k):
            # delete A_v and E_v, as in (iii); vertex h(v) is the next one
            # free of v's upper neighbours
            low, mid, top, weight, nxt = steps[v]
            left = (rest >> top << (top - 2) | (rest & mid) >> 1
                    | rest & low)
            weight += shift
            if count == size or not size:
                out.append((count, weight, left))
            if count != size:
                stack.append((left, count, weight, nxt))
    return out


def _total(blocks, tail: tuple, memo: dict, width: int) -> int:
    """Packed q-weight of the proper colorings whose first class is one of
    `blocks` and whose later classes, in increasing color order, have sizes
    `tail`.  memo[tail][word] is that weight over all first classes of the
    G_h whose Dyck word is `word`."""
    known = memo.setdefault(tail, {})
    acc = 0
    for _, shift, rest in blocks:
        sub = known.get(rest)
        if sub is None:
            sub = known[rest] = _total(_blocks(rest, tail[0], width),
                                       tail[1:], memo, width)
        if sub:
            acc += sub << shift
    return acc


def _csf_coeffs(ms) -> dict:
    """{m: monomial coefficients of csf_q(G_m) as tuple polynomials} for
    Hessenberg functions ms of one rank, in the order given.

    One memo, of functions below the top rank, serves every function and
    partition of the call.  The blocks of each top-rank m are listed once
    and reused for all its partitions.
    """
    width = poly_width(factorial(len(ms[0])))  # B in the module docstring
    memo = {(): {0: 1}}  # the empty graph has one coloring with no class
    out = {}
    for m in ms:
        by_size: dict[int, list] = {}
        for block in _blocks(_word(m), 0, width):
            by_size.setdefault(block[0], []).append(block)
        coeffs = out[m] = {}
        for lam in partitions(len(m)):
            packed = _total(by_size.get(lam[0], ()), lam[1:], memo, width)
            if packed:
                coeffs[lam] = poly_unpack(packed, width)
    return out


def csf(m) -> SymmetricFunction:
    """csf_q(G_m) in the monomial basis."""
    m = tuple(m)
    if not is_hessenberg(m):
        raise ValueError(f"not a Hessenberg function: {m}")
    return SymmetricFunction("m", len(m), _csf_coeffs([m])[m])


def _oracle_coeffs(ms) -> dict:
    """{m: monomial coefficients of csf_q(G_m) as tuple polynomials} for
    Hessenberg functions ms of one rank, by listing every proper coloring
    of every G_m in one walk per lambda over the trie of their neighbour
    prefixes (the module docstring has the method)."""
    ms = [tuple(m) for m in ms]
    n = len(ms[0])
    trie: dict = {}  # first[0] -> first[1] -> ... -> first[n - 1] -> weights
    weights = {}  # weights[m][a]: colorings of G_m with a ascents
    for m in ms:
        if not is_hessenberg(m):
            raise ValueError(f"not a Hessenberg function: {m}")
        if len(m) != n:
            raise ValueError(f"{m} is not of rank {n}")
        edges = hessenberg_edges(m)
        # vertex v + 1 has the earlier neighbours first[v] + 1, ..., v
        first = [min((i - 1 for i, j in edges if j == v + 1), default=v)
                 for v in range(n)]
        node = trie
        for f in first[:-1]:
            node = node.setdefault(f, {})
        weights[m] = node[first[-1]] = [0] * (len(edges) + 1)

    def children(node: dict) -> list:
        """A trie node's (first[v], child) pairs by decreasing first[v]."""
        return [(f, sub if isinstance(sub, list) else children(sub))
                for f, sub in sorted(node.items(), reverse=True)]

    if n == 1:  # no vertex before the last one for the walk to start at
        return {m: {(1,): (1,)} for m in ms}
    root, pen = children(trie), n - 2
    kappa = [0] * n  # kappa[v]: color of vertex v + 1, for v below the depth
    out = {m: {} for m in ms}
    for lam in partitions(n):
        room, colors = list(lam), range(len(lam))  # room[c]: uses left of c
        latest = [-1] * len(lam)  # latest[c]: last vertex colored c so far

        def walk(node: list, v: int, asc: int) -> None:
            for c in colors:
                if not room[c]:
                    continue
                stop = latest[c]  # a child with first[v] <= stop clashes
                a, u = asc, v  # kappa[u:v]: v's earlier neighbours in child u
                room[c] -= 1
                kappa[v], latest[c] = c, v
                if v == pen:  # the last vertex takes the one color left
                    d = room.index(1)
                    end = latest[d]
                for f, sub in node:
                    if f <= stop:
                        break
                    while u > f:
                        u -= 1
                        a += kappa[u] < c
                    if v < pen:
                        walk(sub, v + 1, a)
                        continue
                    b, x = a, v + 1  # the grandchildren are counted here
                    for g, weight in sub:  # rather than in a call per coloring
                        if g <= end:
                            break
                        while x > g:
                            x -= 1
                            b += kappa[x] < d
                        weight[b] += 1
                room[c] += 1
                latest[c] = stop

        walk(root, 0, 0)
        for m, weight in weights.items():
            p = poly_trim(weight[:])
            if p:
                out[m][lam] = p
            weight[:] = [0] * len(weight)
    return out


def csf_oracle(m) -> SymmetricFunction:
    """Brute-force csf by listing colorings; the independent cross-check.

    By symmetry the coefficient of m_lambda is the weight of the proper
    colorings that use color c exactly lambda_c times.  Those are listed
    vertex by vertex, 1 to n, and each adds q^(asc), as the module
    docstring describes; here the trie of the walk is the single path of
    m, so each vertex has one window of earlier neighbours.
    """
    m = tuple(m)
    return SymmetricFunction("m", len(m), _oracle_coeffs([m])[m])


# -- batch computation over all Hessenberg functions of a rank ---------------

_batches: dict[int, dict] = {}


def _int_poly(value) -> tuple:
    """A payload's list of ints as a canonical tuple polynomial (no
    trailing 0); TypeError or ValueError otherwise."""
    if not isinstance(value, list) or not all(type(c) is int for c in value):
        raise TypeError(f"not a list of integers: {value!r}")
    if value and value[-1] == 0:
        raise ValueError(f"not a canonical polynomial: {value!r}")
    return tuple(value)


def _batch_from_payload(n: int, ms: list, data):
    """The batch held by a csf cache payload, or None unless the payload
    holds one entry {"m", "csf": {lambda |- n: int list}} per function."""
    shapes = {",".join(map(str, lam)): lam for lam in partitions(n)}
    batch = {}
    try:
        if data["n"] != n or len(data["entries"]) != len(ms):
            return None
        for entry in data["entries"]:
            batch[parse_hessenberg(entry["m"])] = {
                shapes[lam]: _int_poly(p) for lam, p in entry["csf"].items()}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    if batch.keys() != set(ms):
        return None
    return {m: batch[m] for m in ms}


def csf_batch(n: int, cache=None) -> dict:
    """{m: monomial tuple-poly coefficients} for every Hessenberg function.

    Deterministic (lexicographic) order, built in the calling process.  The
    in-process memo of the rank takes precedence over the disk cache
    `cache` (None for none), which is read, and on a miss written, only
    when the memo has no batch of rank n.
    """
    got = _batches.get(n)
    if got is not None:
        return got
    ms = enumerate_hessenberg(n)
    if cache is not None:
        batch = _batch_from_payload(n, ms, cache.load("csf", f"csf-n{n}"))
        if batch is not None:
            _batches[n] = batch
            return batch
    batch = _csf_coeffs(ms)
    _batches[n] = batch
    if cache is not None:
        cache.store("csf", f"csf-n{n}", {
            "n": n,
            "entries": [
                {
                    "m": hessenberg_to_str(m),
                    "csf": {",".join(map(str, lam)): list(p)
                            for lam, p in sorted(coeffs.items(), reverse=True)},
                }
                for m, coeffs in batch.items()
            ],
        })
    return batch


def csf_key(coeffs: dict) -> tuple:
    """Canonical hashable key for monomial tuple-poly coefficient data."""
    return tuple(sorted((lam, p) for lam, p in coeffs.items() if p))


def csf_index(batch: dict) -> dict:
    """Reverse lookup over a csf_batch: canonical coefficient key -> list
    of the Hessenberg functions with that csf.

    Distinct functions can share a csf (reversing the vertex order of an
    indifference graph changes m but, by palindromicity, not csf_q), so the
    values are lists, in the batch's (lexicographic) order.
    """
    index: dict[tuple, list] = {}
    for m, coeffs in batch.items():
        index.setdefault(csf_key(coeffs), []).append(m)
    return index


# -- the counterexample search ------------------------------------------------

class CounterexampleResult(NamedTuple):
    m0: tuple
    m2: tuple
    shift: int  # the exponent a in (1+q) csf(m1) = q^a csf(m0) + csf(m2)


def counterexample_search(m1, batch: dict | None = None
                          ) -> CounterexampleResult | None:
    """Search for (m0, m2) with (1+q) csf(G_m1) = q^a csf(G_m0) + csf(G_m2):
    for each shift a in turn and each m0 in turn, the residual
    (1+q) csf(m1) - q^a csf(m0) is looked up among the candidates for m2.

    With no batch, a = 1 only, m0 has E(m1) - 1 edges and m2 has E(m1) + 1
    (the lengths any character-level solution must have, since
    P_{e,w} = 1 + q pins the length gaps), so the search computes the csf
    of m1 and of the functions with E(m1) - 1 or E(m1) + 1 edges only, in
    one memo and in lexicographic order; it neither reads nor fills the
    batch of the rank, in memory or on disk.  Given the batch of m1's rank
    (csf_batch), a runs over 0..E(m1)+1 and m0 and m2 over the whole batch.
    In both, at a = 1 every m0 with csf(m0) = csf(m1), as m1 and its
    reversal (csf_q is reversal-invariant; Shareshian & Wachs, Adv. Math.
    295 (2016)), is skipped: it gives the trivial csf(m2) = csf(m1), which
    the character equation does not admit.

    Returns the first solution in scan order, or None (NotFound).
    """
    m1 = tuple(m1)
    if not is_hessenberg(m1):
        raise ValueError(f"not a Hessenberg function: {m1}")
    e1 = edge_count(m1)
    if batch is None:
        batch = _csf_coeffs([m for m in enumerate_hessenberg(len(m1))
                             if m == m1 or abs(edge_count(m) - e1) == 1])
        lows = {m: c for m, c in batch.items() if edge_count(m) == e1 - 1}
        index = csf_index({m: c for m, c in batch.items()
                           if edge_count(m) == e1 + 1})
        shifts = (1,)
    else:
        lows, index, shifts = batch, csf_index(batch), range(e1 + 2)
    mid = batch[m1]
    target = {lam: poly_mul((1, 1), p) for lam, p in mid.items()}
    for a in shifts:
        for m0, coeffs in lows.items():
            if a == 1 and coeffs == mid:
                continue
            hits = index.get(csf_key(
                {lam: poly_add_scaled(target.get(lam, ()), coeffs.get(lam, ()),
                                      -1, a)
                 for lam in target.keys() | coeffs.keys()}))
            if hits:
                return CounterexampleResult(m0, hits[0], a)
    return None
