"""
The index sets every layer shares: partitions, and Hessenberg functions m
with their edges E(G_m) and text form.  It imports nothing from heckelab:
a process compiles every module it imports, so the default counterexample
search and ``hessenberg`` compile neither permutations.py nor symfunc.py.

The edge counts of the m that extend a prefix m(1..i) form an interval:
raising by one the last later m(j) below n, while one is, walks from every
later m(j) at max(j, m(i)) to every one at n, one edge at a time.  So
``enumerate_hessenberg`` drops a prefix once that interval misses its set.

>>> enumerate_hessenberg(3, edges={1})
[(1, 3, 3), (2, 2, 3)]
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["Partition", "partitions", "is_hessenberg", "parse_hessenberg",
           "hessenberg_to_str", "hessenberg_edges", "edge_count",
           "enumerate_hessenberg"]

Partition = tuple  # weakly decreasing positive ints


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def gen(total, cap):
        if total == 0:
            yield ()
            return
        for first in range(min(total, cap), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


def is_hessenberg(m) -> bool:
    """Non-decreasing m: [n] -> [n] with m(i) >= i (forces m(n) = n)."""
    m = tuple(m)
    return bool(m) and all(i <= v <= len(m) for i, v in enumerate(m, 1)) \
        and all(a <= b for a, b in zip(m, m[1:]))


def hessenberg_to_str(m) -> str:
    return ",".join(str(v) for v in m)


def parse_hessenberg(text: str) -> tuple[int, ...]:
    try:
        m = tuple(int(t) for t in text.strip().split(","))
    except ValueError:  # not a list of integers, so no Hessenberg function
        m = ()
    if not is_hessenberg(m):
        raise ValueError(f"not a Hessenberg function: {text!r}")
    return m


def hessenberg_edges(m) -> frozenset[tuple[int, int]]:
    """{(i, j): i < j <= m(i)}: the edges of the indifference graph G_m,
    and for smooth w with m = m_w the transpositions below w (Lemma 2.2)."""
    return frozenset((i, j) for i, v in enumerate(m, start=1)
                     for j in range(i + 1, v + 1))


def edge_count(m) -> int:
    """|E(G_m)| = sum(m(i) - i), which equals l(w_m)."""
    return sum(v - i for i, v in enumerate(m, start=1))


def enumerate_hessenberg(n: int, edges=None) -> list[tuple[int, ...]]:
    """All Hessenberg functions on [n], lexicographically; Catalan(n) many.
    Given a set of edge counts, only the m with edge_count(m) in it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    level = [()]
    for i in range(1, n + 1):
        level = [m + (v,) for m in level
                 for v in range(max(i, m[-1]) if m else 1, n + 1)]
        if edges is not None:
            # e - (edges of m(1..i)) lies in d(d-1)/2..most, d = m(i) - i
            base, most = i * (i + 1) // 2, (n - i) * (n - i - 1) // 2
            level = [m for m in level if any(
                (m[-1] - i) * (m[-1] - i - 1) // 2 <= e + base - sum(m) <= most
                for e in edges)]
    return level
