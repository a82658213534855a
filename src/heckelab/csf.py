"""
Indifference graphs of Hessenberg functions and their chromatic
quasisymmetric functions, collapsed to symmetric functions with q
coefficients.

csf_q(G) = sum over proper colorings kappa of q^(asc(kappa)) x_kappa, where
asc counts edges {i, j} with i < j and kappa(i) < kappa(j), with the natural
vertex order 1 < 2 < ... < n.  For an indifference graph this is symmetric,
so the monomial-basis coefficient of m_lambda is the weight of the proper
colorings whose color classes, in increasing color order, have sizes
exactly lambda_1, lambda_2, ...

The production path enumerates ordered independent-set partitions with a
subset-mask dynamic program (the class of color c only interacts with the
still-uncolored vertices); the oracle enumerates all n^n colorings and is
deliberately independent of that machinery.

Inside the DP a q-polynomial is packed into one int (Kronecker
substitution): the coefficient of q^i sits in bits [i*B, (i+1)*B) with
B = n!.bit_length(), so shifting by q^w and adding is `acc += sub << B*w`.
Slots never carry: a packed value counts proper colorings of a k-vertex
subset, so each coefficient is at most k! <= n! < 2^B.  Packed ints never
leave `_csf_coeffs`, which returns tuple polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial

from .cache import int_poly
from .permutations import (enumerate_hessenberg, hessenberg_edges,
                           hessenberg_to_str, is_hessenberg, parse_hessenberg)
from .qpoly import LaurentQ, poly_add, poly_shift
from .symfunc import SymmetricFunction, partitions

__all__ = [
    "IndifferenceGraph", "indifference_graph", "edge_count",
    "csf", "csf_oracle", "csf_batch", "csf_index", "csf_key",
]


@dataclass(frozen=True)
class IndifferenceGraph:
    n: int
    edges: frozenset

    @classmethod
    def from_hessenberg(cls, m) -> "IndifferenceGraph":
        m = tuple(m)
        if not is_hessenberg(m):
            raise ValueError(f"not a Hessenberg function: {m}")
        return cls(len(m), hessenberg_edges(m))


def indifference_graph(m) -> IndifferenceGraph:
    return IndifferenceGraph.from_hessenberg(m)


def edge_count(m) -> int:
    """|E(G_m)| = sum(m(i) - i), which equals l(w_m)."""
    return sum(v - i for i, v in enumerate(m, start=1))


def _upward_masks(m) -> list[int]:
    """up[v] = bitmask of neighbors of v+1 above it (0-based vertex bits)."""
    up = [0] * len(m)
    for i, j in hessenberg_edges(m):
        up[i - 1] |= 1 << (j - 1)
    return up


def _independent_by_size(up: list[int], n: int) -> dict[int, list[int]]:
    """All independent vertex subsets, as masks grouped by size."""
    by_size: dict[int, list[int]] = {k: [] for k in range(1, n + 1)}

    def extend(mask, size, start, forbidden):
        if size:
            by_size[size].append(mask)
        for v in range(start, n):
            bit = 1 << v
            if forbidden & bit:
                continue
            extend(mask | bit, size + 1, v + 1, forbidden | up[v])

    extend(0, 0, 0, 0)
    return by_size


def _csf_coeffs(m) -> dict[tuple, tuple]:
    """Monomial coefficients of csf_q(G_m) as tuple polynomials.

    solve(remaining, parts) is the packed q-weight of the proper colorings
    of the vertex set `remaining` whose classes, in increasing color order,
    have sizes `parts`.  Parts stay in decreasing order, so partitions that
    share a tail share memo entries.
    """
    m = tuple(m)
    n = len(m)
    up = _upward_masks(m)
    by_size = _independent_by_size(up, n)
    independent = {b for blocks in by_size.values() for b in blocks}
    ups = {b: [up[v] for v in range(n) if b >> v & 1] for b in independent}
    width = factorial(n).bit_length()  # B in the module docstring
    memo = {}

    def solve(remaining: int, parts: tuple) -> int:
        key = (remaining, parts)
        got = memo.get(key)
        if got is not None:
            return got
        acc = 0
        tail = parts[1:]
        last = len(tail) == 1
        for block in by_size[parts[0]]:
            if block & remaining == block:
                rest = remaining ^ block
                if last:  # the final class is all of rest, with weight 0
                    if rest not in independent:
                        continue
                    sub = 1
                else:
                    sub = solve(rest, tail)
                    if not sub:
                        continue
                weight = 0
                for u in ups[block]:
                    weight += (u & rest).bit_count()
                acc += sub << width * weight
        memo[key] = acc
        return acc

    full = (1 << n) - 1
    slot = (1 << width) - 1
    out = {}
    for lam in partitions(n):
        packed = solve(full, lam) if len(lam) > 1 else int(full in independent)
        coeffs = []
        while packed:
            coeffs.append(packed & slot)
            packed >>= width
        if coeffs:
            out[lam] = tuple(coeffs)
    return out


def csf(m) -> SymmetricFunction:
    """csf_q(G_m) in the monomial basis."""
    m = tuple(m)
    if not is_hessenberg(m):
        raise ValueError(f"not a Hessenberg function: {m}")
    coeffs = {lam: LaurentQ.from_poly_coeffs(p)
              for lam, p in _csf_coeffs(m).items()}
    return SymmetricFunction("m", len(m), coeffs)


def csf_oracle(m) -> SymmetricFunction:
    """Brute-force csf over all n^n colorings; the independent cross-check.

    Only the colorings whose color-count vector is (lambda_1, ..., lambda_k,
    0, ..., 0) contribute to m_lambda, which is enough by symmetry.
    """
    m = tuple(m)
    n = len(m)
    if n > 6:
        raise ValueError("the coloring oracle is capped at n = 6")
    edges = sorted(hessenberg_edges(m))
    coeffs: dict[tuple, tuple] = {}
    for kappa in product(range(1, n + 1), repeat=n):
        if any(kappa[i - 1] == kappa[j - 1] for i, j in edges):
            continue
        counts = [0] * n
        for c in kappa:
            counts[c - 1] += 1
        k = n
        while k and counts[k - 1] == 0:
            k -= 1
        lam = tuple(counts[:k])
        if any(lam[t] < lam[t + 1] for t in range(k - 1)) or 0 in lam:
            continue
        asc = sum(1 for i, j in edges if kappa[i - 1] < kappa[j - 1])
        prev = coeffs.get(lam, ())
        coeffs[lam] = poly_add(prev, poly_shift((1,), asc))
    return SymmetricFunction(
        "m", n, {lam: LaurentQ.from_poly_coeffs(p)
                 for lam, p in coeffs.items()})


# -- batch computation over all Hessenberg functions of a rank ---------------

_batches: dict[int, dict] = {}


def clear_batch_cache(n: int | None = None) -> None:
    """Drop in-memory batches (all ranks, or one); disk files are kept."""
    if n is None:
        _batches.clear()
    else:
        _batches.pop(n, None)


def _batch_worker(m):
    return m, _csf_coeffs(m)


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
                shapes[lam]: int_poly(p) for lam, p in entry["csf"].items()}
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    if batch.keys() != set(ms):
        return None
    return {m: batch[m] for m in ms}


def csf_batch(n: int, cache=None, threads: int = 1) -> dict:
    """{m: monomial tuple-poly coefficients} for every Hessenberg function.

    Deterministic (lexicographic) order; optionally computed in a process
    pool.  The in-process memo of the rank takes precedence over both
    arguments: the disk cache `cache` (None for none) is read, and on a
    miss written, only when the memo has no batch of rank n.
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

    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = dict(pool.map(_batch_worker, ms, chunksize=16))
        batch = {m: results[m] for m in ms}
    else:
        batch = {m: _csf_coeffs(m) for m in ms}
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
