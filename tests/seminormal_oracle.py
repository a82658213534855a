"""
Independent oracle for Hecke characters: the q-deformed Young seminormal
form, evaluated at integer points and interpolated.

The seminormal generator matrices have rational entries with denominators
like 1 - q^rho, which vanish nowhere on integers q0 > 1.  The whole
representation is therefore evaluated at sample points q0 = 2, 3, ... with
exact rational arithmetic; traces along one reduced word give
chi^lambda(T_w) at each point, and exact interpolation from l(w)+1 points
recovers it as an integer polynomial in q.  Every spare sample point is
checked against the interpolated polynomial, and the generator matrices are
validated against the quadratic and braid relations at every sample point
when they are constructed; any mismatch is a hard error.

This shares no code with heckelab.characters (class polynomials) beyond
permutations and partitions.  Run as a script to compare the two on all of
S_n (n = 6 takes about 40 s):

    PYTHONPATH=src python tests/seminormal_oracle.py 6
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import lcm

from heckelab.permutations import all_perms
from heckelab.symfunc import partitions


class InterpolationError(RuntimeError):
    """Internal consistency failure in evaluate-then-interpolate."""


@lru_cache(maxsize=None)
def standard_tableaux(lam: tuple) -> tuple:
    """All standard Young tableaux of shape lam, in a fixed sorted order.

    A tableau is a tuple of row tuples.
    """
    n = sum(lam)
    if n == 0:
        return ((),)
    out = []

    def grow(tab, entry):
        if entry > n:
            out.append(tuple(tuple(r) for r in tab))
            return
        for r in range(len(lam)):
            cur = len(tab[r])
            if cur < lam[r] and (r == 0 or len(tab[r - 1]) > cur):
                tab[r].append(entry)
                grow(tab, entry + 1)
                tab[r].pop()

    grow([[] for _ in lam], 1)
    return tuple(sorted(out))


def _positions(tab) -> dict:
    pos = {}
    for r, row in enumerate(tab):
        for c, v in enumerate(row):
            pos[v] = (r, c)
    return pos


def _swap_entries(tab, a, b):
    return tuple(tuple(b if v == a else a if v == b else v for v in row)
                 for row in tab)


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(x * y for x, y in zip(row, col)) for col in Bt] for row in A]


class SeminormalRep:
    """Seminormal matrices for one shape, evaluated at one integer q0.

    Entries are scaled to a common integer denominator: the generator
    matrix for s_i is mats[i-1] / denom.  The quadratic relation
    (T - q0)(T + 1) = 0 and both braid relations are asserted on
    construction.
    """

    def __init__(self, lam: tuple, q0: int):
        if q0 <= 1:
            raise ValueError("sample points must be integers > 1")
        self.lam = lam
        self.q0 = q0
        self.n = sum(lam)
        tableaux = standard_tableaux(lam)
        self.dim = len(tableaux)
        index = {t: i for i, t in enumerate(tableaux)}
        frac_mats = []
        for i in range(1, self.n):
            M = [[Fraction(0)] * self.dim for _ in range(self.dim)]
            for b, t in enumerate(tableaux):
                pos = _positions(t)
                r1, c1 = pos[i]
                r2, c2 = pos[i + 1]
                rho = (c2 - r2) - (c1 - r1)
                M[b][b] = Fraction(q0 - 1, 1) / (1 - Fraction(q0) ** (-rho))
                if rho > 0 and r1 != r2 and c1 != c2:
                    other = index.get(_swap_entries(t, i, i + 1))
                    if other is not None:
                        y = Fraction(q0) ** rho
                        # v_t -> v_t' with coefficient 1; back with bb'
                        M[other][b] = Fraction(1)
                        M[b][other] = (q0 - y) * (1 - q0 * y) / (1 - y) ** 2
            frac_mats.append(M)
        denom = 1
        for M in frac_mats:
            for row in M:
                for v in row:
                    denom = lcm(denom, v.denominator)
        self.denom = denom
        self.mats = [[[int(v * denom) for v in row] for row in M]
                     for M in frac_mats]
        self._validate()

    def _validate(self):
        q0, D = self.q0, self.denom
        ident = [[int(a == b) for b in range(self.dim)] for a in range(self.dim)]
        for N in self.mats:
            sq = matmul(N, N)
            expect = [[(q0 - 1) * D * N[a][b] + q0 * D * D * ident[a][b]
                       for b in range(self.dim)] for a in range(self.dim)]
            if sq != expect:
                raise AssertionError(
                    f"quadratic relation fails for {self.lam} at q={q0}")
        for i in range(len(self.mats)):
            for j in range(i + 1, len(self.mats)):
                A, B = self.mats[i], self.mats[j]
                if j == i + 1:
                    if matmul(matmul(A, B), A) != matmul(matmul(B, A), B):
                        raise AssertionError(
                            f"braid relation fails for {self.lam} at q={q0}")
                else:
                    if matmul(A, B) != matmul(B, A):
                        raise AssertionError(
                            f"commuting relation fails for {self.lam} at q={q0}")

    def trace_t(self, word) -> Fraction:
        """trace of T_{s_{word[0]}} ... T_{s_{word[-1]}} at q = q0."""
        if not word:
            return Fraction(self.dim)
        M = self.mats[word[0] - 1]
        for i in word[1:]:
            M = matmul(M, self.mats[i - 1])
        tr = sum(M[a][a] for a in range(self.dim))
        return Fraction(tr, self.denom ** len(word))


@lru_cache(maxsize=None)
def rep(lam: tuple, q0: int) -> SeminormalRep:
    return SeminormalRep(lam, q0)


def interpolate(xs, ys) -> tuple:
    """Exact Lagrange interpolation; returns int tuple poly, ascending."""
    d = len(xs)
    coeffs = [Fraction(0)] * d
    for i in range(d):
        # basis polynomial prod_{j != i} (x - x_j) / (x_i - x_j)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(d):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xs[j] * basis[k + 1]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k in range(len(basis)):
            coeffs[k] += scale * basis[k]
    out = []
    for v in coeffs:
        if v.denominator != 1:
            raise InterpolationError("non-integer interpolated coefficient")
        out.append(int(v))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_eval(p: tuple, x: int) -> int:
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def interpolate_checked(points, values, ell, where) -> tuple:
    """Interpolate from the first ell+1 points; every spare point must agree."""
    poly = interpolate(points[:ell + 1], values[:ell + 1])
    for x, y in zip(points[ell + 1:], values[ell + 1:]):
        if poly_eval(poly, x) != y:
            raise InterpolationError(f"spare-point mismatch for {where} at q={x}")
    return poly


def chi_poly_from_word(lam: tuple, word) -> tuple:
    """chi^lambda(T_w) for w = s_{word[0]} ... s_{word[-1]}, as a tuple poly."""
    ell = len(word)
    points = list(range(2, ell + 4))  # l+1 for interpolation, one spare
    values = [rep(lam, q0).trace_t(word) for q0 in points]
    return interpolate_checked(points, values, ell, f"chi^{lam}")


def seminormal_table(n: int) -> dict:
    """{lambda: {w: tuple poly}} for all of S_n, sampling every trace at
    the same l(w0)+2 points (the spare ones guard the interpolation)."""
    perms = sorted(all_perms(n), key=lambda w: (w.length(), w))
    points = list(range(2, n * (n - 1) // 2 + 4))
    table = {}
    for lam in partitions(n):
        traces = {w: [] for w in perms}
        for q0 in points:
            r = rep(lam, q0)
            # incremental products along the weak order, one matmul per perm
            mats = {perms[0]: None}
            for w in perms[1:]:
                i = w.descents()[0]
                prev = mats[w.times_simple(i)]
                gen = r.mats[i - 1]
                mats[w] = gen if prev is None else matmul(prev, gen)
            for w in perms:
                M = mats[w]
                if M is None:
                    traces[w].append(Fraction(r.dim))
                else:
                    tr = sum(M[a][a] for a in range(r.dim))
                    traces[w].append(Fraction(tr, r.denom ** w.length()))
        table[lam] = {w: interpolate_checked(points, traces[w], w.length(),
                                              f"chi^{lam}(T_{w})")
                      for w in perms}
    return table


if __name__ == "__main__":
    from heckelab.characters import character_table

    n = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    oracle = seminormal_table(n)
    table = character_table(n)
    entries = [(lam, w) for lam in oracle for w in oracle[lam]]
    bad = [(lam, w) for lam, w in entries if table[lam][w] != oracle[lam][w]]
    print(f"S_{n}: {len(entries)} entries, {len(bad)} mismatches")
    for lam, w in bad[:10]:
        print(f"  chi^{lam}(T_{w}): {table[lam][w]} != {oracle[lam][w]}")
    sys.exit(1 if bad else 0)
