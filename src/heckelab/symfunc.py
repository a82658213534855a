"""
Symmetric functions of homogeneous degree n with coefficients in Z[q], in
the five classical bases m, e, h, p, s.

A function is built from, and stores, {partition: tuple polynomial in q}
(heckelab.qpoly's ``poly_*`` form) over its nonzero coefficients, with no
trailing zeros, so equal functions in one basis store equal data.  A
coefficient is read out of ``polys`` as that tuple.

>>> from heckelab.characters import frobenius_cprime
>>> from heckelab.permutations import Perm
>>> f = frobenius_cprime(Perm((2, 1, 3)))  # ch(B_s) = (1 + q)(s_3 + s_21)
>>> f.polys
{(3,): (1, 1), (2, 1): (1, 1)}
>>> print(f.convert("h"))
(1 + q)*h[2,1]
>>> print(SymmetricFunction("s", 2, {(2,): (0, 0, 1)}).convert("e"))
(-q^2)*e[2] + (q^2)*e[1,1]

A conversion is one pass over a transition matrix per (source, target,
degree), the product of source-to-s and s-to-target.  Every factor comes
from the Kostka matrix K, upper unitriangular over combinat.partitions(n)
in their order, or from the S_n character table:

* into s: h_lambda = sum_nu K_{nu,lambda} s_nu, e_lambda is the same with
  nu conjugated, p_mu = sum_lambda chi^lambda(mu) s_lambda
  (Murnaghan-Nakayama), and m = K^-1 s;
* out of s: s -> m is K, s -> h is (K^-1)^T, s -> e is (K^-1)^T with its
  rows conjugated, and s_lambda = sum_mu chi^lambda(mu) / z_mu p_mu by
  column orthogonality.

K^-1 is integral, by back substitution, and is the only inverse taken.
The p basis is a Q-basis only.  Fractions appear only in the matrices
into p, so only in the coefficients of a function converted into or out of
p, and ``poly_json`` writes an integral one as an int:

>>> _transition("s", "p", 3)[(2, 1)]  # s_21 = (p_111 - p_3) / 3
(((3,), Fraction(-1, 3)), ((1, 1, 1), Fraction(1, 3)))
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import NamedTuple

from .combinat import Partition, partitions
from .qpoly import (poly_add_scaled, poly_json, poly_latex, poly_mul,
                    poly_str, poly_trim)

__all__ = [
    "conjugate", "hook_lengths", "num_syt",
    "SymmetricFunction", "kostka", "murnaghan_nakayama",
    "omega", "positivity", "PositivityReport", "q_factorial_partition",
]

BASES = ("m", "e", "h", "p", "s")


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > j) for j in range(lam[0]))


def hook_lengths(lam: Partition) -> list[int]:
    conj = conjugate(lam)
    return [lam[i] - j + conj[j] - i - 1
            for i in range(len(lam)) for j in range(lam[i])]


def num_syt(lam: Partition) -> int:
    """Number of standard Young tableaux, by the hook length formula."""
    n = sum(lam)
    prod = 1
    for h in hook_lengths(lam):
        prod *= h
    return factorial(n) // prod


def q_factorial_partition(lam: Partition) -> tuple:
    """lambda!_q = product of [lambda_i]!_q, where
    [k]!_q = [1]_q [2]_q ... [k]_q and [i]_q = 1 + q + ... + q^(i-1)."""
    out = (1,)
    for part in lam:
        for i in range(2, part + 1):
            out = poly_mul(out, (1,) * i)
    return out


# -- transition matrices, all through the Schur basis -----------------------

@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu."""
    if sum(lam) != sum(mu):
        return 0
    if not lam:
        return 1
    # peel the largest letter as a horizontal strip of size mu[-1]
    last = mu[-1]
    total = 0
    for nu in _strip_predecessors(lam, last):
        total += kostka(nu, mu[:-1])
    return total


def _strip_predecessors(lam: Partition, size: int):
    """Partitions nu with lam/nu a horizontal strip of the given size."""
    rows = len(lam)

    def rec(i, remaining, prev_nu):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        below = lam[i + 1] if i + 1 < rows else 0
        lo = max(below, lam[i] - remaining)
        hi = min(lam[i], prev_nu)
        for v in range(hi, lo - 1, -1):
            for rest in rec(i + 1, remaining - (lam[i] - v), v):
                yield (v,) + rest

    for nu in rec(0, size, lam[0]):
        yield tuple(p for p in nu if p > 0)


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: tuple, mu: tuple) -> int:
    """Classical S_n character chi^lambda on the class of cycle type mu,
    by border-strip removal on beta numbers."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not mu:
        return 1
    k = mu[0]
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (m - 1 - j) for j, v in enumerate(new_betas))
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** height * murnaghan_nakayama(new_lam, mu[1:])
    return total


def _z(mu: Partition) -> int:
    """z_mu = prod_i i^(m_i) m_i!, the order of the centralizer of a
    permutation of cycle type mu."""
    out = 1
    for part in set(mu):
        k = mu.count(part)
        out *= part ** k * factorial(k)
    return out


@lru_cache(maxsize=None)
def _kostka_matrix(n: int, inverse: bool) -> tuple:
    """K[i][j] = K_{lam_i, lam_j} over lam = partitions(n), or its inverse:
    both upper unitriangular and integral.  K^-1 comes from back
    substitution, row by row from the bottom."""
    parts = partitions(n)
    if not inverse:
        return tuple(tuple(kostka(lam, mu) for mu in parts) for lam in parts)
    k, size = _kostka_matrix(n, False), len(parts)
    inv = [None] * size
    for i in range(size - 1, -1, -1):
        row = [0] * size
        row[i] = 1
        for j in range(i + 1, size):
            if k[i][j]:
                row = [a - k[i][j] * b for a, b in zip(row, inv[j])]
        inv[i] = row
    return tuple(map(tuple, inv))


def _schur_matrix(basis: str, n: int, into: bool) -> tuple:
    """Integer matrix over partitions(n): row lam, column nu holds the
    coefficient of s_nu in basis_lam (into s) or of basis_nu in s_lam (out
    of s), except that out of s into p the column of mu still wants
    dividing by z_mu."""
    parts = partitions(n)
    if basis == "s":
        return tuple(tuple(int(lam == nu) for nu in parts) for lam in parts)
    if basis == "m":  # s_lam = sum_mu K_{lam,mu} m_mu
        return _kostka_matrix(n, into)
    if basis == "p":  # p_mu = sum_lam chi^lam(mu) s_lam
        table = [[murnaghan_nakayama(lam, mu) for mu in parts]
                 for lam in parts]
        return tuple(zip(*table)) if into else tuple(map(tuple, table))
    # h_lam = sum_nu K_{nu,lam} s_nu, so s_lam = sum_nu K^-1_{nu,lam} h_nu;
    # omega turns both into e, with nu (into s) or lam (out of s) conjugated
    k = tuple(zip(*_kostka_matrix(n, not into)))
    if basis == "h":
        return k
    index = {lam: i for i, lam in enumerate(parts)}
    conj = [index[conjugate(lam)] for lam in parts]
    if into:
        return tuple(tuple(row[c] for c in conj) for row in k)
    return tuple(k[c] for c in conj)


@lru_cache(maxsize=None)
def _transition(src: str, dst: str, n: int) -> dict:
    """{lam: ((nu, coefficient of dst_nu in src_lam), ...)} over the nonzero
    coefficients: the product of the matrices src -> s and s -> dst, in
    ints, with Fractions only into p."""
    parts = partitions(n)
    into, out = _schur_matrix(src, n, True), _schur_matrix(dst, n, False)
    z = [1] * len(parts)
    if dst == "p":  # imported here, as no check or search converts into p
        from fractions import Fraction
        z = [_z(mu) for mu in parts]
    rows = {}
    for lam, row in zip(parts, into):
        acc = [0] * len(parts)
        for a, b in zip(row, out):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        rows[lam] = tuple(
            (nu, v // d if v % d == 0 else Fraction(v, d))
            for nu, v, d in zip(parts, acc, z) if v)
    return rows


# -- the symmetric function container ----------------------------------------

class SymmetricFunction:
    """Homogeneous symmetric function of degree n in one basis: the sum of
    polys[lam](q) basis_lam over tuple polynomials in q (see the module
    docstring)."""

    __slots__ = ("basis", "n", "polys")

    def __init__(self, basis: str, n: int, polys: dict):
        """sum_lam polys[lam](q) basis_lam, with trailing zeros trimmed and
        zero polynomials left out.  Raises ValueError for an unknown basis
        or a partition whose size is not n."""
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        for lam in polys:
            if sum(lam) != n:
                raise ValueError(f"partition {lam} has size != {n}")
        self.basis, self.n = basis, n
        self.polys = {}
        for lam, p in polys.items():
            if p and p[-1] == 0:
                p = poly_trim(list(p))
            if p:
                self.polys[lam] = p

    def convert(self, target: str) -> "SymmetricFunction":
        """Exact change of basis, one pass over the transition matrix."""
        if target == self.basis:
            return self
        rows = _transition(self.basis, target, self.n)
        out = {}
        for lam, p in self.polys.items():
            for nu, k in rows[lam]:
                out[nu] = poly_add_scaled(out.get(nu, ()), p, k, 0)
        return SymmetricFunction(target, self.n, out)

    def __eq__(self, other):
        """Mathematical equality, compared in the basis of self."""
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.polys == other.convert(self.basis).polys

    # -- serialization ----------------------------------------------------

    def sorted_items(self):
        return sorted(self.polys.items(), reverse=True)

    def __str__(self):
        if not self.polys:
            return "0"
        parts = []
        for lam, c in self.sorted_items():
            name = f"{self.basis}[{','.join(map(str, lam))}]"
            parts.append(f"({poly_str(c)})*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymmetricFunction({self.basis!r}, {self.n}, {self.polys!r})"

    def latex(self) -> str:
        if not self.polys:
            return "0"
        parts = []
        for lam, c in self.sorted_items():
            sub = "".join(str(p) if p < 10 else f"{{{p}}}" for p in lam)
            parts.append(
                f"\\left({poly_latex(c)}\\right) {self.basis}_{{{sub}}}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.n,
            "terms": [
                {"partition": list(lam), "coeff": poly_json(c)}
                for lam, c in self.sorted_items()
            ],
        }


def omega(f: SymmetricFunction) -> SymmetricFunction:
    """The involution with omega(s_lam) = s_lam', so omega(h) = e,
    omega(e) = h and omega(p_k) = (-1)^(k-1) p_k: f is conjugated in the s
    basis and returned in its own basis."""
    s = f.convert("s").polys
    return SymmetricFunction("s", f.n, {conjugate(lam): p
                                        for lam, p in s.items()}
                             ).convert(f.basis)


class PositivityReport(NamedTuple):
    positive: bool
    witness_partition: tuple | None = None
    witness_coefficient: tuple | None = None


def positivity(f: SymmetricFunction, basis: str) -> PositivityReport:
    """Check that every coefficient in the target basis is a polynomial in
    q with nonnegative integer coefficients; witness on failure."""
    g = f.convert(basis)
    for lam in sorted(g.polys, reverse=True):
        if any(v < 0 or v.denominator != 1 for v in g.polys[lam]):
            return PositivityReport(False, lam, g.polys[lam])
    return PositivityReport(True)
