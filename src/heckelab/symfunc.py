"""
Symmetric functions of homogeneous degree n over the Laurent ring in q^(1/2),
in the five classical bases m, e, h, p, s.

All conversions go through the monomial basis with exact integer transition
matrices, computed once per degree by direct combinatorial counting:

* e_lambda -> m: 0-1 matrices with prescribed row and column sums,
* h_lambda -> m: natural-number matrices with prescribed row and column sums,
* p_lambda -> m: assignments of whole parts to columns,
* s_lambda -> m: Kostka numbers, counted over semistandard tableaux.

The inverse matrices are computed by exact Gaussian elimination and checked
to be integral, so every round trip is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from .qpoly import LaurentQ, q_factorial

__all__ = [
    "Partition", "partitions", "conjugate", "hook_lengths", "num_syt",
    "SymmetricFunction", "kostka",
    "omega", "positivity", "PositivityReport", "q_factorial_partition",
]

BASES = ("m", "e", "h", "p", "s")

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


def q_factorial_partition(lam: Partition) -> LaurentQ:
    """lambda!_q = product of [lambda_i]!_q."""
    out = LaurentQ.one()
    for part in lam:
        out = out * q_factorial(part)
    return out


# -- transition coefficients into the monomial basis -------------------------

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
def _count_01_matrices(rows: Partition, cols: tuple) -> int:
    """0-1 matrices with row sums `rows` and column sums `cols`."""
    if not rows:
        return int(all(c == 0 for c in cols))
    r = rows[0]
    avail = [j for j, c in enumerate(cols) if c > 0]
    if r > len(avail):
        return 0
    total = 0
    for chosen in combinations(avail, r):
        new = list(cols)
        for j in chosen:
            new[j] -= 1
        total += _count_01_matrices(rows[1:], tuple(new))
    return total


@lru_cache(maxsize=None)
def _count_nat_matrices(rows: Partition, cols: tuple) -> int:
    """Natural-number matrices with row sums `rows` and column sums `cols`."""
    if not rows:
        return int(all(c == 0 for c in cols))
    r = rows[0]
    total = 0

    def place(j, remaining, new_cols):
        nonlocal total
        if j == len(cols):
            if remaining == 0:
                total += _count_nat_matrices(rows[1:], tuple(new_cols))
            return
        for amt in range(min(remaining, cols[j]) + 1):
            new_cols[j] = cols[j] - amt
            place(j + 1, remaining - amt, new_cols)
        new_cols[j] = cols[j]

    place(0, r, list(cols))
    return total


@lru_cache(maxsize=None)
def _count_part_assignments(parts: Partition, cols: tuple) -> int:
    """Ways to send each part wholly to one column, hitting the column sums."""
    if not parts:
        return int(all(c == 0 for c in cols))
    p = parts[0]
    total = 0
    for j, c in enumerate(cols):
        if c >= p:
            new = list(cols)
            new[j] -= p
            total += _count_part_assignments(parts[1:], tuple(new))
    return total


def _to_monomial_coefficient(basis: str, lam: Partition, mu: Partition) -> int:
    if basis == "e":
        return _count_01_matrices(lam, mu)
    if basis == "h":
        return _count_nat_matrices(lam, mu)
    if basis == "p":
        return _count_part_assignments(lam, mu)
    if basis == "s":
        return kostka(lam, mu)
    raise ValueError(f"unknown basis {basis!r}")


@lru_cache(maxsize=None)
def _matrix_to_m(basis: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Row lam, column mu: coefficient of m_mu in basis_lam."""
    parts = partitions(n)
    return tuple(
        tuple(_to_monomial_coefficient(basis, lam, mu) for mu in parts)
        for lam in parts
    )


@lru_cache(maxsize=None)
def _matrix_from_m(basis: str, n: int) -> tuple:
    """Exact inverse of _matrix_to_m, by rational Gaussian elimination.

    The inverses for e, h, s are integer matrices (those are Z-bases); the
    power sums are only a Q-basis, so the p inverse keeps exact Fractions.
    """
    mat = [[Fraction(v) for v in row] for row in _matrix_to_m(basis, n)]
    size = len(mat)
    inv = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = mat[col][col]
        mat[col] = [v / scale for v in mat[col]]
        inv[col] = [v / scale for v in inv[col]]
        for r in range(size):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - factor * b for a, b in zip(inv[r], inv[col])]
    if basis != "p":
        for row in inv:
            for v in row:
                if v.denominator != 1:
                    raise AssertionError(
                        f"{basis}-basis transition inverse not integral")
    # row mu, column lam: coefficient of basis_lam in m_mu
    return tuple(tuple(int(v) if v.denominator == 1 else v for v in row)
                 for row in inv)


# -- the symmetric function container ----------------------------------------

class SymmetricFunction:
    """Homogeneous symmetric function with LaurentQ coefficients."""

    __slots__ = ("basis", "n", "coeffs")

    def __init__(self, basis: str, n: int, coeffs: dict):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.n = n
        clean = {}
        for lam, c in coeffs.items():
            lam = tuple(lam)
            if sum(lam) != n:
                raise ValueError(f"partition {lam} has size != {n}")
            if not isinstance(c, LaurentQ):
                c = LaurentQ.integer(c)
            if c:
                clean[lam] = clean.get(lam, LaurentQ.zero()) + c
        self.coeffs = {k: v for k, v in clean.items() if v}

    @classmethod
    def zero(cls, basis: str, n: int) -> "SymmetricFunction":
        return cls(basis, n, {})

    @classmethod
    def basis_element(cls, basis: str, lam, coeff=1) -> "SymmetricFunction":
        lam = tuple(lam)
        return cls(basis, sum(lam), {lam: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, lam) -> LaurentQ:
        return self.coeffs.get(tuple(lam), LaurentQ.zero())

    def convert(self, target: str) -> "SymmetricFunction":
        """Exact change of basis."""
        if target == self.basis:
            return self
        if self.basis == "m":
            mat = _matrix_from_m(target, self.n)
        else:
            f_in_m = self._to_m()
            return f_in_m if target == "m" else f_in_m.convert(target)
        parts = partitions(self.n)
        index = {lam: i for i, lam in enumerate(parts)}
        out = {}
        for mu, c in self.coeffs.items():
            row = mat[index[mu]]
            for i, entry in enumerate(row):
                if entry:
                    lam = parts[i]
                    out[lam] = out.get(lam, LaurentQ.zero()) + c * entry
        return SymmetricFunction(target, self.n, out)

    def _to_m(self) -> "SymmetricFunction":
        mat = _matrix_to_m(self.basis, self.n)
        parts = partitions(self.n)
        index = {lam: i for i, lam in enumerate(parts)}
        out = {}
        for lam, c in self.coeffs.items():
            row = mat[index[lam]]
            for i, entry in enumerate(row):
                if entry:
                    mu = parts[i]
                    out[mu] = out.get(mu, LaurentQ.zero()) + c * entry
        return SymmetricFunction("m", self.n, out)

    def __add__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        other = other.convert(self.basis)
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, LaurentQ.zero()) + c
        return SymmetricFunction(self.basis, self.n, out)

    def __sub__(self, other: "SymmetricFunction") -> "SymmetricFunction":
        return self + other.scale(LaurentQ.integer(-1))

    def scale(self, c) -> "SymmetricFunction":
        if not isinstance(c, LaurentQ):
            c = LaurentQ.integer(c)
        return SymmetricFunction(
            self.basis, self.n, {lam: v * c for lam, v in self.coeffs.items()})

    def __eq__(self, other):
        """Mathematical equality, compared in the basis of self."""
        if not isinstance(other, SymmetricFunction):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.coeffs == other.convert(self.basis).coeffs

    def __hash__(self):
        m = self.convert("m")
        return hash((m.n, frozenset(m.coeffs.items())))

    def at_q1(self) -> dict:
        """Specialize q := 1; returns partition -> int in the same basis."""
        return {lam: c.at_q1() for lam, c in self.coeffs.items()}

    # -- serialization ----------------------------------------------------

    def sorted_items(self):
        return sorted(self.coeffs.items(), reverse=True)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for lam, c in self.sorted_items():
            name = f"{self.basis}[{','.join(map(str, lam))}]"
            parts.append(f"({c})*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymmetricFunction({self.basis!r}, {self.n}, {self.coeffs!r})"

    def latex(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for lam, c in self.sorted_items():
            sub = "".join(str(p) if p < 10 else f"{{{p}}}" for p in lam)
            parts.append(f"\\left({c.latex()}\\right) {self.basis}_{{{sub}}}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.n,
            "terms": [
                {"partition": list(lam), "coeff": c.to_json()}
                for lam, c in self.sorted_items()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SymmetricFunction":
        coeffs = {
            tuple(t["partition"]): LaurentQ.from_json(t["coeff"])
            for t in data["terms"]
        }
        return cls(data["basis"], data["degree"], coeffs)


def omega(f: SymmetricFunction) -> SymmetricFunction:
    """The involution with omega(h) = e, omega(e) = h, omega(s_lam) = s_lam',
    omega(p_k) = (-1)^(k-1) p_k."""
    if f.basis == "e":
        return SymmetricFunction("h", f.n, f.coeffs)
    if f.basis == "h":
        return SymmetricFunction("e", f.n, f.coeffs)
    if f.basis == "s":
        return SymmetricFunction(
            "s", f.n, {conjugate(lam): c for lam, c in f.coeffs.items()})
    if f.basis == "p":
        out = {}
        for lam, c in f.coeffs.items():
            sign = (-1) ** (sum(lam) - len(lam))
            out[lam] = c * sign
        return SymmetricFunction("p", f.n, out)
    # monomial basis: route through e and come back
    return omega(f.convert("e")).convert("m")


@dataclass(frozen=True)
class PositivityReport:
    positive: bool
    witness_partition: tuple | None = None
    witness_coefficient: LaurentQ | None = None


def positivity(f: SymmetricFunction, basis: str) -> PositivityReport:
    """Check that every coefficient in the target basis is a polynomial in
    q^(1/2) with nonnegative integer coefficients; witness on failure."""
    g = f.convert(basis)
    for lam, c in g.sorted_items():
        lo = c.min_half_exponent()
        bad = (lo is not None and lo < 0) or any(v < 0 for _, v in c.items())
        if bad:
            return PositivityReport(False, lam, c)
    return PositivityReport(True)
