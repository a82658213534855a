"""
The Hecke algebra of S_n in the T-basis, the bar involution, and
Kazhdan-Lusztig polynomials.

Conventions:

* quadratic relation T_s^2 = (q-1) T_s + q;
* B_w denotes the scaled Kazhdan-Lusztig element q^(l(w)/2) C'_w
  = sum_{z <= w} P_{z,w}(q) T_z, which has integer powers of q throughout;
* the recursion builds B_y from B_{y s} (T_s + 1) minus mu-corrections,
  and the resulting elements are validated against the two defining
  properties (self-duality under the bar involution, degree bounds) in the
  test suite.

Rows hold the tuple polynomials of heckelab.qpoly and are wrapped into
LaurentQ only at the API boundary.
"""

from __future__ import annotations

from .permutations import Perm, bruhat_leq, perm_to_str
from .qpoly import (POLY_ONE, LaurentQ, poly_add, poly_add_scaled,
                    poly_shift)

__all__ = [
    "HeckeElement", "hecke_multiply", "iota",
    "KLTable", "kl_table", "kl_polynomial", "mu",
    "cprime", "cprime_normalized", "cprime_times_cs",
    "row_store", "KLRowStore",
]


# -- Hecke algebra elements ---------------------------------------------------

class HeckeElement:
    """Finitely supported map Perm -> LaurentQ, in the T-basis."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for w, c in terms.items():
                if not isinstance(c, LaurentQ):
                    c = LaurentQ.integer(c)
                if c:
                    if len(w) != n:
                        raise ValueError("rank mismatch in terms")
                    clean[w] = c
        self.terms = clean

    @classmethod
    def t(cls, w: Perm, coeff=1) -> "HeckeElement":
        return cls(len(w), {w: coeff})

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls.t(Perm.identity(n))

    @classmethod
    def zero(cls, n: int) -> "HeckeElement":
        return cls(n, {})

    def coefficient(self, w: Perm) -> LaurentQ:
        return self.terms.get(w, LaurentQ.zero())

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, LaurentQ.zero()) + c
        return HeckeElement(self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        if not isinstance(c, LaurentQ):
            c = LaurentQ.integer(c)
        return HeckeElement(self.n, {w: v * c for w, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def times_simple(self, i: int) -> "HeckeElement":
        """Right multiplication by T_{s_i}."""
        q = LaurentQ.q()
        qm1 = q - 1
        out = {}

        def acc(w, c):
            if c:
                prev = out.get(w)
                out[w] = c if prev is None else prev + c

        for w, c in self.terms.items():
            ws = w.times_simple(i)
            if w[i - 1] < w[i]:
                acc(ws, c)
            else:
                acc(w, c * qm1)
                acc(ws, c * q)
        return HeckeElement(self.n, out)

    def times_simple_inverse(self, i: int) -> "HeckeElement":
        """Right multiplication by T_{s_i}^{-1} = q^{-1} T_s + (q^{-1}-1)."""
        qinv = LaurentQ.q(-1)
        return (self.times_simple(i).scale(qinv)
                + self.scale(qinv - 1))

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return hecke_multiply(self, other)

    def at_q1(self) -> dict:
        """Specialize q := 1, giving a group algebra element (Perm -> int)."""
        out = {}
        for w, c in self.terms.items():
            v = c.at_q1()
            if v:
                out[w] = v
        return out

    def sorted_items(self):
        return sorted(self.terms.items(),
                      key=lambda it: (it[0].length(), it[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*T[{perm_to_str(w)}]"
                          for w, c in self.sorted_items())

    def __repr__(self):
        return f"HeckeElement({self.n}, {self.terms!r})"


def hecke_multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the Hecke algebra; bilinear over reduced words of b."""
    if a.n != b.n:
        raise ValueError("rank mismatch")
    out = HeckeElement.zero(a.n)
    for v, c in b.terms.items():
        t = a
        for i in v.reduced_word():
            t = t.times_simple(i)
        out = out + t.scale(c)
    return out


def iota(a: HeckeElement) -> HeckeElement:
    """The involution with q^(1/2) -> q^(-1/2) and T_w -> (T_{w^-1})^{-1}.

    For a reduced word w = s_{i_1} ... s_{i_k} the image of T_w is
    T_{s_{i_1}}^{-1} ... T_{s_{i_k}}^{-1}.
    """
    out = HeckeElement.zero(a.n)
    memo: dict[Perm, HeckeElement] = {}

    def iota_t(w: Perm) -> HeckeElement:
        got = memo.get(w)
        if got is None:
            got = HeckeElement.unit(a.n)
            for i in w.reduced_word():
                got = got.times_simple_inverse(i)
            memo[w] = got
        return got

    for w, c in a.terms.items():
        out = out + iota_t(w).scale(c.bar())
    return out


# -- Kazhdan-Lusztig rows -----------------------------------------------------

class KLRowStore:
    """Per-rank memo of the rows B_y = sum_z P_{z,y} T_z, keyed by y.

    Rows are dicts Perm -> int tuple and are computed lazily by the
    C'_{ys} C'_s recursion, pulling in exactly the rows the corrections
    need.
    """

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[Perm, dict] = {}
        self._lengths: dict[Perm, int] = {}
        self._perms: dict[tuple, Perm] = {}
        e = Perm.identity(n)
        e = self._intern(e)
        self._rows[e] = {e: POLY_ONE}
        self._lengths[e] = 0
        self.identity = e

    def _intern(self, w: Perm) -> Perm:
        got = self._perms.get(w)
        if got is None:
            self._perms[w] = w
            return w
        return got

    def length(self, w: Perm) -> int:
        got = self._lengths.get(w)
        if got is None:
            got = w.length()
            self._lengths[w] = got
        return got

    def row(self, y: Perm) -> dict:
        """The full row {z: P_{z,y} as tuple} over z <= y."""
        y = self._intern(y)
        got = self._rows.get(y)
        if got is None:
            got = self._build_row(y)
        return got

    def _build_row(self, y: Perm) -> dict:
        i = y.descents()[0]
        yp = self._intern(y.times_simple(i))
        rowp = self.row(yp)
        ly = self.length(yp) + 1
        self._lengths.setdefault(y, ly)

        out: dict[Perm, tuple] = {}
        corrections = []
        for u, p in rowp.items():
            us = self._intern(u.times_simple(i))
            if u[i - 1] > u[i]:  # us < u: factor q, and u may carry a mu term
                qp = poly_shift(p, 1)
                prev = out.get(u)
                out[u] = qp if prev is None else poly_add(prev, qp)
                prev = out.get(us)
                out[us] = qp if prev is None else poly_add(prev, qp)
                gap = ly - 1 - self.length(u)
                if gap & 1:
                    k = (gap - 1) >> 1
                    if k < len(p) and p[k]:
                        corrections.append((u, p[k], (ly - self.length(u)) >> 1))
            else:
                prev = out.get(u)
                out[u] = p if prev is None else poly_add(prev, p)
                prev = out.get(us)
                out[us] = p if prev is None else poly_add(prev, p)

        for u, mu_val, shift in corrections:
            for z, pz in self.row(u).items():
                cur = poly_add_scaled(out.get(z, ()), pz, -mu_val, shift)
                if cur:
                    out[z] = cur
                else:
                    out.pop(z, None)

        if out.get(y) != POLY_ONE:
            raise AssertionError(
                f"KL recursion failed at {perm_to_str(y)}: P_ww != 1")
        self._rows[y] = out
        return out


_stores: dict[int, KLRowStore] = {}


def reset_row_store(n: int | None = None) -> None:
    """Drop the in-memory row store(s)."""
    if n is None:
        _stores.clear()
    else:
        _stores.pop(n, None)


def row_store(n: int) -> KLRowStore:
    """The process-wide row store for S_n (created on first use)."""
    store = _stores.get(n)
    if store is None:
        store = _stores[n] = KLRowStore(n)
    return store


class KLTable:
    """Kazhdan-Lusztig polynomials P_{z,y} for z <= y <= w.

    Rows are materialized lazily: every query below w is answerable, and
    only the recursion closure of the queried rows is ever computed.
    """

    def __init__(self, w: Perm, store: KLRowStore | None = None):
        self.w = w
        self.n = len(w)
        self.store = store if store is not None else row_store(self.n)

    def polynomial(self, z: Perm, y: Perm | None = None) -> LaurentQ:
        """P_{z,y} (default y = w); zero unless z <= y."""
        y = self.w if y is None else y
        if not bruhat_leq(y, self.w):
            raise ValueError("y is not below the table's top element")
        return LaurentQ.from_poly_coeffs(self.store.row(y).get(z, ()))

    def mu(self, z: Perm, y: Perm | None = None) -> int:
        y = self.w if y is None else y
        p = self.store.row(y).get(z)
        if p is None:
            return 0
        gap = self.store.length(y) - self.store.length(z)
        if not gap & 1:
            return 0
        k = (gap - 1) >> 1
        return p[k] if k < len(p) else 0

    def row(self, y: Perm | None = None) -> dict:
        """{z: P_{z,y} as LaurentQ} for the requested row."""
        y = self.w if y is None else y
        return {z: LaurentQ.from_poly_coeffs(p)
                for z, p in self.store.row(y).items()}

    def to_json(self, rows=None) -> dict:
        """Versioned JSON {n, entries: [[z, y, poly]]}, deterministic order.

        `rows` selects which rows to export (default: just the top row).
        """
        if rows is None:
            rows = [self.w]
        length = self.store.length
        entries = []
        for y in sorted(rows, key=lambda y: (length(y), y)):
            row = self.store.row(y)
            for z in sorted(row, key=lambda z: (length(z), z)):
                entries.append([perm_to_str(z), perm_to_str(y),
                                LaurentQ.from_poly_coeffs(row[z]).to_json()])
        return {"n": self.n, "entries": entries}


def kl_table(w: Perm) -> KLTable:
    return KLTable(w)


def kl_polynomial(z: Perm, w: Perm) -> LaurentQ:
    """P_{z,w}; zero when z is not below w."""
    if len(z) != len(w):
        raise ValueError("size mismatch")
    if not bruhat_leq(z, w):
        return LaurentQ.zero()
    return kl_table(w).polynomial(z)


def mu(z: Perm, w: Perm) -> int:
    """Coefficient of q^((l(w)-l(z)-1)/2) in P_{z,w}; 0 for incomparable pairs.

    Returning 0 (rather than raising) for incomparable pairs lets the
    C'_w C'_s product rule sum over all z without a comparability prefilter.
    """
    if len(z) != len(w):
        raise ValueError("size mismatch")
    if not bruhat_leq(z, w):
        return 0
    return kl_table(w).mu(z)


def cprime(w: Perm) -> HeckeElement:
    """The scaled element B_w = q^(l(w)/2) C'_w = sum_{z<=w} P_{z,w} T_z."""
    store = row_store(len(w))
    return HeckeElement(len(w), {z: LaurentQ.from_poly_coeffs(p)
                                 for z, p in store.row(w).items()})


def cprime_normalized(w: Perm) -> HeckeElement:
    """C'_w itself, with the q^(-l(w)/2) prefactor reattached."""
    return cprime(w).scale(LaurentQ.q_half(-w.length()))


def cprime_times_cs(w: Perm, i: int) -> dict[Perm, LaurentQ]:
    """C'_w C'_{s_i} expanded in the C' basis.

    For w s_i > w this is {ws: 1} plus {z: mu(z, w)} over z <= w with
    z s_i < z; for w s_i < w the product collapses to
    (q^(-1/2) + q^(1/2)) C'_w.
    """
    if w[i - 1] > w[i]:
        return {w: LaurentQ.q_half(-1) + LaurentQ.q_half(1)}
    ws = w.times_simple(i)
    out = {ws: LaurentQ.one()}
    store = row_store(len(w))
    roww = store.row(w)
    lw = store.length(w)
    for z, p in roww.items():
        if z[i - 1] > z[i]:
            gap = lw - store.length(z)
            if gap & 1:
                k = (gap - 1) >> 1
                if k < len(p) and p[k]:
                    out[z] = LaurentQ.integer(p[k])
    return out
