"""
Kazhdan-Lusztig polynomials of S_n, built row by row in a packed store.

Conventions:

* quadratic relation T_s^2 = (q-1) T_s + q;
* B_w denotes the scaled Kazhdan-Lusztig element q^(l(w)/2) C'_w
  = sum_{z <= w} P_{z,w}(q) T_z, which has integer powers of q throughout;
* the recursion builds B_y from B_{y s} (T_s + 1) minus mu-corrections.

B_w is defined by bar-invariance and the degree bound.  The
``kl-selfdual`` check of heckelab.lab tests the rows against the degree
bound and the Kazhdan-Lusztig inversion formula (Invent. Math. 53 (1979),
Thm 3.1), which the recursion does not use; the T-basis Hecke algebra in
tests/hecke_oracle.py checks bar-invariance itself.

Inside ``KLRowStore`` every permutation is an int index and each P_{z,y}
is one packed int (Kronecker substitution, as in heckelab.csf): the
coefficient of q^k sits in bits [k*B, (k+1)*B) with B = n(n-1)/2 + 2, so
q*p is ``p << B`` and a mu-correction is one multiply and subtract.
Packing is evaluation at q = 2^B, a ring homomorphism, so every sum, shift
and subtraction of the recursion is exact whatever the signs of the
intermediate values.  Only decoding needs a bound: every final coefficient
must lie in [0, 2^B).  KL positivity gives P >= 0, and each coefficient of
a row of length l is at most twice the largest of the row of length l - 1
it is built from (the mu-corrections only subtract), so
P_{z,y} <= 2^(l(y)) <= 2^(B-2) coefficientwise.  Packed ints leave the
store only decoded: as tuple polynomials of heckelab.qpoly from
``KLRowStore.row`` (wrapped into LaurentQ only at the API boundary), or as
JSON or text from ``KLRowStore.export``.

``KLRowStore.inversion_failures`` evaluates, for every x <= w in S_n,

    sum_{x <= z <= w} (-1)^(l(x)+l(z)) P_{x,z} P_{w0 w, w0 z} = delta_{x,w}

on packed ints too, with an exact zero test.  Products can carry past B
bits, so every distinct polynomial of the rows is decoded at width B (as
``row`` and ``export`` report it) and repacked at a width W with
2^W > n! M^2 + 1, M the largest value at q = 1 among them.  The terms of
each sum are split by sign into two sums S+ and S- with nonnegative
coefficients, each at most S+(1) + S-(1) <= n! M^2.  So S+ and S- + delta
have every coefficient in [0, 2^W), each is the base-2^W expansion of its
packed int, and the two ints are equal exactly when the decoded sums are.
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial

from .permutations import Perm, all_perms, bruhat_leq, perm_to_str
from .qpoly import LaurentQ

__all__ = [
    "KLTable", "kl_table", "kl_polynomial", "mu", "row_store", "KLRowStore",
]


def _unpack(p: int, width: int) -> list:
    """Coefficient list, ascending from q^0, of a packed int p >= 0 whose
    coefficients all lie in [0, 2^width)."""
    mask = (1 << width) - 1
    return [p >> width * k & mask
            for k in range((p.bit_length() + width - 1) // width)]


class KLRowStore:
    """Per-rank memo of the rows B_y = sum_z P_{z,y} T_z, keyed by y.

    Rows are computed lazily by the C'_{ys} C'_s recursion, pulling in
    exactly the rows the corrections need.  Each permutation the store
    meets is interned to an int index with its length and, once first
    needed, its right neighbours u*s_i; rows are built as dicts of index ->
    packed int (see the module docstring), decoded to dicts Perm -> int
    tuple by `row` (memoised) or to sorted output by `export`.
    """

    def __init__(self, n: int):
        self.n = n
        self._width = n * (n - 1) // 2 + 2
        self._perms: list[Perm] = []
        self._index: dict[Perm, int] = {}
        self._lengths: list[int] = []
        # _right[i - 1][u] is the index of u*s_i, -1 until first needed
        self._right: list[list[int]] = [[] for _ in range(n - 1)]
        self._packed: dict[int, dict[int, int]] = {}
        self._rows: dict[Perm, dict] = {}
        e = self._intern(Perm.identity(n), 0)
        self._packed[e] = {e: 1}

    def _intern(self, w: Perm, length: int) -> int:
        k = len(self._perms)
        self._index[w] = k
        self._perms.append(w)
        self._lengths.append(length)
        for right in self._right:
            right.append(-1)
        return k

    def _index_of(self, w: Perm) -> int:
        k = self._index.get(w)
        return self._intern(w, w.length()) if k is None else k

    def _times_simple(self, u: int, i: int) -> int:
        """Index of u*s_i, linked both ways on first use."""
        w = self._perms[u]
        ws = w.times_simple(i)
        k = self._index.get(ws)
        if k is None:
            k = self._intern(ws, self._lengths[u]
                             + (1 if w[i - 1] < w[i] else -1))
        right = self._right[i - 1]
        right[u] = k
        right[k] = u
        return k

    def length(self, w: Perm) -> int:
        return self._lengths[self._index_of(w)]

    def row(self, y: Perm) -> dict:
        """The full row {z: P_{z,y} as tuple} over z <= y."""
        got = self._rows.get(y)
        if got is None:
            perms = self._perms
            got = self._rows[y] = {perms[z]: p
                                   for z, p in self._decoded(y, tuple)}
        return got

    def export(self, y: Perm, poly_out) -> list:
        """[(z as string, poly_out(coefficients of P_{z,y}))] over the row of
        y in (length, z) order, read from the packed row without building
        `row(y)`."""
        perms, lengths = self._perms, self._lengths
        return [(perm_to_str(perms[z]), p) for z, p in sorted(
            self._decoded(y, poly_out),
            key=lambda e: (lengths[e[0]], perms[e[0]]))]

    def _decoded(self, y: Perm, poly_out) -> list:
        """[(z index, poly_out(coefficient list of P_{z,y}))]; each distinct
        packed polynomial of the row is decoded and passed on once."""
        packed = self._packed_row(self._index_of(y))
        width = self._width
        polys = {}
        for p in set(packed.values()):
            if p < 0:
                raise AssertionError(
                    f"negative KL coefficient in row {perm_to_str(y)}")
            polys[p] = poly_out(_unpack(p, width))
        return [(z, polys[p]) for z, p in packed.items()]

    def degree_failures(self, y: Perm) -> list:
        """[z] for every z != y in the row of y whose P_{z,y} is nonzero of
        degree at least (l(y) - l(z)) / 2, in row order."""
        k = self._index_of(y)
        lengths, ly = self._lengths, self._lengths[k]
        return [self._perms[z] for z, size in self._decoded(y, len)
                if z != k and size and 2 * (size - 1) >= ly - lengths[z]]

    def _packed_row(self, y: int) -> dict:
        got = self._packed.get(y)
        if got is not None:
            return got
        w = self._perms[y]
        i = w.descents()[0]
        right = self._right[i - 1]
        yp = right[y]
        if yp < 0:
            yp = self._times_simple(y, i)
        rowp = self._packed_row(yp)
        lengths, width = self._lengths, self._width
        mask = (1 << width) - 1
        ly = lengths[y]

        out: dict[int, int] = {}
        get = out.get
        corrections = []
        for u, p in rowp.items():
            us = right[u]
            if us < 0:
                us = self._times_simple(u, i)
            lu = lengths[u]
            if lengths[us] < lu:  # us < u: factor q, and u may carry a mu term
                gap = ly - 1 - lu
                if gap & 1:
                    mu_val = p >> width * (gap >> 1) & mask
                    if mu_val:
                        corrections.append(
                            (u, mu_val << width * ((gap + 1) >> 1)))
                p <<= width
            out[u] = get(u, 0) + p
            out[us] = get(us, 0) + p

        for u, c in corrections:
            for z, pz in self._packed_row(u).items():
                out[z] = get(z, 0) - pz * c

        if out.get(y) != 1:
            raise AssertionError(
                f"KL recursion failed at {perm_to_str(w)}: P_ww != 1")
        self._packed[y] = out
        return out

    def inversion_failures(self) -> list:
        """[(w, x, coefficient list of the sum)] for every x <= w in S_n at
        which sum_z (-1)^(l(x)+l(z)) P_{x,z} P_{w0 w, w0 z} != delta_{x,w};
        builds every row of S_n.  The module docstring shows why the
        comparison of packed sums is exact."""
        n = self.n
        w0 = Perm(range(n, 0, -1))
        dual = {self._index_of(w): self._index_of(w0 * w)
                for w in all_perms(n)}
        lengths, perms = self._lengths, self._perms
        rows = {y: self._decoded(perms[y], tuple) for y in dual}
        polys = {c for row in rows.values() for _, c in row}
        top = max(sum(c) for c in polys)
        width = (factorial(n) * top * top + 1).bit_length()
        wide = {c: sum(a << width * k for k, a in enumerate(c)) for c in polys}
        rows = {y: {z: wide[c] for z, c in row} for y, row in rows.items()}
        failures = []
        for w, dw in dual.items():
            by_parity = ({}, {})  # the terms of z with l(z) even, odd
            for z in rows[w]:
                d = rows[dual[z]][dw]
                acc = by_parity[lengths[z] & 1]
                get = acc.get
                for x, p in rows[z].items():
                    acc[x] = get(x, 0) + p * d
            for x in rows[w]:
                pos = by_parity[lengths[x] & 1].get(x, 0)
                neg = by_parity[~lengths[x] & 1].get(x, 0)
                if pos != neg + (x == w):
                    failures.append((perms[w], perms[x], [
                        a - b for a, b in zip_longest(
                            _unpack(pos, width), _unpack(neg, width),
                            fillvalue=0)]))
        return failures


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
        Entries with equal polynomials in one row share one dict.
        """
        if rows is None:
            rows = [self.w]
        store = self.store
        entries = []
        for y in sorted(rows, key=lambda y: (store.length(y), y)):
            ys = perm_to_str(y)
            entries += ([z, ys, p] for z, p in store.export(
                y, lambda c: {str(k): v for k, v in enumerate(c) if v}))
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
