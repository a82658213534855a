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
``KLRowStore.row`` (wrapped into LaurentQ only at the API boundary), as
JSON or text from ``KLRowStore.export``, or repacked at a width of its own
by the Frobenius character kernel of heckelab.characters.

Each row is built and kept as its lower half.  Let s be the first right
descent of y.  Since ys < y, P_{z,y} = P_{zs,y} for every z (Kazhdan and
Lusztig, op. cit.), so the row is fixed by its values at the lower z,
those with zs > z.  One pass over the row of ys gives each lower z its
share of B_{ys} (T_s + 1), P_{z,ys} + q P_{zs,ys}, and nothing else.  The
mu-corrections subtract rows B_u with us < u, which are s-symmetric by the
same identity, so the build needs only their values at the lower z: it
subtracts at the z already in the half and skips the rest.  The half
holds every lower z <= y, since z <= ys by the lifting property, so the
pass over the row of ys reaches z.  The store keeps the lower indices,
their packed values (equal polynomials share one int object) and the
list that maps each index to its s-partner; a reader gets the half, then
the partners with the same values.

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

from itertools import chain, zip_longest
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
    needed, its right neighbours u*s_i.  A row is built and kept as its
    lower half for the first descent s of y: the z with zs > z, as a tuple
    of indices and a tuple of packed ints (see the module docstring for why
    the other half is a copy).  Reads decode it in full: to a dict
    Perm -> int tuple by `row` (memoised), or to sorted output by
    `export`.

    >>> from heckelab.permutations import parse_perm
    >>> store = KLRowStore(4)
    >>> y = parse_perm("3412")
    >>> store.row(y)[parse_perm("1234")]
    (1, 1)
    >>> keys, values, _ = store._packed[store._index_of(y)]
    >>> sorted((perm_to_str(store._perms[z]), _unpack(p, store._width))
    ...        for z, p in zip(keys, values))  # doctest: +NORMALIZE_WHITESPACE
    [('1234', [1, 1]), ('1243', [1]), ('1342', [1]), ('2134', [1]),
     ('2143', [1]), ('3124', [1]), ('3142', [1])]
    >>> len(keys), len(store.row(y))
    (7, 14)
    """

    def __init__(self, n: int):
        self.n = n
        self._width = n * (n - 1) // 2 + 2
        self._perms: list[Perm] = []
        self._index: dict[Perm, int] = {}
        self._lengths: list[int] = []
        # _right[i - 1][u] is the index of u*s_i, -1 until first needed
        self._right: list[list[int]] = [[] for _ in range(n - 1)]
        # row y -> (lower z indices, packed P_{z,y}, _right[i - 1] of its s)
        self._packed: dict[int, tuple] = {}
        # each distinct packed polynomial, so equal values share one int
        self._polys: dict[int, int] = {}
        self._rows: dict[Perm, dict] = {}
        e = self._intern(Perm.identity(n), 0)
        self._packed[e] = ((e,), (1,), None)

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
        """The full row {z: P_{z,y} as tuple} over z <= y (memoised)."""
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
        k = self._index_of(y)
        polys = self._distinct(k, poly_out)
        return [(z, polys[p]) for z, p in self._items(k)]

    def _distinct(self, y: int, poly_out) -> dict:
        """{packed P: poly_out(coefficient list of P)} over the distinct
        values P_{z,y} of the row of the index y."""
        width = self._width
        polys = {}
        for p in set(self._packed_row(y)[1]):
            if p < 0:
                raise AssertionError("negative KL coefficient in row "
                                     f"{perm_to_str(self._perms[y])}")
            polys[p] = poly_out(_unpack(p, width))
        return polys

    def degree_failures(self, y: Perm) -> list:
        """[z] for every z != y in the row of y whose P_{z,y} is nonzero of
        degree at least (l(y) - l(z)) / 2, in row order."""
        k = self._index_of(y)
        lengths, ly = self._lengths, self._lengths[k]
        return [self._perms[z] for z, size in self._decoded(y, len)
                if z != k and size and 2 * (size - 1) >= ly - lengths[z]]

    def _items(self, y: int):
        """The full row of y as (z index, packed P_{z,y}) pairs: the stored
        lower half, then the s-partner of each of its keys with the same
        value."""
        keys, values, right = self._packed_row(y)
        if right is None:  # the identity has no descent
            return zip(keys, values)
        return chain(zip(keys, values),
                     zip(map(right.__getitem__, keys), values))

    def _packed_row(self, y: int) -> tuple:
        got = self._packed.get(y)
        if got is not None:
            return got
        w = self._perms[y]
        i = w.descents()[0]
        right = self._right[i - 1]
        yp = right[y]
        if yp < 0:
            yp = self._times_simple(y, i)
        lengths, width = self._lengths, self._width
        mask = (1 << width) - 1
        ly = lengths[y]

        # P_{z,y} = P_{z,ys} + q P_{zs,ys} at each lower z (zs > z)
        out: dict[int, int] = {}
        get = out.get
        corrections = []
        for u, p in self._items(yp):
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
                out[us] = get(us, 0) + (p << width)
            else:
                out[u] = get(u, 0) + p

        # a correction row is s-symmetric; its lower z are keys of out
        for u, c in corrections:
            for z, pz in self._items(u):
                if z in out:
                    out[z] -= pz * c

        if out.get(yp) != 1:  # P_{y,y}, stored at its partner ys
            raise AssertionError(
                f"KL recursion failed at {perm_to_str(w)}: P_ww != 1")
        values = out.values()
        got = self._packed[y] = (
            tuple(out), tuple(map(self._polys.setdefault, values, values)),
            right)
        return got

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
