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
"""

from __future__ import annotations

from .permutations import Perm, bruhat_leq, perm_to_str
from .qpoly import LaurentQ

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
        mask = (1 << width) - 1
        polys = {}
        for p in set(packed.values()):
            if p < 0:
                raise AssertionError(
                    f"negative KL coefficient in row {perm_to_str(y)}")
            polys[p] = poly_out([p >> width * k & mask for k in
                                 range((p.bit_length() + width - 1) // width)])
        return [(z, polys[p]) for z, p in packed.items()]

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
