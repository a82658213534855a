"""
Test oracle for the Kazhdan-Lusztig elements: the Hecke algebra of S_n in
the T-basis over Laurent polynomials in q^(1/2), with the bar involution
and Frobenius characters of arbitrary elements.

heckelab computes each B_w = q^(l(w)/2) C'_w = sum_z P_{z,w} T_z only as a
packed row of heckelab.hecke.KLRowStore.  Here the same rows become
HeckeElements, so tests can check the properties that define B_w
directly: bar-invariance iota(C'_w) = C'_w, the product rule
C'_w C'_s = C'_ws + sum_z mu(z, w) C'_z, and ch(B_w) summed term by term
against heckelab.characters.frobenius_cprime.  The arithmetic multiplies
by one simple generator at a time and shares no code with the row
recursion.

The coefficient ring is the oracle's own type, ``Laurent``: sparse maps
from half exponents to ints with addition, multiplication and the bar
involution.  heckelab itself computes on tuple polynomials in q and has no
such arithmetic, so tests also use ``Laurent`` as the reference for its
``poly_*`` kernel.
"""

from __future__ import annotations

from heckelab.characters import chi
from heckelab.combinat import partitions
from heckelab.hecke import row_store
from heckelab.permutations import Perm, perm_to_str
from heckelab.qpoly import poly_str, poly_trim
from heckelab.symfunc import SymmetricFunction


class Laurent:
    """Laurent polynomial in q^(1/2) with int coefficients, as the map
    {half exponent: nonzero coefficient}; ints mix in as constants."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {k: v for k, v in (coeffs or {}).items() if v}

    @classmethod
    def q(cls, power: int = 1) -> "Laurent":
        return cls({2 * power: 1})

    @classmethod
    def q_half(cls, half_power: int) -> "Laurent":
        return cls({half_power: 1})

    @classmethod
    def from_poly(cls, coeffs) -> "Laurent":
        """The polynomial in q with these coefficients, ascending."""
        return cls({2 * k: v for k, v in enumerate(coeffs)})

    @staticmethod
    def lift(x) -> "Laurent":
        return x if isinstance(x, Laurent) else Laurent({0: x})

    def __add__(self, other):
        c = dict(self.c)
        for k, v in Laurent.lift(other).c.items():
            c[k] = c.get(k, 0) + v
        return Laurent(c)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + -Laurent.lift(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other, c = Laurent.lift(other), {}
        for k1, v1 in self.c.items():
            for k2, v2 in other.c.items():
                c[k1 + k2] = c.get(k1 + k2, 0) + v1 * v2
        return Laurent(c)

    __rmul__ = __mul__

    def bar(self) -> "Laurent":
        """The involution sending q^(1/2) to q^(-1/2)."""
        return Laurent({-k: v for k, v in self.c.items()})

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def at_q1(self) -> int:
        return sum(self.c.values())

    def value(self) -> tuple:
        """The same polynomial as heckelab's value type, the coefficient
        tuple of integer powers of q: AssertionError for any other power."""
        assert all(k >= 0 and k % 2 == 0 for k in self.c), self
        out = [0] * (max(self.c, default=-2) // 2 + 1)
        for k, v in self.c.items():
            out[k // 2] = v
        return poly_trim(out)

    def __str__(self):
        return poly_str(self.value())

    def __repr__(self):
        return f"Laurent({self.c!r})"


class HeckeElement:
    """Finitely supported map Perm -> Laurent, in the T-basis."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        clean = {}
        if terms:
            for w, c in terms.items():
                c = Laurent.lift(c)
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

    def coefficient(self, w: Perm) -> Laurent:
        return self.terms.get(w, Laurent())

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Laurent()) + c
        return HeckeElement(self.n, out)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        return HeckeElement(self.n, {w: v * c for w, v in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, HeckeElement)
                and self.n == other.n and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def times_simple(self, i: int) -> "HeckeElement":
        """Right multiplication by T_{s_i}."""
        q = Laurent.q()
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
        qinv = Laurent.q(-1)
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


def cprime(w: Perm) -> HeckeElement:
    """The scaled element B_w = q^(l(w)/2) C'_w = sum_{z<=w} P_{z,w} T_z."""
    store = row_store(len(w))
    return HeckeElement(len(w), {z: Laurent.from_poly(p)
                                 for z, p in store.row(w).items()})


def cprime_normalized(w: Perm) -> HeckeElement:
    """C'_w itself, with the q^(-l(w)/2) prefactor reattached."""
    return cprime(w).scale(Laurent.q_half(-w.length()))


def cprime_times_cs(w: Perm, i: int) -> dict[Perm, Laurent]:
    """C'_w C'_{s_i} expanded in the C' basis.

    For w s_i > w this is {ws: 1} plus {z: mu(z, w)} over z <= w with
    z s_i < z; for w s_i < w the product collapses to
    (q^(-1/2) + q^(1/2)) C'_w.
    """
    if w[i - 1] > w[i]:
        return {w: Laurent.q_half(-1) + Laurent.q_half(1)}
    ws = w.times_simple(i)
    out = {ws: Laurent({0: 1})}
    store = row_store(len(w))
    roww = store.row(w)
    lw = w.length()
    for z, p in roww.items():
        if z[i - 1] > z[i]:
            gap = lw - z.length()
            if gap & 1:
                k = (gap - 1) >> 1
                if k < len(p) and p[k]:
                    out[z] = Laurent({0: p[k]})
    return out


def chi_element(lam, a: HeckeElement) -> Laurent:
    """Linear extension of chi over the T-basis terms of a."""
    lam = tuple(lam)
    out = Laurent()
    for w, c in a.terms.items():
        out = out + c * Laurent.from_poly(chi(lam, w))
    return out


def frobenius_ch(a: HeckeElement) -> SymmetricFunction:
    """ch(a) = sum_lambda chi^lambda(a) s_lambda, for an element a whose
    characters are polynomials in q."""
    return SymmetricFunction("s", a.n, {
        lam: chi_element(lam, a).value() for lam in partitions(a.n)})
