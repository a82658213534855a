"""
Exact polynomials in q over the integers: one arithmetic, one value type.

The ``poly_*`` functions are the arithmetic.  A polynomial in q is a plain
int tuple of coefficients ascending from q^0, with no trailing zeros, so
() is zero.  Every quantity the package compares is such a polynomial:
Kazhdan-Lusztig polynomials, the characters of B_w = q^(l(w)/2) C'_w, the
coefficients of csf_q(G_m) and of the codominant decompositions.  KL rows
(heckelab.hecke) and the csf dynamic program compute on polynomials packed
into ints, and hand out these tuples.

``LaurentQ`` is the value type of the API: the same tuple, canonicalised,
which the API returns, compares, prints and serializes.

>>> square = poly_mul((1, 1), (1, 1))
>>> square
(1, 2, 1)
>>> f = LaurentQ(square + (0,))
>>> print(f)
1 + 2*q + q^2
>>> f == square
True
"""

from __future__ import annotations


class LaurentQ(tuple):
    """A polynomial in q as a value: the tuple of its coefficients,
    ascending from q^0, with no trailing zeros, so LaurentQ(()) is zero.
    It compares and hashes as that tuple and does no arithmetic (on a
    tuple, + and * concatenate; the ``poly_*`` functions compute).

    Coefficients are ints, or exact Fractions in the p basis of a symmetric
    function; an integral Fraction becomes an int.
    """

    def __new__(cls, coeffs=()):
        # a Fraction, tested without importing fractions, which a kl or
        # cprime process never needs
        return super().__new__(cls, poly_trim([
            v if type(v) is int or v.denominator != 1 else int(v)
            for v in coeffs]))

    def _show(self, power: str, times: str) -> str:
        """The nonzero terms, lowest power first, joined by + and -: q^k
        for k > 1 as power % k, and a coefficient c other than 1 in front
        of a power of q as c + times."""
        parts = []
        for k, v in enumerate(self):
            if not v:
                continue
            c = abs(v)
            if k == 0:
                term = str(c)
            else:
                head = "q" if k == 1 else power % k
                term = head if c == 1 else f"{c}{times}{head}"
            sign = "-" if v < 0 else "+" if parts else ""
            parts.append(f"{sign} {term}" if parts else sign + term)
        return " ".join(parts) or "0"

    def __str__(self):
        return self._show("q^%d", "*")

    def __repr__(self):
        return f"LaurentQ({tuple(self)!r})"

    def latex(self) -> str:
        return self._show("q^{%d}", "")

    def to_json(self) -> dict:
        """Exponent -> coefficient over the nonzero terms, keys as strings;
        Fraction coefficients serialize as 'num/den' strings."""
        return {str(k): v if isinstance(v, int) else str(v)
                for k, v in enumerate(self) if v}


# -- tuple polynomials in q (ascending coefficients, () is zero) -------------

POLY_ONE = (1,)


def poly_trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    if a == POLY_ONE:
        return b
    if b == POLY_ONE:
        return a
    c = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                c[i + j] += u * v
    return poly_trim(c)


def poly_add_scaled(a: tuple, b: tuple, c: int, k: int) -> tuple:
    """a + c * q^k * b (k >= 0)."""
    out = list(a) + [0] * max(0, k + len(b) - len(a))
    for i, v in enumerate(b):
        out[k + i] += c * v
    return poly_trim(out)


def poly_shape(p) -> tuple:
    """(nonnegative, palindromic, unimodal) for the coefficients of p, a
    sequence with no trailing zeros, read from its first nonzero one; zero
    is vacuously all three."""
    lo = next((i for i, v in enumerate(p) if v), len(p))
    vec = p[lo:]
    if not vec:
        return True, True, True
    peak = vec.index(max(vec))
    rising = all(vec[i] <= vec[i + 1] for i in range(peak))
    falling = all(vec[i] >= vec[i + 1] for i in range(peak, len(vec) - 1))
    return (all(v >= 0 for v in vec), vec == vec[::-1], rising and falling)


# -- packed ints: a polynomial p as the one int p(2^width) -------------------
# Evaluation at q = 2^width is a ring homomorphism, so sums and products of
# packed ints are exact; each caller proves the bound its decoder needs.

def poly_pack(coeffs, width: int) -> int:
    """p(2^width) for the polynomial p with these coefficients, ascending."""
    return sum(a << width * k for k, a in enumerate(coeffs))


def poly_unpack(p: int, width: int) -> tuple:
    """The tuple polynomial with value p >= 0 at 2^width whose coefficients
    all lie in [0, 2^width): the base-2^width digits of p."""
    mask = (1 << width) - 1
    out = []
    while p:
        out.append(p & mask)
        p >>= width
    return tuple(out)


def poly_unpack_balanced(p: int, width: int) -> tuple:
    """The tuple polynomial with value p at 2^width whose coefficients all
    lie in (-2^(width-1), 2^(width-1)): the balanced base-2^width digits
    of p."""
    mask, half, full = (1 << width) - 1, 1 << width - 1, 1 << width
    out = []
    while p:
        d = p & mask
        if d >= half:
            d -= full
        out.append(d)
        p = (p - d) >> width
    return tuple(out)
