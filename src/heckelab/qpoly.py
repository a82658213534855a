"""
Exact polynomials in q over the integers: one arithmetic, one value type,
three printers.

The ``poly_*`` functions are the arithmetic.  A polynomial in q is a plain
int tuple of coefficients ascending from q^0, with no trailing zeros, so
() is zero.  Every quantity the package compares is such a polynomial:
Kazhdan-Lusztig polynomials, the characters of B_w = q^(l(w)/2) C'_w, the
coefficients of csf_q(G_m) and of the codominant decompositions.  KL rows
(heckelab.hecke) and the csf dynamic program compute on polynomials packed
into ints, and hand out these tuples, which the API returns as they are.
``poly_str``, ``poly_latex`` and ``poly_json`` print them, only where text
or JSON is made.

>>> square = poly_mul((1, 1), (1, 1))
>>> square
(1, 2, 1)
>>> print(poly_str(square), "|", poly_latex((0, -1, 0, 2)))
1 + 2*q + q^2 | -q + 2q^{3}
>>> poly_json((0, -1, 0, 2))
{'1': -1, '3': 2}
"""

from __future__ import annotations


def _show(p, power: str, times: str) -> str:
    """The nonzero terms of p, lowest power first, joined by + and -: q^k
    for k > 1 as power % k, and a coefficient c other than 1 in front of a
    power of q as c + times."""
    parts = []
    for k, v in enumerate(p):
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


def poly_str(p) -> str:
    return _show(p, "q^%d", "*")


def poly_latex(p) -> str:
    return _show(p, "q^{%d}", "")


def poly_json(p) -> dict:
    """Exponent -> coefficient over the nonzero terms, keys as strings.
    Coefficients are ints, or exact Fractions in the p basis of a symmetric
    function: an integral one serializes as an int, any other as a
    'num/den' string."""
    return {str(k): int(v) if v.denominator == 1 else str(v)
            for k, v in enumerate(p) if v}


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
# packed ints are exact whatever their signs; each packer states a bound on
# the coefficients it reads back and packs at poly_width of it.

def poly_width(bound: int) -> int:
    """The least width W with 2^(W-1) > bound: poly_unpack reads back at W
    every polynomial whose coefficients all have absolute value at most
    bound."""
    return bound.bit_length() + 1


def poly_pack(coeffs, width: int) -> int:
    """p(2^width) for the polynomial p with these coefficients, ascending."""
    return sum(a << width * k for k, a in enumerate(coeffs))


def poly_unpack(p: int, width: int) -> tuple:
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
