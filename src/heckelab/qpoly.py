"""
Exact polynomials in q over the integers: one arithmetic, one value type.

The ``poly_*`` functions are the arithmetic.  A polynomial in q is a plain
int tuple of coefficients ascending from q^0, with no trailing zeros, so
() is zero.  Every quantity the package compares is such a polynomial:
Kazhdan-Lusztig polynomials, the characters of B_w = q^(l(w)/2) C'_w, the
coefficients of csf_q(G_m) and of the codominant decompositions.  The S_8
computations walk tens of thousands of interval elements, and dict-of-tuple
rows keep that affordable.

``LaurentQ`` is the value type of the API.  It is built from a tuple
(``LaurentQ.from_poly_coeffs``) at the API boundary, compared, printed and
serialized, and it does no arithmetic.  Its exponents are stored as integer
multiples of 1/2, so ``q`` itself sits at internal exponent 2.

>>> square = poly_mul((1, 1), (1, 1))
>>> square
(1, 2, 1)
>>> f = LaurentQ.from_poly_coeffs(square)
>>> print(f)
1 + 2*q + q^2
>>> f.at_q1(), f.poly_coeffs() == square
(4, True)
"""

from __future__ import annotations


class LaurentQ:
    """Sparse Laurent polynomial in q^(1/2) with exact coefficients, as a
    value: built, compared with other LaurentQ, printed and serialized.

    Coefficients are Python ints; exact Fractions are tolerated, and any
    integral Fraction is normalized back to int.  Fractions reach it only
    when a power-sum (p) coefficient of a symmetric function is shown or
    serialized.

    Immutable; canonical form (no zero coefficients) is enforced on
    construction, so equality and hashing are structural.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        # coeffs maps *half-exponents* (int, counting powers of q^(1/2))
        # to nonzero coefficients
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                # a Fraction, tested without importing fractions, which a
                # kl or cprime process never needs
                if type(v) is not int and v.denominator == 1:
                    v = int(v)
                if v:
                    c[int(k)] = v
        self._c = c

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentQ":
        return cls()

    @classmethod
    def one(cls) -> "LaurentQ":
        return cls({0: 1})

    @classmethod
    def integer(cls, c: int) -> "LaurentQ":
        return cls({0: c})

    @classmethod
    def q(cls, power: int = 1) -> "LaurentQ":
        """q raised to an integer power."""
        return cls({2 * power: 1})

    @classmethod
    def from_poly_coeffs(cls, coeffs) -> "LaurentQ":
        """Polynomial in q from a coefficient sequence, ascending from q^0."""
        return cls({2 * k: c for k, c in enumerate(coeffs)})

    def poly_coeffs(self) -> tuple:
        """Inverse of from_poly_coeffs: the tuple polynomial, () for zero.

        Raises ValueError for negative or half powers of q.
        """
        if any(k < 0 or k & 1 for k in self._c):
            raise ValueError("not a polynomial in q")
        out = [0] * (max(self._c, default=-2) // 2 + 1)
        for k, v in self._c.items():
            out[k // 2] = v
        return tuple(out)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentQ):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __bool__(self):
        return bool(self._c)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, half_exponent: int) -> int:
        return self._c.get(half_exponent, 0)

    def items(self):
        """(half_exponent, coefficient) pairs, sorted by exponent."""
        return sorted(self._c.items())

    def at_q1(self) -> int:
        """Specialize q^(1/2) := 1."""
        return sum(self._c.values())

    # -- serialization -------------------------------------------------------

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                term = str(abs(v))
            else:
                if k % 2 == 0:
                    e = k // 2
                    head = "q" if e == 1 else f"q^{e}" if e > 0 else f"q^({e})"
                else:
                    head = f"q^({k}/2)"
                term = head if abs(v) == 1 else f"{abs(v)}*{head}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentQ({self._c!r})"

    def latex(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for k, v in self.items():
            if k == 0:
                term = str(abs(v))
            else:
                num = f"q^{{{k // 2}}}" if k % 2 == 0 else f"q^{{{k}/2}}"
                num = "q" if k == 2 else num
                term = num if abs(v) == 1 else f"{abs(v)}{num}"
            if not parts:
                parts.append(term if v > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if v > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> dict:
        """Exponent -> coefficient map; keys are reduced fractions.

        Fraction coefficients serialize as 'num/den' strings.
        """
        out = {}
        for k, v in self.items():
            key = str(k // 2) if k % 2 == 0 else f"{k}/2"
            out[key] = v if isinstance(v, int) else str(v)
        return out


# -- tuple polynomials in q (ascending coefficients, () is zero) -------------

POLY_ONE = (1,)


def poly_trim(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, v in enumerate(b):
        c[i] += v
    return poly_trim(c)


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


def poly_shift(a: tuple, k: int) -> tuple:
    """a * q^k (k >= 0)."""
    if not a:
        return ()
    return (0,) * k + a


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
