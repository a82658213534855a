"""
Permutations of [n] = {1, ..., n} in one-line notation, with Bruhat order,
the smoothness and codominance tests, coessential sets, and the dictionary
between smooth permutations, Hessenberg functions (heckelab.combinat has
their edges, enumeration and text form) and codominant permutations.

Conventions, fixed once for the whole package:

* ``Perm`` is a tuple of the values (w(1), ..., w(n)), so w(i) = ``w[i - 1]``.
* Products act on positions: ``(u * v)(i) = u(v(i))``.  Consequently
  ``w * s_i`` swaps the *positions* i, i+1 of w, while ``s_i * w`` swaps
  the *values* i, i+1.

Smooth permutations (those avoiding 3412 and 4231) are generated rank by
rank: ``smooth_perms(n)`` inserts n into each smooth permutation of [n - 1]
at every slot and keeps the results that stay smooth.  This is exact.
Deleting the value n from a smooth word leaves a smooth word, because a
subsequence of a pattern-avoiding word avoids the pattern, so every smooth
permutation of [n] arises from exactly one smooth permutation of [n - 1].
A new occurrence of 3412 or 4231 must use n, and n, the largest value, can
only play the "4".  So inserting n before w[p] keeps w smooth iff w[p:]
holds no 231 (no 4231 starting at n) and there is no i < p <= k < l with
w[k] < w[l] < w[i] (no 3412 with n second).  Once a rank is tabulated,
``Perm.is_smooth`` answers by lookup; otherwise it scans every choice of
four positions.

Two Bruhat questions the checks ask have closed forms.  By the rank
criterion (Bjorner & Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5),
z <= w iff r_{a,b}(z) >= r_{a,b}(w) for all a, b, where
r_{a,b}(w) = #{k <= a : w(k) <= b}.  A transposition t = (i j), i < j, has
r_{a,b}(t) = min(a, b) - 1 on the square i <= a, b < j and min(a, b)
elsewhere, so t <= w iff r_{a,b}(w) < min(a, b) on that square.  For
a <= b this says some w(k), k <= a, exceeds b, i.e. max w(1..a) > b; for
a >= b it says some value <= b sits right of position a, i.e.
max w^-1(1..b) > a.  Prefix maxima grow with the prefix, so the binding
cells are (i, j - 1) and (j - 1, i), and

    (i j) <= w  iff  j <= max w(1..i)  and  j <= max w^-1(1..i).

The same prefix maxima give m_w.  For every w, tops(i) =
min(max w(1..i), max w^-1(1..i)) is a Hessenberg function: i distinct
values have a maximum of at least i, so tops(i) >= i; prefix maxima never
decrease, so neither does tops; and tops(n) = n.  By the closed form its
edges E(tops) = {(i, j) : i < j <= tops(i)} are the transpositions below
w.  E is injective on Hessenberg functions, as m(i) = max(i, max{j : (i, j)
in E(m)}), so for smooth w, where Lemma 2.2 says the transpositions below
w are E(m_w), m_w = tops.  The paper defines m_w from the coessential set;
the lemma22 check compares that reading with this one.

The modular relation of Prop 3.1 asks, at an ascent w(i) < w(i+1), for the
lower covers z = w (a b) (a < b, w(a) > w(b)) with z(i) > z(i+1).  A swap
that moves neither position keeps z(i) < z(i+1); swapping i with i + 1
needs w(i) > w(i+1); moving position i rightward puts the smaller w(b) at
i, and moving position i + 1 leftward puts the larger w(a) at i + 1, and
each keeps the ascent.  So only two families remain: position i + 1 with a
later b where w(b) < w(i), and position i with an earlier a where w(a) >
w(i+1), each a cover when no position between the two holds a value
between theirs.

>>> w = Perm((2, 4, 5, 3, 6, 1))
>>> w.length()
7
>>> w.is_codominant()
True
>>> hessenberg_of_smooth(w)
(2, 4, 5, 5, 6, 6)
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations

# enumerate_hessenberg is imported for bench/tracer.py, which wraps it here
from .combinat import enumerate_hessenberg, hessenberg_edges, is_hessenberg

__all__ = [
    "Perm", "NotSmoothError",
    "bruhat_leq", "coessential_set", "hessenberg_of_smooth",
    "codominant_of_hessenberg", "transpositions_below",
    "all_perms", "smooth_perms", "orbit_representatives",
    "parse_perm", "perm_to_str",
]


class NotSmoothError(ValueError):
    """Raised when a smooth permutation was required."""


class Perm(tuple):
    """A permutation of [n] in one-line notation, as a tuple of values."""

    def __new__(cls, word):
        word = tuple(word)
        n = len(word)
        if sorted(word) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {word}")
        return super().__new__(cls, word)

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(1, n + 1))

    def __mul__(self, other: "Perm") -> "Perm":
        """(self * other)(i) = self(other(i))."""
        if len(self) != len(other):
            raise ValueError("size mismatch")
        return _trusted(self[v - 1] for v in other)

    def inverse(self) -> "Perm":
        inv = [0] * len(self)
        for i, v in enumerate(self):
            inv[v - 1] = i + 1
        return _trusted(inv)

    def length(self) -> int:
        """Number of inversion pairs i < j with w(i) > w(j)."""
        count = 0
        for i, v in enumerate(self):
            for u in self[i + 1:]:
                if u < v:
                    count += 1
        return count

    def times_simple(self, i: int) -> "Perm":
        """w * s_i: swap positions i, i+1 (1-based i < n)."""
        w = list(self)
        w[i - 1], w[i] = w[i], w[i - 1]
        return _trusted(w)

    def times_transposition(self, i: int, j: int) -> "Perm":
        """w * (i j): swap positions i and j."""
        w = list(self)
        w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
        return _trusted(w)

    def descents(self) -> list[int]:
        """Positions i with w(i) > w(i+1)."""
        return [i + 1 for i in range(len(self) - 1) if self[i] > self[i + 1]]

    def reduced_word(self) -> tuple[int, ...]:
        """One canonical reduced word (s_{i_1} ... s_{i_k} = w).

        Built by repeatedly removing the leftmost descent on the right.
        """
        w = list(self)
        rev = []
        while True:
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    w[i], w[i + 1] = w[i + 1], w[i]
                    rev.append(i + 1)
                    break
            else:
                break
        return tuple(reversed(rev))

    def lower_covers(self) -> set["Perm"]:
        """All z = w * (i j) with length(z) = length(w) - 1: those with
        w(i) > w(j) and no i < k < j with w(j) < w(k) < w(i)."""
        out = set()
        for i, a in enumerate(self):
            top = 0  # the largest w(k) < a seen right of i
            for j in range(i + 1, len(self)):
                if top < self[j] < a:
                    top = self[j]
                    out.add(self.times_transposition(i + 1, j + 1))
        return out

    def is_smooth(self) -> bool:
        """Avoids 3412 and 4231.  A lookup once ``smooth_perms`` has
        tabulated the rank; otherwise a scan that tabulates nothing."""
        table = _smooth_sets.get(len(self))
        return _avoids_3412_4231(self) if table is None else self in table

    def is_codominant(self) -> bool:
        """Avoids 312."""
        return not any(b < c < a for a, b, c in combinations(self, 3))

    def __repr__(self):
        return f"Perm({perm_to_str(self)!r})"


def _trusted(word) -> Perm:
    """A Perm from a word that is a permutation by construction, unchecked."""
    return tuple.__new__(Perm, word)


def _avoids_3412_4231(word) -> bool:
    """The definition of smoothness: no four positions read 3412 or 4231."""
    return not any(c < d < a < b or d < b < c < a
                   for a, b, c, d in combinations(word, 4))


# rank -> frozenset of its smooth permutations, filled by smooth_perms
_smooth_sets: dict[int, frozenset] = {}


@lru_cache(maxsize=None)
def smooth_perms(n: int) -> tuple:
    """All smooth permutations of [n] in lexicographic order, generated from
    those of [n - 1] (see the module docstring) once per rank.

    >>> [len(smooth_perms(n)) for n in range(1, 9)]
    [1, 2, 6, 22, 88, 366, 1552, 6652]
    """
    if n < 1:
        perms = (_trusted(()),)
    else:
        perms = tuple(map(_trusted, sorted(w[:p] + (n,) + w[p:]
                                           for w in smooth_perms(n - 1)
                                           for p in _smooth_slots(w))))
    _smooth_sets[n] = frozenset(perms)
    return perms


def _smooth_slots(w) -> list[int]:
    """The slots p at which inserting n = len(w) + 1 into the smooth word w
    keeps it smooth: w[p:] holds no 231 (else n makes a 4231), and no value
    of w[:p] exceeds the larger end of an ascent in w[p:] (else a 3412)."""
    n = len(w) + 1
    highest = list(accumulate(w, max, initial=0))  # highest[p] = max(w[:p])
    least_top = n  # the least larger end of an ascent in w[p:]; n if none
    slots = [n - 1]  # n last is always smooth
    for p in range(n - 2, -1, -1):
        v, rest = w[p], w[p + 1:]
        above = [u for u in rest if u > v]
        if above:
            least_top = min(least_top, *above)
            # a 231 from v: a smaller value after the first larger one;
            # then every slot left of p holds it too
            if min(rest[rest.index(above[0]):]) < v:
                break
        if highest[p] < least_top:
            slots.append(p)
    return slots


def bruhat_leq(z: Perm, w: Perm) -> bool:
    """z <= w in Bruhat order, by the rank criterion: r_{a,b}(z) >=
    r_{a,b}(w) for all a, b, compared row by row from ``_rank_rows`` and
    stopped at the first row that fails.  The identity has the maximal rank
    matrix, the longest element the minimal one.
    """
    if len(z) != len(w):
        raise ValueError("size mismatch")
    for rz, rw in zip(_rank_rows(z), _rank_rows(w)):
        if any(x < y for x, y in zip(rz, rw)):
            return False
    return True


def _rank_rows(w: Perm):
    """The rows (r_{a,0}(w), ..., r_{a,n}(w)) of the rank table of w for
    a = 0, ..., n, r_{a,b}(w) = #{k <= a : w(k) <= b}, one at a time: row a
    adds one to the cells b >= w(a) of row a - 1."""
    row = [0] * (len(w) + 1)
    yield row
    for v in w:
        row = row[:v] + [x + 1 for x in row[v:]]
        yield row


def coessential_set(w: Perm) -> frozenset[tuple[int, int]]:
    """The pairs (i, j) with w(i) <= j < w(i+1) and w^-1(j) <= i < w^-1(j+1).

    Out-of-range values w(n+1) and w^-1(n+1) are treated as +infinity, the
    boundary convention that reproduces the dot-diagram construction (e.g.
    Coess(245361) = {(1,2), (2,4), (4,5), (6,6)}).
    """
    n = len(w)
    wp = [*w, n + 1]  # wp[i - 1] = w(i), with w(n+1) = n + 1
    ip = [*w.inverse(), n + 1]
    return frozenset((i, j) for i in range(1, n + 1)
                     for j in range(wp[i - 1], wp[i])
                     if ip[j - 1] <= i < ip[j])


def hessenberg_of_smooth(w: Perm) -> tuple[int, ...]:
    """The Hessenberg function m_w of a smooth permutation, read off the
    prefix maxima (see the module docstring).

    Raises NotSmoothError when w contains 3412 or 4231.
    """
    if not w.is_smooth():
        raise NotSmoothError(f"{perm_to_str(w)} contains 3412 or 4231")
    return _tops(w)


def codominant_of_hessenberg(m) -> Perm:
    """Lexicographically greatest permutation with w(i) <= m(i) for all i.

    Greedy: at each position take the largest unused value <= m(i).  The
    result avoids 312.
    """
    m = tuple(m)
    if not is_hessenberg(m):
        raise ValueError(f"not a Hessenberg function: {m}")
    used = set()
    word = []
    for i, bound in enumerate(m, start=1):
        v = bound
        while v in used:
            v -= 1
        # m(i) >= i guarantees an unused value exists
        used.add(v)
        word.append(v)
    return Perm(word)


def transpositions_below(w: Perm) -> frozenset[tuple[int, int]]:
    """All transpositions t = (i j), i < j, with t <= w in Bruhat order:
    those with j <= max w(1..i) and j <= max w^-1(1..i), the rank criterion
    read on its two binding cells (see the module docstring).

    >>> sorted(transpositions_below(Perm((3, 1, 2))))
    [(1, 2), (2, 3)]
    """
    return hessenberg_edges(_tops(w))


def _tops(w: Perm) -> tuple[int, ...]:
    """(min(max w(1..i), max w^-1(1..i)))_{i=1..n}, a Hessenberg function
    for every w (see the module docstring)."""
    return tuple(map(min, accumulate(w, max), accumulate(w.inverse(), max)))


def _descending_covers(w: Perm, i: int) -> list[Perm]:
    """The lower covers z of w with z(i) > z(i+1), for an ascent
    w(i) < w(i+1): only swaps of position i + 1 with a later b, w(b) < w(i),
    and of position i with an earlier a, w(a) > w(i+1), qualify (see the
    module docstring).  Each family is one scan that keeps the nearest value
    between, as ``Perm.lower_covers`` does.

    >>> _descending_covers(Perm((1, 3, 4, 2)), 2)
    [Perm('1324')]
    """
    lo, hi = w[i - 1], w[i]
    out = []
    top = 0  # the largest w(k) < w(i+1) right of position i + 1 so far
    for b in range(i + 2, len(w) + 1):
        if top < w[b - 1] < hi:
            top = w[b - 1]
            if top < lo:
                out.append(w.times_transposition(i + 1, b))
    bottom = len(w) + 1  # the least w(k) > w(i) left of position i so far
    for a in range(i - 1, 0, -1):
        if lo < w[a - 1] < bottom:
            bottom = w[a - 1]
            if bottom > hi:
                out.append(w.times_transposition(a, i))
    return out


def all_perms(n: int):
    """All permutations of [n], lexicographic order."""
    from itertools import permutations as _p
    for word in _p(range(1, n + 1)):
        yield _trusted(word)


def orbit_representatives(perms) -> list[Perm]:
    """The w of ``perms``, in their order, that are least in their orbit
    {w, w^-1, w0 w w0, w0 w^-1 w0}; ``perms`` is closed under the orbit.

    ch(B_w) is constant on each orbit: P_{z,w} = P_{z^-1,w^-1} =
    P_{w0 z w0, w0 w w0} (Kazhdan & Lusztig, Invent. Math. 53, 1979), and
    every Hecke character takes the same value at T_z, T_{z^-1} and
    T_{w0 z w0} (Geck & Pfeiffer 2000, ch. 8).  So a check of ch(B_w) over
    the representatives covers all of S_n, and over the smooth ones all
    smooth w:

    * the smooth permutations are closed under the orbit, as 3412 and 4231
      are each fixed by inversion and by w -> w0 w w0 (reverse the word,
      complement the values);
    * ``lab.smooth_reduce`` maps every element of an orbit into the orbit
      of the reduction of its representative.  Inversion and w0-conjugation
      are Bruhat automorphisms, so by Lemma 2.2 w^-1 has the Hessenberg
      function of w, and w0 w w0 the reflected one m*, whose codominant
      permutation is w0 w_m^-1 w0 (it avoids 312 and has the reflected
      transpositions below it).

    tests/test_permutations.py checks both facts at every n <= 8.

    >>> orbit_representatives(all_perms(3))
    [Perm('123'), Perm('132'), Perm('231'), Perm('321')]
    """
    out = []
    for w in perms:
        top = len(w) + 1
        inv = w.inverse()
        if w <= inv and all(w <= tuple(top - v for v in reversed(x))
                            for x in (w, inv)):
            out.append(w)
    return out


# -- serialization ----------------------------------------------------------

def perm_to_str(w: Perm) -> str:
    """Digit string for n <= 9 (e.g. '62754381'), comma-separated beyond."""
    return ("" if len(w) <= 9 else ",").join(["%d"] * len(w)) % w


def parse_perm(text: str, n: int | None = None) -> Perm:
    """Parse a digit string or comma-separated list; 'e' is the identity.

    Parsing 'e' requires n.
    """
    text = text.strip()
    if text == "e":
        if n is None:
            raise ValueError("parsing 'e' requires the rank n")
        return Perm.identity(n)
    tokens = text.split(",") if "," in text else list(text)
    # isdecimal(), unlike isdigit(), refuses the digits int() cannot read
    if not tokens or not all(t.strip().isdecimal() for t in tokens):
        raise ValueError(f"not a permutation string: {text!r}")
    w = Perm(int(t) for t in tokens)
    if n is not None and len(w) != n:
        raise ValueError(f"expected a permutation of [{n}], got {text!r}")
    return w
