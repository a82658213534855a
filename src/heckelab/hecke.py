"""
Kazhdan-Lusztig polynomials of S_n, built row by row in a packed store.

Conventions:

* quadratic relation T_s^2 = (q-1) T_s + q;
* B_w denotes the scaled Kazhdan-Lusztig element q^(l(w)/2) C'_w
  = sum_{z <= w} P_{z,w}(q) T_z, which has integer powers of q throughout;
* the recursion builds B_y from B_{y s} (T_s + 1) minus mu-corrections.

B_w is defined by bar-invariance and the degree bound.  The store only
builds rows and reads them.  The ``kl-selfdual`` check of heckelab.lab
reads every row of S_n through ``KLRowStore._cosets`` and tests it against
the degree bound and the Kazhdan-Lusztig inversion formula (Invent. Math.
53 (1979), Thm 3.1), which the recursion does not use; the T-basis Hecke
algebra in tests/hecke_oracle.py checks bar-invariance itself.

Inside ``KLRowStore`` each P_{z,y} is one packed int, P(2^B) (Kronecker
substitution, heckelab.qpoly): q*p is ``p << B`` and a mu-correction is
one multiply and subtract.  The bound: KL positivity gives P >= 0, and
each coefficient of a row of length l is at most twice the largest of the
row of length l - 1 it is built from (the mu-corrections only subtract),
so P_{z,y} <= 2^(l(y)) <= 2^(n(n-1)/2) coefficientwise, and
B = poly_width(2^(n(n-1)/2)); as P >= 0, the coefficient of q^k sits in
bits [k*B, (k+1)*B).  Decoding raises on a negative coefficient.  Packed
ints leave the store only decoded: as tuple polynomials of heckelab.qpoly
from ``KLRowStore.row``, ``KLRowStore.polynomial`` and ``kl_polynomial``,
rendered into the text that heckelab.rowtext prints, or repacked at a
width of its own by the Frobenius character kernel of heckelab.characters
and by the ``kl-selfdual`` check.

Each row is stored once per two-sided descent coset.  Let I = D_L(y) and
J = D_R(y), the left and right descents of y.  W_J permutes the positions
inside each descent run of y (a maximal interval of positions on which y
decreases), and W_I the values inside each left descent block of y (a
maximal interval of values, each of which comes after the next one in y).
For t in I and t' in J, P_{z,y} = P_{tz,y} = P_{zt',y} (Kazhdan and
Lusztig, op. cit., 2.3), so the row is constant on each double coset
W_I z W_J, and the set {z <= y} is a union of them.  A double coset has
one minimal element, the only one with no left descent in I and no right
descent in J (Geck and Pfeiffer, Characters of Finite Coxeter Groups and
Iwahori-Hecke Algebras, 2000, 2.1): the z increasing on every run that
lists every block in increasing order.  The store keeps one packed value
per double coset, keyed by that element; equal polynomials share one int
object.  From any z increasing on the runs, relabelling the values of
each block in their order of appearance (``_relabel``) gives the key in
one pass: the result lists each block in order, it is z times an element
of W_I on the left, and it stays increasing on the runs, since blocks
are intervals of values and keep their order against each other.

Readers expand the double cosets.  Each double coset d splits into right
cosets r W_J (``_right_cosets``): r is d with the values of each block
dealt to the block's positions, increasing on every run, at length l(d)
plus the pairs of one block's values dealt out of order; ``_coset`` lists
r W_J, r with the values inside each run permuted.  Every reader of a
whole row, here, in heckelab.characters, in heckelab.rowtext and in the
``kl-selfdual`` check of heckelab.lab, reads the right cosets that
``KLRowStore._cosets`` lists; no other module reads the stored layout.

A row is built from the row of y' = ys, s the first descent of y, by

    P_{z,y} = P_{z,y'} + q P_{zs,y'}
              - sum_u mu(u,y') q^((l(y)-l(u))/2) P_{z,u},

u < y' with us < u, at each key z of y (zs > z, as s is in J).  Let
I' = D_L(y') and J' = D_R(y').

* I' is in I.  If t y' < y', then t y = t y' s has length at most
  l(y') = l(y) - 1, so t y < y.  The one left descent y may add is a0,
  when y' has a0 + 1 right after a0 = y'(s).
* The keys.  By the lifting property, a key z of y (zs > z) has z <= y',
  and z sorted inside the runs of y' still lists every block of y, so of
  y', in order: it is a key r of y'.  So every key of y comes from one
  key r of y'.  J' and J differ only in the run A of y' ending at s (one
  or two positions) and the run B starting at s+1; z is r with z(s) = a
  from the values of r on A (the other one, if any, before it) and
  z(s+1) = b > a from those on B (the rest sorted after it).  If s+1 is a
  descent of y, z is increasing on B and b is the least.  Then
  l(z) = l(r) + (|A| - 1 - index of a in A) + (index of b in B).  Such a
  z is a key of y unless it lists a block of y out of order.  As r lists
  those of y' in order, that happens only when a + 1 is the other value
  on A, or b - 1 is on B, in the block of a or b, or when a0 + 1 comes
  before a0.
* The q-term.  zs has b at s and a at s+1; with a and b exchanged between
  A and B, each re-sorted, it lists every block of y' in order and is the
  key of P_{zs,y'}, unless b = a + 1 in one block of y', where zs lies in
  the double coset of r itself.
* The mu-corrections.  If u < y', mu(u,y') != 0, t in I' and t' in J',
  then tu < u or u = ty', and ut' < u or u = y't' (Kazhdan and Lusztig,
  op. cit., (2.3.e)).  A u = ty' has us = ty > u, as t is in I.  A
  u = y't' has us < u only for t' = s+1, when s+1 is a descent of y
  (then mu = 1).  Every other u is the maximum of the double coset
  W_I' r W_J' of a key r of y', with P_{u,y'} = P_{r,y'}: r reversed
  inside each run of y', then relabelled in decreasing order of
  appearance.  Its length is l(r) + l(w_I') + l(w_J') - sum_{a,b}
  C(T_ab, 2), T_ab the number of values of block b on run a of r: the
  sum is l(w_K) for K = W_I' meet r W_J' r^-1, the Young subgroup of the
  values each block has on each run, which the other two terms count
  twice.  So mu(u,y') is the coefficient of q^((l(y') - l(u) - 1)/2) in
  P_{r,y'}.  It is zero unless P_{r,y'} has degree at least
  (l(y') - l(r) - l(w_I') - l(w_J') - 1) / 2, so l(u) is computed only
  then, and u is built only when the coefficient is nonzero.
  D_L(u) contains I' and D_R(u) contains J', so P_{z,u} is the same for
  every z in W_I' r W_J'; for u = y't' the keys z from r differ from r
  only on A, inside one descent run of u.  Either way it is read once per
  key r of y', at r sorted inside the runs of u that are not runs of y',
  then relabelled on the blocks of u that are not blocks of y'.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import combinations, permutations

from .permutations import Perm, _trusted, perm_to_str
from .qpoly import poly_unpack, poly_width

__all__ = ["kl_polynomial", "row_store", "KLRowStore"]


def _runs(w) -> tuple:
    """The descent runs of w with two or more positions, as 0-based
    half-open intervals (lo, hi) on which w decreases."""
    runs, lo, n = [], 0, len(w)
    for k in range(1, n + 1):
        if k == n or w[k - 1] < w[k]:
            if k - lo > 1:
                runs.append((lo, k))
            lo = k
    return tuple(runs)


@lru_cache(maxsize=None)
def _shape(y: tuple) -> tuple:
    """(runs, blocks, block, l(w_I) + l(w_J)) of y: its descent runs, whose
    positions W_J permutes, J = D_R(y); its left descent blocks, whose
    values W_I permutes, I = D_L(y), as 0-based half-open intervals (lo,
    hi) of the values lo+1..hi, two or more values whose positions
    decrease; and block[v], the least value of the block of v, for v in
    0..n."""
    pos = sorted(range(len(y)), key=y.__getitem__)  # of the value v + 1
    runs, blocks = _runs(y), _runs(pos)
    block = list(range(len(y) + 1))
    for lo, hi in blocks:
        block[lo + 1:hi + 1] = [lo + 1] * (hi - lo)
    return runs, blocks, tuple(block), _longest(runs) + _longest(blocks)


# the mu-corrections of the rows of one rank ask for the same (key, runs)
# pairs again and again (about ten times each over S_7)
@lru_cache(maxsize=None)
def _coset_min(z: tuple, runs: tuple) -> tuple:
    """The minimal element of z W_J, J given by its runs: z sorted inside
    each run."""
    if not runs:
        return tuple(z)
    z = list(z)
    for lo, hi in runs:
        z[lo:hi] = sorted(z[lo:hi])
    return tuple(z)


def _relabel(x, blocks: tuple, reverse: bool = False) -> tuple:
    """x with the values of each block relabelled in increasing order of
    appearance, the minimal element of W_I x, I given by its blocks; or in
    decreasing order with reverse, the maximal element."""
    x = list(x)
    for lo, hi in blocks:
        for v, p in enumerate(sorted(map(x.index, range(lo + 1, hi + 1)),
                                     reverse=reverse), lo + 1):
            x[p] = v
    return tuple(x)


def _top(r: tuple, runs: tuple, blocks: tuple) -> tuple:
    """The maximal element of W_I r W_J, r its minimal element: r reversed
    inside each run, then relabelled in decreasing order."""
    u = list(r)
    for lo, hi in runs:
        u[lo:hi] = reversed(u[lo:hi])
    return _relabel(u, blocks, reverse=True)


def _spread(r: tuple, runs: tuple, block: tuple) -> int:
    """sum over the runs a and blocks b of C(T_ab, 2), T_ab the number of
    values of block b on run a, r increasing on each run: l(w_K) for
    K = W_I meet r W_J r^-1, the part that l(w_I) + l(w_J) counts twice."""
    out = 0
    for lo, hi in runs:
        k = 1
        for p in range(lo + 1, hi):
            if block[r[p]] == block[r[p - 1]]:
                out += k
                k += 1
            else:
                k = 1
    return out


@lru_cache(maxsize=None)
def _deals(sizes: tuple) -> tuple:
    """(inversions, a) over the ways to deal the values 0..m-1 into
    consecutive groups of the given sizes, each group increasing: a lists
    the values in group order, the identity first."""
    out = [((), tuple(range(sum(sizes))))]
    for size in sizes:
        out = [(dealt + c, tuple(v for v in rest if v not in c))
               for dealt, rest in out for c in combinations(rest, size)]
    return tuple((sum(x > v for k, x in enumerate(a) for v in a[k + 1:]), a)
                 for a, _ in out)


def _right_cosets(d: tuple, runs: tuple, blocks: tuple) -> list:
    """(l(z) - l(d), z) over the minimal elements z of the right W_J-cosets
    in W_I d W_J, d its minimal element, d first.  Such a z is d with the
    values of each block dealt to the block's positions, increasing on each
    run; l(z) - l(d) counts the pairs of values of one block dealt out of
    order."""
    out = [(0, d)]
    if not blocks or not runs:
        return out
    joined = {p for lo, hi in runs for p in range(lo, hi - 1)}
    pos = sorted(range(len(d)), key=d.__getitem__)  # of the value v + 1
    for lo, hi in blocks:
        # d lists the values of the block in increasing order, so two
        # consecutive ones share a run when they sit side by side inside one
        sizes, size = [], 1
        for v in range(lo, hi - 1):
            if pos[v + 1] == pos[v] + 1 and pos[v] in joined:
                size += 1
            else:
                sizes.append(size)
                size = 1
        if sizes:
            sizes.append(size)
            slots = pos[lo:hi]
            grown = []
            for dz, z in out:
                for inv, a in _deals(tuple(sizes)):
                    x = list(z)
                    for p, v in zip(slots, a):
                        x[p] = lo + 1 + v
                    grown.append((dz + inv, tuple(x)))
            out = grown
    return out


def _longest(runs) -> int:
    """l(w_J), the longest element of W_J, J given by its descent runs (or
    of W_I, I given by its blocks)."""
    return sum((hi - lo) * (hi - lo - 1) // 2 for lo, hi in runs)


def _coset(r: tuple, runs: tuple):
    """The right coset r W_J of its minimal element r, J given by its
    descent runs, one z at a time: r with the values inside each run
    permuted."""
    ends = [lo for lo, _ in runs[1:]] + [len(r)]
    out = iter([r[:runs[0][0]] if runs else r])
    for (lo, hi), end in zip(runs, ends):
        out = _arranged(out, r[lo:hi], r[hi:end])
    return out


def _arranged(prefixes, block: tuple, tail: tuple):
    """x + a + tail for each x of prefixes and each arrangement a of the
    sorted block."""
    for x in prefixes:
        for a in permutations(block):
            yield x + a + tail


class KLRowStore:
    """Per-rank memo of the rows B_y = sum_z P_{z,y} T_z, keyed by y.

    Rows are computed lazily by the C'_{ys} C'_s recursion, pulling in
    exactly the rows the corrections need.  A row is a dict from the
    minimal element of each double coset W_I z W_J in [e, y], I = D_L(y)
    and J = D_R(y), to its packed P_{z,y} (see the module docstring);
    every key is interned with its length.  Reads expand the double cosets:
    to a dict Perm -> int tuple by `row`, or to text by heckelab.rowtext;
    `polynomial` reads the one value at the double coset of z.

    >>> from heckelab.permutations import parse_perm
    >>> store = KLRowStore(4)
    >>> y = parse_perm("3412")
    >>> store.row(y)[parse_perm("1234")]
    (1, 1)
    >>> stored = store._packed[y]
    >>> sorted((perm_to_str(z), poly_unpack(p, store._width))
    ...        for z, p in stored.items())  # doctest: +NORMALIZE_WHITESPACE
    [('1234', (1, 1)), ('1243', (1,)), ('2134', (1,)), ('2143', (1,))]
    >>> len(stored), len(store.row(y))
    (4, 14)
    """

    def __init__(self, n: int):
        self.n = n
        self._width = poly_width(1 << n * (n - 1) // 2)
        # row y -> {minimal element of each double coset: packed P_{z,y}}
        self._packed: dict[tuple, dict] = {}
        # each key of a row, so equal keys share one tuple; the length of
        # each key and of each row built
        self._keys: dict[tuple, tuple] = {}
        self._lengths: dict[tuple, int] = {}
        # each distinct packed polynomial, so equal values share one int
        self._polys: dict[int, int] = {}
        e = tuple(range(1, n + 1))
        self._keys[e], self._lengths[e] = e, 0
        self._packed[e] = {e: 1}

    def row(self, y: Perm) -> dict:
        """The full row {z: P_{z,y} as tuple} over z <= y."""
        polys, runs = self._distinct(y), _runs(y)
        return {_trusted(z): polys[p]
                for _, r, p in self._cosets(y) for z in _coset(r, runs)}

    def polynomial(self, z: Perm, y: Perm) -> tuple:
        """P_{z,y} as a tuple polynomial, () unless z <= y: the one stored
        value at the double coset of z."""
        runs, blocks = _shape(y)[:2]
        p = self._packed_row(y).get(_relabel(_coset_min(z, runs), blocks))
        return () if p is None else self._decode(y, p)

    def _decode(self, y: Perm, p: int) -> tuple:
        c = poly_unpack(p, self._width)
        if min(c, default=0) < 0:
            raise AssertionError(
                f"negative KL coefficient in row {perm_to_str(y)}")
        return c

    def _distinct(self, y: Perm) -> dict:
        """{packed P: P as tuple} over the distinct values P_{z,y} of the
        row of y."""
        return {p: self._decode(y, p)
                for p in set(self._packed_row(y).values())}

    def _cosets(self, y: Perm) -> list:
        """The stored row of y as [(l(r), r, packed P_{r,y})] over the
        minimal elements r of the right cosets r W_J in [e, y], J = D_R(y):
        each stored double coset expanded by `_right_cosets`, in turn.  The
        readers of the row read it here and nowhere else."""
        lengths, (runs, blocks) = self._lengths, _shape(y)[:2]
        return [(lengths[d] + dl, r, p)
                for d, p in self._packed_row(y).items()
                for dl, r in _right_cosets(d, runs, blocks)]

    def _packed_row(self, y: tuple) -> dict:
        got = self._packed.get(y)
        if got is not None:
            return got
        n, width = self.n, self._width
        mask = (1 << width) - 1
        runs_y, blocks_y, block_y, _ = _shape(y)
        i = runs_y[0][0]  # the first descent of y
        yp = y[:i] + (y[i + 1], y[i]) + y[i + 2:]  # y' = ys, s = s_(i+1)
        prev = self._packed_row(yp)
        lengths, keys = self._lengths, self._keys
        runs, blocks, block, longest = _shape(yp)
        lyp = lengths[yp]
        # the runs A of y' ending at s and B starting at s + 1 (0-based
        # positions [alo, i] and [i + 1, bhi)); z is increasing on B when
        # s + 1 is a descent of y
        alo = next((lo for lo, hi in runs if hi == i + 1), i)
        bhi = next((hi for lo, hi in runs if lo == i + 1), i + 2)
        increasing_b = i + 2 < n and y[i + 1] > y[i + 2]
        # I = I' plus a0 when y' has a0 + 1 right after a0 at s
        a0 = yp[i]
        gained = yp[i + 1] == a0 + 1

        out: dict[tuple, int] = {}  # key z of y -> packed P_{z,y}
        out_lengths = []
        by_coset: dict[tuple, list] = {}  # key r of y' -> its keys z of y
        corrections = []  # (u, mu(u, y') q^((l(y) - l(u)) / 2) packed)
        get = prev.get
        # with one value on A and z(s+1) the least on B, z is r itself.
        # This holds whenever gained does, so only this path tests a0: y
        # increases on 0..i, so y(i-1) < a0 and A is {i}; and if B has two
        # positions, y(i+2) < a0 + 1 is not a0, so y(i+1) > y(i+2)
        single = alo == i and (increasing_b or bhi == i + 2)
        for r, p in prev.items():
            lr = lengths[r]
            ra, rb = r[alo], r[bhi - 1]
            if ra > rb or block[ra] == block[rb]:
                # the maximum u of W_I' r W_J' has us < u; mu(u, y') is the
                # coefficient of q^(gap // 2) in p, gap = l(y') - l(u), and
                # l(u) <= lr + longest, so only a p of that degree has one
                gap = lyp - lr - longest
                if 2 * ((p.bit_length() - 1) // width) + 1 >= gap:
                    gap += _spread(r, runs, block)
                    mu = p >> width * (gap >> 1) & mask if gap & 1 else 0
                    if mu:
                        corrections.append((_top(r, runs, blocks),
                                            mu << width * ((gap + 1) >> 1)))
            if single:  # z = r, with a = r(s) and b = r(s+1)
                a, b = r[i], r[i + 1]
                if a < b and not (gained and r.index(a0) > r.index(a0 + 1)):
                    pz = p if b == a + 1 and block[a] == block[b] else \
                        get(r[:i] + (b, a) + r[i + 2:])
                    out[r] = p + (pz << width) if pz else p
                    out_lengths.append(lr)
                    by_coset[r] = [r]
                continue
            pre, a_vals, b_vals, post = r[:alo], r[alo:i + 1], r[i + 1:bhi], \
                r[bhi:]
            zs = []
            for ia, a in enumerate(a_vals):
                other = a_vals[:ia] + a_vals[ia + 1:]
                if other and other[0] == a + 1 and \
                        block_y[a] == block_y[a + 1]:
                    continue  # z has a + 1 before a
                front = pre + other + (a,)
                below = bisect(b_vals, a)  # the values on B less than a
                for jb in range(below, 1 if increasing_b else len(b_vals)):
                    b = b_vals[jb]
                    if jb and b_vals[jb - 1] == b - 1 and \
                            block_y[b] == block_y[b - 1]:
                        continue  # z has b before b - 1
                    rest = b_vals[:jb] + b_vals[jb + 1:]
                    z = front + (b,) + rest + post
                    # zs re-sorted on A and B
                    a_new = (other + (b,) if not other or other[0] < b
                             else (b,) + other)
                    b_new = rest[:below] + (a,) + rest[below:]
                    pz = p if b == a + 1 and block[a] == block[b] else \
                        get(pre + a_new + b_new + post)
                    out[z] = p + (pz << width) if pz else p
                    out_lengths.append(lr + len(other) - ia + jb)
                    zs.append(z)
            if zs:
                by_coset[r] = zs

        # P_{z,u} = P_{r,u} for the keys z from r: read once per key r of
        # y', at r sorted inside the runs of u that are not runs of y'
        if increasing_b:  # u = y' s_(i+2), mu(u, y') = 1
            corrections.append(
                (yp[:i + 1] + (yp[i + 2], yp[i + 1]) + yp[i + 3:], 1 << width))
        for u, c in corrections:
            row_u = self._packed_row(u)
            runs_u, blocks_u = _shape(u)[:2]
            # never empty: us < u puts i and i + 1 in one run of u, and
            # no run of y' holds both, as y'(i) < y'(i+1)
            extra = tuple(run for run in runs_u if run not in runs)
            extra_blocks = tuple(b for b in blocks_u if b not in blocks)
            for r, zs in by_coset.items():
                r = _coset_min(r, extra)
                if extra_blocks:
                    r = _relabel(r, extra_blocks)
                pu = row_u.get(r)
                if pu:
                    d = pu * c
                    for z in zs:
                        out[z] -= d

        # P_{z,y} = P_{y,y} = 1 on the double coset of y
        if out.get(_relabel(_coset_min(y, runs_y), blocks_y)) != 1:
            raise AssertionError(
                f"KL recursion failed at {perm_to_str(y)}: P_ww != 1")
        row = {}
        polys = self._polys
        for (z, v), lz in zip(out.items(), out_lengths):
            key = keys.get(z)
            if key is None:
                key = keys[z] = z
                lengths[z] = lz
            row[key] = polys.setdefault(v, v)
        self._packed[y] = row
        lengths[y] = lyp + 1
        return row


_stores: dict[int, KLRowStore] = {}


def row_store(n: int) -> KLRowStore:
    """The process-wide row store for S_n (created on first use)."""
    store = _stores.get(n)
    if store is None:
        store = _stores[n] = KLRowStore(n)
    return store


def kl_polynomial(z: Perm, w: Perm) -> tuple:
    """P_{z,w}; zero when z is not below w, as [e, w] is a union of the
    double cosets W_I z W_J, I = D_L(w) and J = D_R(w), that
    `KLRowStore.polynomial` reads."""
    if len(z) != len(w):
        raise ValueError("size mismatch")
    return row_store(len(w)).polynomial(z, w)
