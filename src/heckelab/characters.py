"""
Irreducible characters of the Hecke algebra of S_n and the Frobenius
character map into symmetric functions, both from one kernel: sums of
Geck-Pfeiffer class polynomials times Ram's values.

chi^lambda(T_w) is reduced to minimal-length class representatives
(Geck & Pfeiffer, Adv. Math. 102 (1993); also their book "Characters of
Finite Coxeter Groups and Iwahori-Hecke Algebras", 2000).  A character is
constant on cyclic-shift classes, the classes of the conjugations
x -> s x s with l(sxs) = l(x).  If some x in the class of w has
l(sxs) = l(x) - 2, then T_x = T_s T_sxs T_s and the quadratic relation give

    chi(T_w) = (q-1) chi(T_xs) + q chi(T_sxs);

otherwise w has minimal length in its conjugacy class, and every
minimal-length element of a class takes the same values.  Hence
chi(T_w) = sum_mu f_{w,mu}(q) chi(T_{w_mu}) with integer class polynomials
f_{w,mu} and w_mu = min_class_rep(mu).

On w_mu, the block Coxeter element of cycle type mu, Ram's Frobenius
formula (Ram, Invent. Math. 106 (1991)) gives

    sum_lambda chi^lambda(T_{w_mu}) s_lambda
        = prod_i sum_r (-1)^r q^(mu_i - 1 - r) s_(mu_i - r, 1^r).

The product is taken in the h basis, where it is partition concatenation,
and converted to the s basis once per mu.

The one kernel, `_characters`, turns a polynomial S_c on each cyclic-shift
class c into sum_c S_c chi^lambda(T_c) for every lambda at once:

    F_mu = sum_c S_c f_{c,mu},    chi^lambda = sum_mu F_mu V_{mu,lambda},

with V_{mu,lambda} = chi^lambda(T_{w_mu}); no character table is built.
The single class of w with S = 1 gives every chi^lambda(T_w) (`chi`).  The
KL row of w gives ch(B_w), B_w = q^(l(w)/2) C'_w = sum_{z<=w} P_{z,w} T_z,
with S_c = sum_{z <= w in c} P_{z,w}, as f_z depends only on the class of z.

heckelab.hecke stores a row once per double coset W_I z W_J, I = D_L(w)
and J = D_R(w), on which P_{z,w} is constant.  Each double coset is read
as its right cosets z W_J, whose class counts are computed once per
right coset and shared by the rows of a rank; the counts are added per
distinct P, and S_c adds each P times its count in c.
All of it runs on packed ints, as heckelab.hecke packs its rows: a
polynomial p is the int p(2^W) (heckelab.qpoly), so each sum and product
above is one int operation, exact whatever the signs of f and V.  The
bound: every coefficient of sum_mu F_mu V_{mu,lambda} is at most its l1
norm |.|, and

    sum_{c,mu} |S_c| |f_{c,mu}| |V_{mu,lambda}| <= sum_c |S_c| A_c <= T A,

with A_c = sum_mu |f_{c,mu}| max_lambda |V_{mu,lambda}| and A its largest
value over the classes c of the input, and T = sum_c S_c(1) = sum_c |S_c|,
as S_c is nonnegative: 1 for a class, sum_z P_{z,w}(1) for a row.  So each
input is packed at poly_width(T A) rounded up to a multiple W of 8; inputs
of about the same T A share W, and with it their packed class polynomials.

Two independent oracles check the kernel through chi: the q-deformed
Young seminormal form of tests/seminormal_oracle.py, evaluated at integer
points and interpolated, and the Murnaghan-Nakayama rule at q := 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from .hecke import _coset, _runs, row_store
from .permutations import Perm, all_perms
from .qpoly import (poly_add_scaled, poly_mul, poly_pack, poly_unpack,
                    poly_width)
from .symfunc import SymmetricFunction, partitions

__all__ = [
    "chi", "frobenius_cprime",
    "character_table", "min_class_rep", "cycle_type",
]

# each cyclic-shift class met gets a number: the class number of each
# permutation, and by number the class polynomials
_class_of: dict = {}
_classes: list = []


def _class_number(w: tuple) -> int:
    """The number c of the cyclic-shift class of w, whose class polynomials
    _classes[c] = {mu: f_{w,mu}} are computed when the class is first met."""
    got = _class_of.get(w)
    if got is not None:
        return got
    n = len(w)
    members, todo, step = {w}, [w], None
    while todo:
        x = todo.pop()
        pos = [0] * (n + 1)
        for p, v in enumerate(x):
            pos[v] = p
        for i in range(n - 1):
            # s = s_(i+1): x s swaps the positions i, i+1 (0-based), and
            # s (x s) then swaps the values i+1, i+2; each step is +-1
            a, b = x[i], x[i + 1]
            u, v = pos[i + 1], pos[i + 2]
            u = i + 1 if u == i else i if u == i + 1 else u
            v = i + 1 if v == i else i if v == i + 1 else v
            delta = (1 if a < b else -1) + (1 if u < v else -1)
            if delta > 0 or (delta < 0 and step is not None):
                continue
            y = list(x)
            y[i], y[i + 1] = b, a
            xs = tuple(y)
            y[u], y[v] = i + 2, i + 1
            sxs = tuple(y)
            if delta < 0:
                step = (xs, sxs)
            elif sxs not in members:
                members.add(sxs)
                todo.append(sxs)
    if step is None:
        f = {cycle_type(w): (1,)}
    else:
        f_xs, f_sxs = (_classes[_class_number(x)] for x in step)
        f = {}
        for mu in {**f_xs, **f_sxs}:
            p = poly_add_scaled(poly_mul((-1, 1), f_xs.get(mu, ())),
                                f_sxs.get(mu, ()), 1, 1)
            if p:
                f[mu] = p
    c = len(_classes)
    _classes.append(f)
    for x in members:
        _class_of[x] = c
    return c


@lru_cache(maxsize=None)
def _coxeter_h(k: int) -> dict:
    """sum_r (-1)^r q^(k-1-r) s_(k-r, 1^r), the Frobenius character of
    T_{s_1 ... s_(k-1)} in H(S_k), as {h-partition: tuple poly}."""
    hooks = {(k - r,) + (1,) * r: (0,) * (k - 1 - r) + ((-1) ** r,)
             for r in range(k)}
    return SymmetricFunction("s", k, hooks).convert("h").polys


@lru_cache(maxsize=None)
def _class_values(mu: tuple) -> dict:
    """{lambda: chi^lambda(T_{min_class_rep(mu)})} as tuple polys, from
    Ram's formula; shapes with value zero are left out."""
    prod = {(): (1,)}
    for k in mu:
        nxt = {}
        for nu, p in prod.items():
            for rho, c in _coxeter_h(k).items():
                key = tuple(sorted(nu + rho, reverse=True))
                nxt[key] = poly_add_scaled(nxt.get(key, ()),
                                           poly_mul(p, c), 1, 0)
        prod = nxt
    return SymmetricFunction("h", sum(mu), prod).convert("s").polys


@lru_cache(maxsize=None)
def _values_bound(mu: tuple) -> int:
    """max_lambda |V_{mu,lambda}|_1, the part of A_c that depends on mu
    alone."""
    return max(sum(map(abs, v)) for v in _class_values(mu).values())


@lru_cache(maxsize=None)
def _class_bound(c: int) -> int:
    """A_c = sum_mu |f_{c,mu}|_1 max_lambda |V_{mu,lambda}|_1 for the class
    numbered c (see the module docstring)."""
    return sum(sum(map(abs, p)) * _values_bound(mu)
               for mu, p in _classes[c].items())


@lru_cache(maxsize=None)
def _wide_class(c: int, width: int) -> tuple:
    """The class polynomials f_{c,mu} of the class numbered c packed at
    width, as ((index of mu in partitions(|mu|), f_{c,mu}(2^width)), ...)."""
    f = _classes[c]
    parts = partitions(sum(next(iter(f))))
    return tuple((parts.index(mu), poly_pack(p, width)) for mu, p in f.items())


@lru_cache(maxsize=None)
def _wide_values(mu: tuple, width: int) -> tuple:
    """Ram's values V_{mu,lambda} packed at width, as ((index of lambda in
    partitions(|mu|), V_{mu,lambda}(2^width)), ...) over the lambda with a
    nonzero value."""
    parts = partitions(sum(mu))
    return tuple((parts.index(lam), poly_pack(v, width))
                 for lam, v in _class_values(mu).items())


@lru_cache(maxsize=None)
def _coset_classes(r: tuple, runs: tuple) -> tuple:
    """((class number, count), ...) over the right coset r W_J of its
    minimal element r, J given by its descent runs; the double cosets of
    the rows of one rank share their right cosets, so each is expanded
    about once."""
    counts = {}
    for _, z in _coset(r, runs):
        c = _class_number(z)
        counts[c] = counts.get(c, 0) + 1
    return tuple(counts.items())


def _characters(n: int, by_value: dict, polys: dict) -> dict:
    """{lambda: sum_c S_c chi^lambda(T_c)} over lambda |- n, zero values
    left out, with S_c = sum_p k P_p over by_value = {p: {class c: k}} and
    polys = {p: coefficients of P_p >= 0} (see the module docstring): a KL
    row gives ch(B_w), and {1: {c: 1}} with P_1 = 1 the characters of c."""
    bound = (sum(sum(polys[p]) * sum(counts.values())  # T A
                 for p, counts in by_value.items())
             * max(map(_class_bound, chain.from_iterable(by_value.values()))))
    width = (poly_width(bound) + 7) & ~7  # a multiple of 8

    sums = {}  # S_c(2^W) by class number
    get = sums.get
    for p, counts in by_value.items():
        wp = poly_pack(polys[p], width)
        for c, k in counts.items():
            sums[c] = get(c, 0) + k * wp
    parts = partitions(n)
    f_w = [0] * len(parts)  # F_mu(2^W) by index of mu
    for c, s in sums.items():
        for i, f in _wide_class(c, width):
            f_w[i] += s * f
    chi_w = [0] * len(parts)  # chi^lambda(2^W) by index of lambda
    for mu, f in zip(parts, f_w):
        if f:
            for j, v in _wide_values(mu, width):
                chi_w[j] += f * v
    return {lam: poly_unpack(x, width)
            for lam, x in zip(parts, chi_w) if x}


def _chi_all(w) -> dict:
    """{lambda: chi^lambda(T_w)} over the nonzero values, for w a Perm or
    a plain tuple: the kernel on the single class of w."""
    return _characters(len(w), {1: {_class_number(tuple(w)): 1}}, {1: (1,)})


def chi(lam, w: Perm) -> tuple:
    """chi^lambda(T_w), an integer polynomial in q of degree <= l(w), as
    its coefficient tuple.

    Read from `_chi_all`, the kernel on the class of w (see the module
    docstring); the seminormal-form oracle in tests/seminormal_oracle.py
    checks it independently.
    """
    lam = tuple(lam)
    if lam not in partitions(len(w)):
        raise ValueError(f"{lam} is not a partition of the rank {len(w)}")
    return _chi_all(w).get(lam, ())


def character_table(n: int) -> dict:
    """chi^lambda(T_w) for every lambda |- n and every w in S_n.

    Returns {lambda: {w: tuple poly}}: one `_chi_all` call per w, which
    gives every lambda of w at once.  Nothing is memoised.
    """
    perms = list(all_perms(n))
    values = [_chi_all(w) for w in perms]
    return {lam: {w: v.get(lam, ()) for w, v in zip(perms, values)}
            for lam in partitions(n)}


def _frobenius_coeffs(w: Perm) -> dict:
    """ch(B_w) = ch(q^(l(w)/2) C'_w) in the s basis as {lambda: tuple
    poly}, zero coefficients left out: the kernel on the packed KL row of w
    (see the module docstring).  Nothing is memoised here.

    >>> _frobenius_coeffs(Perm((3, 2, 1)))  # [3]_q! s_(3)
    {(3,): (1, 2, 2, 1)}
    """
    n = len(w)
    store = row_store(n)
    # the stored row: one packed P_{z,w} per double coset W_I z W_J,
    # I = D_L(w) and J = D_R(w), read as its right cosets r W_J
    runs = _runs(w)
    by_value = {}  # packed P -> {class number c: the z in c with that P}
    for _, r, p in store._cosets(w):
        counts = by_value.get(p)
        if counts is None:
            counts = by_value[p] = {}
        for c, k in _coset_classes(r, runs):
            counts[c] = counts.get(c, 0) + k
    return _characters(n, by_value, store._distinct(w))


@lru_cache(maxsize=None)
def frobenius_cprime(w: Perm) -> SymmetricFunction:
    """ch(q^(l(w)/2) C'_w) as a symmetric function in the s basis: the
    packed kernel `_frobenius_coeffs`, memoised here and nowhere else; the
    T-basis oracle in tests/hecke_oracle.py checks it term by term."""
    return SymmetricFunction("s", len(w), _frobenius_coeffs(w))


# -- the q := 1 oracle --------------------------------------------------------

def cycle_type(w: Perm) -> tuple:
    """Cycle type of a permutation (a Perm or plain tuple), as a partition."""
    n = len(w)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        k, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = w[cur - 1]
            k += 1
        lengths.append(k)
    return tuple(sorted(lengths, reverse=True))


def min_class_rep(mu) -> Perm:
    """A minimal-length representative of the class with cycle type mu:
    consecutive cycles on blocks, length sum(mu_i - 1)."""
    word = []
    start = 1
    for k in sorted(mu, reverse=True):
        block = list(range(start + 1, start + k)) + [start]
        word.extend(block)
        start += k
    return Perm(word)
