"""
Irreducible characters of the Hecke algebra of S_n, from Geck-Pfeiffer
class polynomials and Ram's values on minimal class representatives, and
the Frobenius character map into symmetric functions.

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

The Frobenius character of B_w = q^(l(w)/2) C'_w = sum_{z<=w} P_{z,w} T_z
is summed in class coordinates first and mapped to the s basis once:

    F_{w,mu} = sum_{z<=w} P_{z,w} f_{z,mu},
    ch(B_w) = sum_lambda (sum_mu F_{w,mu} chi^lambda(T_{w_mu})) s_lambda.

Every step is an integer polynomial product or sum, so the result is
exact; it costs one product per (z, class of f_z) and one per
(mu, lambda), and no character table is built.

Two independent oracles check this: the q-deformed Young seminormal form,
evaluated at integer points and interpolated, in tests/seminormal_oracle.py,
and, at q := 1, the classical Murnaghan-Nakayama rule below.
"""

from __future__ import annotations

from functools import lru_cache

from .hecke import row_store
from .permutations import Perm, all_perms
from .qpoly import LaurentQ, poly_add, poly_add_scaled, poly_mul, poly_shift
from .symfunc import SymmetricFunction, kostka, partitions

__all__ = [
    "chi", "frobenius_cprime",
    "character_table", "class_poly", "murnaghan_nakayama", "min_class_rep",
    "cycle_type", "MAX_CHARACTER_N",
]

# the rank cap of ch(B_w) and of character tables, set by KL-row memory:
# the row of w0 in S_8 builds 578 rows in about 0.5 s, and the process
# peaks at 39 MB (Python 3.11, one core)
MAX_CHARACTER_N = 8

_class_polys: dict = {}


def class_poly(w) -> dict:
    """Class polynomials {mu: tuple poly} of w, a Perm or a plain tuple:
    chi(T_w) = sum_mu f_mu(q) chi(T_{min_class_rep(mu)}) for every
    character chi.

    Computed once for the whole cyclic-shift class of w and memoised.
    """
    w = tuple(w)
    got = _class_polys.get(w)
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
        f_xs, f_sxs = class_poly(step[0]), class_poly(step[1])
        f = {}
        for mu in {**f_xs, **f_sxs}:
            p = poly_add(poly_mul((-1, 1), f_xs.get(mu, ())),
                         poly_shift(f_sxs.get(mu, ()), 1))
            if p:
                f[mu] = p
    for x in members:
        _class_polys[x] = f
    return f


@lru_cache(maxsize=None)
def _coxeter_h(k: int) -> tuple:
    """sum_r (-1)^r q^(k-1-r) s_(k-r, 1^r), the Frobenius character of
    T_{s_1 ... s_(k-1)} in H(S_k), as ((h-partition, tuple poly), ...)."""
    hooks = {(k - r,) + (1,) * r: LaurentQ.q(k - 1 - r) * (-1) ** r
             for r in range(k)}
    h = SymmetricFunction("s", k, hooks).convert("h")
    return tuple((nu, c.poly_coeffs()) for nu, c in h.coeffs.items())


@lru_cache(maxsize=None)
def _class_values(mu: tuple) -> dict:
    """{lambda: chi^lambda(T_{min_class_rep(mu)})} as tuple polys, from
    Ram's formula; shapes with value zero are left out."""
    prod = {(): (1,)}
    for k in mu:
        nxt = {}
        for nu, p in prod.items():
            for rho, c in _coxeter_h(k):
                key = tuple(sorted(nu + rho, reverse=True))
                nxt[key] = poly_add(nxt.get(key, ()), poly_mul(p, c))
        prod = nxt
    # h_nu = sum_lambda K_{lambda, nu} s_lambda
    values = {}
    for lam in partitions(sum(mu)):
        acc = ()
        for nu, p in prod.items():
            k = kostka(lam, nu)
            if k:
                acc = poly_add_scaled(acc, p, k, 0)
        if acc:
            values[lam] = acc
    return values


def _chi_poly(lam: tuple, f: dict) -> tuple:
    """sum_mu f_mu * chi^lambda(T_{w_mu}) for class polynomials f."""
    acc = ()
    for mu, p in f.items():
        v = _class_values(mu).get(lam)
        if v:
            acc = poly_add(acc, poly_mul(p, v))
    return acc


def chi(lam, w: Perm) -> LaurentQ:
    """chi^lambda(T_w), an integer polynomial in q of degree <= l(w).

    Computed from the class polynomials of w and the values on minimal
    class representatives (see the module docstring); the seminormal-form
    oracle in tests/seminormal_oracle.py checks it independently.
    """
    lam = tuple(lam)
    if lam not in partitions(len(w)):
        raise ValueError(f"{lam} is not a partition of the rank {len(w)}")
    return LaurentQ.from_poly_coeffs(_chi_poly(lam, class_poly(w)))


def _check_rank(n: int) -> None:
    if n > MAX_CHARACTER_N:
        raise ValueError(
            f"rank {n} is above the character cap {MAX_CHARACTER_N}")


def character_table(n: int) -> dict:
    """chi^lambda(T_w) for every lambda |- n and every w in S_n.

    Returns {lambda: {w: tuple poly}}: the computation of chi swept over
    S_n, each cyclic-shift class reduced once.  Nothing is memoised.
    """
    _check_rank(n)
    perms = list(all_perms(n))
    polys = [class_poly(w) for w in perms]
    return {lam: {w: _chi_poly(lam, f) for w, f in zip(perms, polys)}
            for lam in partitions(n)}


@lru_cache(maxsize=None)
def frobenius_cprime(w: Perm) -> SymmetricFunction:
    """ch(q^(l(w)/2) C'_w): F_w summed over the KL row of w, then mapped
    to the s basis by Ram's formula (see the module docstring); the
    T-basis oracle in tests/hecke_oracle.py checks it term by term.
    Raises ValueError above MAX_CHARACTER_N."""
    n = len(w)
    _check_rank(n)
    f = {}
    for z, p in row_store(n).terms(w):
        for mu, c in class_poly(z).items():
            f[mu] = poly_add(f.get(mu, ()), poly_mul(p, c))
    return SymmetricFunction("s", n, {
        lam: LaurentQ.from_poly_coeffs(_chi_poly(lam, f))
        for lam in partitions(n)})


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


@lru_cache(maxsize=None)
def murnaghan_nakayama(lam: tuple, mu: tuple) -> int:
    """Classical S_n character chi^lambda on the class of cycle type mu,
    by border-strip removal on beta numbers."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not mu:
        return 1
    k = mu[0]
    m = len(lam)
    betas = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(betas)
    total = 0
    for i, b in enumerate(betas):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in betas if nb < c < b)
        new_betas = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(v - (m - 1 - j) for j, v in enumerate(new_betas))
        new_lam = tuple(v for v in new_lam if v > 0)
        total += (-1) ** height * murnaghan_nakayama(new_lam, mu[1:])
    return total
