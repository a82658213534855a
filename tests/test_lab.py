import contextlib
import hashlib
import importlib
import io
import json

import pytest

from heckelab.characters import frobenius_cprime
from heckelab.cli import main
from heckelab.combinat import (edge_count, enumerate_hessenberg,
                               hessenberg_to_str, partitions)
from heckelab.csf import (counterexample_search, csf, csf_batch, csf_index,
                          csf_key)
from heckelab.hecke import KLRowStore, row_store
from heckelab.lab import (CHECK_BOUNDS, CHECKS, PreconditionError, Report,
                          _rank_transpositions, _thm16_step, check_suite,
                          decompose_codominant, modular_relation,
                          modular_triples, smooth_reduce,
                          verify_decomposition)
from heckelab.permutations import (NotSmoothError, Perm, all_perms, bruhat_leq,
                                   codominant_of_hessenberg,
                                   orbit_representatives, parse_perm,
                                   perm_to_str, smooth_perms,
                                   transpositions_below)
from heckelab.qpoly import poly_add_scaled, poly_mul
from test_characters import asymmetric_orbits, symmetry_orbits

ONE_PLUS_Q = (1, 1)


def modular_sides(m0, m1, m2):
    """(1 + q) csf(m1) and csf(m2) + q csf(m0), as m-basis coefficients."""
    lhs = {lam: poly_mul(p, (1, 1)) for lam, p in csf(m1).polys.items()}
    rhs = dict(csf(m2).polys)
    for lam, p in csf(m0).polys.items():
        rhs[lam] = poly_add_scaled(rhs.get(lam, ()), p, 1, 1)
    return lhs, {lam: p for lam, p in rhs.items() if p}


def test_smooth_reduce_examples():
    assert smooth_reduce(parse_perm("3142")) == parse_perm("2341")
    w = parse_perm("245361")
    assert smooth_reduce(w) == w
    with pytest.raises(NotSmoothError):
        smooth_reduce(parse_perm("4231"))


def test_smooth_counts():
    # in S4 exactly the two singular patterns themselves are singular
    assert len(smooth_perms(4)) == 22


def test_moment_graph():
    # the moment graph of w is fixed by the transpositions below w
    assert transpositions_below(Perm((2, 1))) == frozenset({(1, 2)})
    assert transpositions_below(Perm.identity(3)) == frozenset()
    assert transpositions_below(parse_perm("3142")) == \
        transpositions_below(parse_perm("2341"))


# sha256 of the JSON list of sorted(transpositions_below(w)) for every w of
# S_1, ..., S_6 in all_perms order, recorded when smooth w took their edges
# from hessenberg_edges and singular w from a scan of their own
MOMENT_GRAPHS_S6_SHA256 = \
    "e84b752720e33798bc654bb23fc44bbe548dadebc228e843c5228c1cad0989f8"


def test_moment_graphs_golden_digest():
    graphs = [sorted(transpositions_below(w))
              for n in range(1, 7) for w in all_perms(n)]
    assert hashlib.sha256(json.dumps(graphs).encode()).hexdigest() == \
        MOMENT_GRAPHS_S6_SHA256


def test_modular_relation_examples():
    rel = modular_relation(Perm((2, 3, 1)), 1)
    assert rel.case == "smooth" and rel.z == Perm((2, 1, 3))
    assert rel.verified is True
    rel = modular_relation(Perm((3, 1, 2)), 2)
    assert rel.case == "smooth" and rel.z == Perm((1, 3, 2))
    rel = modular_relation(parse_perm("26754381"), 1)
    assert rel.case == "singular"
    assert rel.ws == parse_perm("62754381")
    assert rel.verified is True  # the paper's S_8 identity, computed
    assert "ch(C'[62754381])" in rel.identity()
    assert modular_relation(parse_perm("26754381"), 1, verify=False) == \
        rel._replace(verified=None)


def test_modular_relation_preconditions():
    with pytest.raises(PreconditionError):
        modular_relation(parse_perm("4231"), 1)  # singular w
    with pytest.raises(PreconditionError):
        modular_relation(Perm((2, 3, 1)), 2)  # ws < w
    with pytest.raises(PreconditionError):
        modular_relation(Perm.identity(3), 1)  # sw > w


@pytest.mark.parametrize("n", [3, 4, 5])
def test_modular_relation_exhaustive(n):
    pairs = 0
    for w in smooth_perms(n):
        winv = w.inverse()
        for i in range(1, n):
            if w[i - 1] < w[i] and winv[i - 1] > winv[i]:
                rel = modular_relation(w, i)
                assert rel.verified is True
                pairs += 1
    assert pairs > 0


def test_prop31_dichotomy_n7():
    (rep,) = check_suite(7, ["prop31"])
    assert rep.status == "pass"


def test_lemma22_reports_a_wrong_coessential_pin(monkeypatch):
    # Coess(4321) = {(4, 4)}; a pin (1, 3) says m_w(1) = 3, not 4
    lab = importlib.import_module("heckelab.lab")
    w0 = parse_perm("4321")
    coess = lab.coessential_set
    assert coess(w0) == {(4, 4)}
    monkeypatch.setattr(lab, "coessential_set", lambda w: (
        coess(w) | {(1, 3)} if w == w0 else coess(w)))
    (rep,) = check_suite(4, ["lemma22"])
    assert (rep.status, rep.witnesses) == ("fail", ["4321"])
    monkeypatch.undo()
    (rep,) = check_suite(4, ["lemma22"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_momentgraph_reports_a_wrong_reduction(monkeypatch):
    # 4321 reduced to the identity, below which lies no transposition
    lab = importlib.import_module("heckelab.lab")
    reduce = lab.smooth_reduce
    monkeypatch.setattr(lab, "smooth_reduce", lambda w: (
        Perm.identity(4) if w == parse_perm("4321") else reduce(w)))
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("fail", ["4321"])
    monkeypatch.undo()
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_momentgraph_reports_a_wrong_closed_form(monkeypatch):
    # 4321 is codominant, its own reduction: dropping (1 2) from its closed
    # form changes both sides of the closed-form comparison alike, and only
    # the rank criterion tells
    lab = importlib.import_module("heckelab.lab")
    below = lab.transpositions_below
    w0 = parse_perm("4321")
    assert lab.smooth_reduce(w0) == w0
    monkeypatch.setattr(lab, "transpositions_below", lambda w: (
        below(w) - {(1, 2)} if w == w0 else below(w)))
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("fail", ["4321"])
    monkeypatch.undo()
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("pass", [])


@pytest.mark.parametrize("n", range(1, 7))
def test_momentgraph_rank_table_matches_bruhat_leq(n):
    # every w of S_n, not only the smooth ones the check visits
    e = Perm.identity(n)
    for w in all_perms(n):
        assert _rank_transpositions(w) == {
            (i, j) for i in range(1, n) for j in range(i + 1, n + 1)
            if bruhat_leq(e.times_transposition(i, j), w)}, w


def test_momentgraph_reports_a_miscounted_rank_table(monkeypatch):
    # r_{1,1}(4321) = 0 read as 1 fails the square of (1 2), and so of every
    # (1 j); the closed form at 4321 and at its reduction still holds them
    lab = importlib.import_module("heckelab.lab")
    rank_rows = lab._rank_rows
    w0 = parse_perm("4321")

    def miscounted(w):
        rows = list(rank_rows(w))
        if w == w0:
            rows[1][1] += 1
        return iter(rows)

    monkeypatch.setattr(lab, "_rank_rows", miscounted)
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("fail", ["4321"])
    monkeypatch.undo()
    (rep,) = check_suite(4, ["momentgraph"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_mn_reports_an_altered_character_value(monkeypatch):
    # chi^(2,1) on the class (2,1) is q - 1; adding 1 breaks it at q = 1.
    # The kernel reads Ram's values through lru caches, cleared on both
    # sides of the change so that none holds a value of the other side
    characters = importlib.import_module("heckelab.characters")
    values = characters._class_values
    caches = (characters._wide_values, characters._values_bound,
              characters._class_bound)

    def altered(mu):
        out = dict(values(mu))
        if mu == (2, 1):
            out[(2, 1)] = poly_add_scaled(out[(2, 1)], (1,), 1, 0)
        return out

    for cache in caches:
        cache.cache_clear()
    monkeypatch.setattr(characters, "_class_values", altered)
    try:
        (rep,) = check_suite(3, ["mn"])
        assert (rep.status, rep.witnesses) == (
            "fail", [{"lambda": [2, 1], "class": [2, 1]}])
    finally:
        monkeypatch.undo()
        for cache in caches:
            cache.cache_clear()
    (rep,) = check_suite(3, ["mn"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_modular_triples():
    triples = modular_triples(3)
    assert ((1, 3, 3), (2, 3, 3), (3, 3, 3), 1) in triples
    for m0, m1, m2, i in modular_triples(5):
        lhs, rhs = modular_sides(m0, m1, m2)
        assert lhs == rhs, (m0, m1, m2)


def test_modular_law_check_reports_a_broken_triple(monkeypatch):
    csf_module = importlib.import_module("heckelab.csf")
    batch = dict(csf_module.csf_batch(4))
    m0, m1, m2, _ = modular_triples(4)[0]
    broken = dict(batch[m1])
    lam = max(broken)
    broken[lam] = broken[lam] + (1,)
    monkeypatch.setattr(csf_module, "_batches", {4: {**batch, m1: broken}})
    (rep,) = check_suite(4, ["modular-law"])
    assert rep.status == "fail"
    assert [hessenberg_to_str(m) for m in (m0, m1, m2)] in rep.witnesses


def test_kl_selfdual_passes_n5():
    (rep,) = check_suite(5, ["kl-selfdual"])
    assert rep.status == "pass", rep
    assert rep.details == \
        "KL inversion formula and degree bounds over all 120 w"


def test_kl_selfdual_passes_n6(monkeypatch):
    # the exact sum stays the oracle of any faster test of the formula
    monkeypatch.setitem(CHECK_BOUNDS, "kl-selfdual", 6)
    (rep,) = check_suite(6, ["kl-selfdual"])
    assert rep.status == "pass", rep
    assert rep.details == \
        "KL inversion formula and degree bounds over all 720 w"


def _add_to_stored_value(store, y, z, delta):
    """Add the packed delta to the stored value of P_{z,y}, z a stored key
    of the row of y (the minimal element of its double coset); every z of
    the double coset reads the same value."""
    stored = store._packed_row(y)
    stored[z] += delta


def _fresh_store_that_passes(monkeypatch):
    """A fresh store of S_4, installed as the row store of its rank, with
    every row built by a kl-selfdual run that passes."""
    store = KLRowStore(4)
    monkeypatch.setitem(importlib.import_module("heckelab.hecke")._stores,
                        4, store)
    (rep,) = check_suite(4, ["kl-selfdual"])
    assert rep.status == "pass", rep
    return store


def test_kl_selfdual_reports_a_perturbed_kl_polynomial(monkeypatch):
    # P_{e,3412} = 1 + q becomes 2 + q, which keeps the degree bound; the
    # stored value is also P_{1324,3412}, and a sum fails wherever either
    # enters it, in the order of w and then of x
    store = _fresh_store_that_passes(monkeypatch)
    _add_to_stored_value(store, parse_perm("3412"), Perm.identity(4), 1)
    (rep,) = check_suite(4, ["kl-selfdual"])
    assert rep.status == "fail"
    assert rep.witnesses == [
        "inversion formula at x = 1234, w = 3412: sum = 1",
        "inversion formula at x = 1324, w = 3412: sum = -1",
        "inversion formula at x = 1234, w = 3421: sum = 1",
        "inversion formula at x = 1324, w = 3421: sum = -1",
        "inversion formula at x = 1234, w = 4231: sum = 1",
        "inversion formula at x = 1243, w = 4231: sum = -1",
        "inversion formula at x = 2134, w = 4231: sum = -1",
        "inversion formula at x = 2143, w = 4231: sum = 1",
        "inversion formula at x = 1234, w = 4312: sum = 1",
        "inversion formula at x = 1324, w = 4312: sum = -1",
        "inversion formula at x = 1234, w = 4321: sum = 2",
        "inversion formula at x = 1243, w = 4321: sum = -1",
        "inversion formula at x = 1324, w = 4321: sum = -1",
        "inversion formula at x = 2134, w = 4321: sum = -1",
        "inversion formula at x = 2143, w = 4321: sum = 1",
    ]


def test_kl_selfdual_reports_a_kl_polynomial_of_too_high_degree(monkeypatch):
    # P_{e,3412} = 1 + q becomes 1 + q + q^2, of degree 2 >= l(3412) / 2;
    # every row is built first, as a row built on the perturbed one (4312,
    # whose double coset of itself has the key e) fails its P_ww check.
    # The inversion witnesses come first, then the degree witnesses of the
    # right coset {1234, 1324} of e in the row of 3412
    store = _fresh_store_that_passes(monkeypatch)
    _add_to_stored_value(store, parse_perm("3412"), Perm.identity(4),
                         1 << 2 * store._width)
    (rep,) = check_suite(4, ["kl-selfdual"])
    assert rep.status == "fail"
    assert rep.witnesses == [
        "inversion formula at x = 1234, w = 3412: sum = q^2",
        "inversion formula at x = 1324, w = 3412: sum = -q^2",
        "inversion formula at x = 1234, w = 3421: sum = q^2",
        "inversion formula at x = 1324, w = 3421: sum = -q^2",
        "inversion formula at x = 1234, w = 4231: sum = q^2",
        "inversion formula at x = 1243, w = 4231: sum = -q^2",
        "inversion formula at x = 2134, w = 4231: sum = -q^2",
        "inversion formula at x = 2143, w = 4231: sum = q^2",
        "inversion formula at x = 1234, w = 4312: sum = q^2",
        "inversion formula at x = 1324, w = 4312: sum = -q^2",
        "inversion formula at x = 1234, w = 4321: sum = 2*q^2",
        "inversion formula at x = 1243, w = 4321: sum = -q^2",
        "inversion formula at x = 1324, w = 4321: sum = -q^2",
        "inversion formula at x = 2134, w = 4321: sum = -q^2",
        "inversion formula at x = 2143, w = 4321: sum = q^2",
        "deg P[1234,3412] too big",
        "deg P[1324,3412] too big",
    ]


def _store_with_perturbed_row(monkeypatch, w):
    """A fresh store of every row of S_n, installed as the row store of
    its rank, in which P_{e,w} has gained 1; no other row changes."""
    n = len(w)
    store = KLRowStore(n)
    for u in all_perms(n):
        store._packed_row(u)
    _add_to_stored_value(store, w, Perm.identity(n), 1)
    monkeypatch.setitem(importlib.import_module("heckelab.hecke")._stores,
                        n, store)
    frobenius_cprime.cache_clear()  # no memo answers from another store


def test_thm15_reports_a_perturbed_smooth_row(monkeypatch):
    # thm15 reads one w per orbit of {w, w^-1, w0 w w0, w0 w^-1 w0}; 2413
    # is the one smooth representative of S_4 that is not codominant
    w = next(w for w in orbit_representatives(smooth_perms(4))
             if smooth_reduce(w) != w)
    assert w == parse_perm("2413")
    _store_with_perturbed_row(monkeypatch, w)
    (rep,) = check_suite(4, ["thm15"])
    assert rep.status == "fail"
    assert rep.witnesses == [perm_to_str(w)]


def test_a_perturbed_row_the_checks_skip_breaks_the_orbit_symmetry(
        monkeypatch):
    # thm15, hpos and unimodal skip the row of 1423, smooth and not
    # codominant, as it is not the least of its orbit; the orbit test of
    # ch(B_w) still reads it
    reps = orbit_representatives(smooth_perms(4))
    w = next(w for w in smooth_perms(4)
             if w not in reps and smooth_reduce(w) != w)
    assert w == parse_perm("1423")
    _store_with_perturbed_row(monkeypatch, w)
    reports = check_suite(4, ["thm15", "hpos", "unimodal"])
    assert [rep.status for rep in reports] == ["pass"] * 3
    (orbit,) = [orbit for orbit in symmetry_orbits(4) if w in orbit]
    assert asymmetric_orbits(4) == [min(orbit)]


def test_cor44_reports_a_perturbed_codominant_row(monkeypatch):
    m = enumerate_hessenberg(4)[-1]
    w = codominant_of_hessenberg(m)
    assert w != Perm.identity(4)
    _store_with_perturbed_row(monkeypatch, w)
    (rep,) = check_suite(4, ["cor44"])
    assert rep.status == "fail"
    assert rep.witnesses == [hessenberg_to_str(m)]


def test_prop31_reports_a_perturbed_character_identity(monkeypatch):
    w, i = parse_perm("2314"), 1  # s w < w < w s, and n verified by prop31
    _store_with_perturbed_row(monkeypatch, w)
    (rep,) = check_suite(4, ["prop31"])
    assert rep.status == "fail"
    assert f"character identity failed at w={perm_to_str(w)}, s={i}" \
        in rep.witnesses


def test_prop31_reports_a_missing_distinguished_cover(monkeypatch):
    # w s_3 = 2431 is smooth, so w has exactly one cover z with z s_3 < z
    w, i = parse_perm("2413"), 3
    lab = importlib.import_module("heckelab.lab")
    covers = lab._descending_covers
    assert covers(w, i) == [parse_perm("2143")]
    monkeypatch.setattr(lab, "_descending_covers", lambda v, j: (
        [] if (v, j) == (w, i) else covers(v, j)))
    (rep,) = check_suite(4, ["prop31"])
    assert (rep.status, rep.witnesses) == ("fail", [
        f"smooth ws but 0 covers with zs < z at w={perm_to_str(w)}, s={i}"])
    monkeypatch.undo()
    (rep,) = check_suite(4, ["prop31"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_hpos_reports_a_character_that_is_not_h_positive():
    # ch(B_e) = s_3 + 2 s_21 + s_111 = h_111; a second s_111 = e_3 adds
    # h_111 - 2 h_21 + h_3, so the h_21 coefficient becomes -2
    e = Perm.identity(3)
    frobenius_cprime.cache_clear()
    ch = frobenius_cprime(e)  # the memoised value the check reads
    assert ch.polys[(1, 1, 1)] == (1,)
    ch.polys[(1, 1, 1)] = (2,)
    try:
        (rep,) = check_suite(3, ["hpos"])
        assert (rep.status, rep.witnesses) == ("fail", [
            {"w": "123", "partition": [2, 1], "coefficient": "-2"}])
    finally:
        ch.polys[(1, 1, 1)] = (1,)
    (rep,) = check_suite(3, ["hpos"])
    assert (rep.status, rep.witnesses) == ("pass", [])
    frobenius_cprime.cache_clear()


def test_unimodal_reports_a_perturbed_kl_polynomial():
    # P_{e,e} = 1 becomes 1 + q^2, so ch(B_e) becomes
    # (1 + q^2)(s_3 + 2 s_21 + s_111): every coefficient has an internal zero
    store = row_store(3)
    for u in all_perms(3):  # build every row before the one they start from
        store._packed_row(u)
    e = Perm.identity(3)
    q2 = 1 << 2 * store._width
    frobenius_cprime.cache_clear()
    _add_to_stored_value(store, e, e, q2)
    try:
        (rep,) = check_suite(3, ["unimodal"])
        assert (rep.status, rep.witnesses) == ("fail", [
            {"w": "123", "lambda": list(lam)} for lam in partitions(3)])
    finally:
        _add_to_stored_value(store, e, e, -q2)
        frobenius_cprime.cache_clear()
    (rep,) = check_suite(3, ["unimodal"])
    assert (rep.status, rep.witnesses) == ("pass", [])


def test_csf_oracle_reports_a_perturbed_batch_entry():
    from heckelab.csf import _batches, csf_batch
    batch = csf_batch(4)
    m = (2, 3, 4, 4)
    broken = dict(batch[m])
    broken[(1, 1, 1, 1)] += (1,)
    batch[m] = broken
    try:
        (rep,) = check_suite(4, ["csf-oracle"])
    finally:
        _batches.pop(4, None)
    assert rep.status == "fail"
    assert rep.witnesses == [hessenberg_to_str(m)]
    (rep,) = check_suite(4, ["csf-oracle"])
    assert rep.status == "pass", rep


def test_counterexample_positive_control():
    res = counterexample_search((2, 3, 3))
    assert res is not None
    assert res.m0 == (1, 3, 3) and res.m2 == (3, 3, 3) and res.shift == 1
    # the found pair really satisfies the modular identity
    lhs, rhs = modular_sides(res.m0, (2, 3, 3), res.m2)
    assert lhs == rhs


def test_counterexample_edgeless():
    assert counterexample_search((1, 2, 3)) is None


@pytest.mark.parametrize("m1", [(2, 1, 3), (4, 4, 4)])
def test_counterexample_rejects_a_non_hessenberg_m1(m1):
    with pytest.raises(ValueError):
        counterexample_search(m1)


def test_counterexample_every_triple_found():
    for n in (4, 5, 6):
        for m0, m1, m2, i in modular_triples(n):
            assert counterexample_search(m1) is not None, m1


def _scan_whole_batch(m1):
    """The default search as a scan of the whole rank: csf_batch(n),
    csf_index over all of it, then the edge-count filter on m0 and m2."""
    batch = csf_batch(len(m1))
    index = csf_index(batch)
    e1 = edge_count(m1)
    target = {lam: poly_mul((1, 1), p) for lam, p in batch[m1].items()}
    for m0, coeffs in batch.items():
        if edge_count(m0) != e1 - 1:
            continue
        residual = {lam: poly_add_scaled(target.get(lam, ()),
                                         coeffs.get(lam, ()), -1, 1)
                    for lam in target.keys() | coeffs.keys()}
        for m2 in index.get(csf_key(residual), ()):
            if edge_count(m2) == e1 + 1:
                return m0, m2
    return None


def _pair(res):
    return None if res is None else (res.m0, res.m2)


def test_counterexample_matches_the_whole_batch_scan(monkeypatch):
    csf_module = importlib.import_module("heckelab.csf")
    monkeypatch.setattr(csf_module, "_batches", {})
    ranks = [enumerate_hessenberg(n) for n in range(1, 7)]
    # the search computes its slices and keeps nothing in the memo
    found = [[_pair(counterexample_search(m1)) for m1 in ms] for ms in ranks]
    assert csf_module._batches == {}
    assert found == [[_scan_whole_batch(m1) for m1 in ms] for ms in ranks]


# sha256 of the JSON list of [m1, counterexample_search(m1),
# counterexample_search(m1, csf_batch(n))] for every Hessenberg m1 of rank
# n <= 6, recorded when the default and the general search were two loops
COUNTEREXAMPLES_S6_SHA256 = \
    "ffc7eefd2496c1c231fb43e805ad24c410375ebbbe1553fa796a8a39b1992bac"


def test_counterexample_golden_digest():
    rows = [[m1, counterexample_search(m1),
             counterexample_search(m1, csf_batch(n))]
            for n in range(1, 7) for m1 in enumerate_hessenberg(n)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == \
        COUNTEREXAMPLES_S6_SHA256


@pytest.mark.parametrize("m1", [(2, 6, 7, 7, 7, 7, 8, 8, 9),
                                (1, 3, 7, 8, 8, 8, 8, 9, 9),
                                (2, 7, 8, 8, 8, 8, 8, 9, 9)])
def test_counterexample_rank9_census_has_no_solution(m1):
    assert counterexample_search(m1) is None


def test_counterexample_rank9_positive_control():
    m0, m1, m2, _ = modular_triples(9)[0]
    res = counterexample_search(m1)
    assert res is not None and res.shift == 1
    # the modular triple is the first solution the scan meets
    assert (res.m0, res.m2) == (m0, m2)


def test_counterexample_general_excludes_degenerate():
    # the trivial (a, m0, m2) = (1, m1, m1) solution must not be reported
    res = counterexample_search((1, 2, 3), batch=csf_batch(3))
    assert res is None or (res.m0, res.m2) != ((1, 2, 3), (1, 2, 3))
    # nor one whose m0 at a = 1 is another function with the csf of m1:
    # (1, 3, 3) is the reversal of (2, 2, 3)
    assert counterexample_search((2, 2, 3), batch=csf_batch(3)) is None
    assert counterexample_search((1, 3, 3), batch=csf_batch(3)) is None


def test_decompose_smooth():
    d = decompose_codominant(parse_perm("3142"))
    assert d == {parse_perm("2341"): (1,)}
    e = Perm.identity(3)
    assert decompose_codominant(e) == {e: (1,)}


@pytest.mark.parametrize("n", [4, 5])
def test_decompose_singular(n):
    for w in all_perms(n):
        if w.is_smooth():
            continue
        d = decompose_codominant(w)
        assert d is not None
        assert verify_decomposition(w, d), (w, d)
        assert all(u.is_codominant() for u in d)
        for c in d.values():
            # a nonzero polynomial in q with nonnegative coefficients
            assert c and min(c) >= 0


@pytest.mark.parametrize("word", [
    range(40, 0, -1), [*range(2, 41), 1], [2, 1, *range(4, 41), 3]],
    ids=["w0", "cycle", "two-blocks"])
def test_decompose_of_a_smooth_w_at_rank_40(word):
    # a smooth w reduces to its codominant permutation with coefficient 1
    w = Perm(word)
    assert decompose_codominant(w) == {smooth_reduce(w): (1,)}


def test_decompose_out_of_budget_is_unknown(monkeypatch):
    # 34512 is singular with no Thm 1.6 step, so the search decides it;
    # with a budget of one node the search stops before any peeling
    w = parse_perm("34512")
    assert not w.is_smooth() and _thm16_step(w) is None
    assert decompose_codominant(w) is not None
    monkeypatch.setattr(importlib.import_module("heckelab.lab"),
                        "_SOLVE_BUDGET", 1)
    assert decompose_codominant(w) is None


def test_decompose_s8_counterexample_w():
    w = parse_perm("62754381")
    d = decompose_codominant(w)
    assert d == {parse_perm("26754381"): ONE_PLUS_Q}


def _thm16_candidates(w):
    """ws and sw, in that order, for each simple s with l(sws) = l(w) - 2,
    computed from the lengths."""
    n, out = len(w), []
    for i in range(1, n):
        s, ws = Perm.identity(n).times_simple(i), w.times_simple(i)
        if (s * ws).length() == w.length() - 2:
            out += [ws, s * w]
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_thm16_step_reads_the_length_rule_off_descent_sets(monkeypatch, n):
    # with no candidate smooth, the step tries every ws and sw that the
    # length rule admits, in the rule's order, and finds none
    tried = []
    monkeypatch.setattr(Perm, "is_smooth", lambda v: tried.append(v) or False)
    for w in all_perms(n):
        tried.clear()
        assert _thm16_step(w) is None
        assert tried == _thm16_candidates(w), w


def test_decompose_honest_solver_matches():
    from heckelab.lab import _positive_solve
    for w in all_perms(4):
        if not w.is_smooth():
            sol = _positive_solve(frobenius_cprime(w), 4)
            assert sol is not None, w
            assert verify_decomposition(w, sol), w


# sha256 of `hecke-lab --format <fmt> decompose --w W` stdout over all 120 W
# of S_5 in all_perms order; 6 of the 32 singular W have no Thm 1.6 step
# and are decided by _positive_solve
DECOMPOSE_S5_SHA256 = {
    "text":
        "f471726134c31b352b3917a2b3227397cc9032e3837ca9427ccecf93bafd55d8",
    "json":
        "566da96db7eeb1994e5acc49fd20f5d618bcaf5e83111a2edf8f9ac72593ccdf",
}


@pytest.mark.parametrize("fmt", sorted(DECOMPOSE_S5_SHA256))
def test_decompose_s5_golden_digest(fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes = {main(["--no-cache", "--format", fmt, "decompose", "--w",
                       perm_to_str(w)]) for w in all_perms(5)}
    assert codes == {0}
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == \
        DECOMPOSE_S5_SHA256[fmt]


@pytest.mark.parametrize("n", [3, 4])
def test_thm15_and_cor44_small(n):
    for name in ("thm15", "momentgraph", "cor44"):
        (rep,) = check_suite(n, [name])
        assert rep.status == "pass", rep


# sha256 of `hecke-lab --format json check --name all --n N` stdout; the
# rank-6 digest recorded once thm15 read one w per symmetry orbit
CHECK_ALL_JSON_SHA256 = {
    6: "95172367c90c41781afea78e238f33e124d859d933b216dcddee41b17a061ca8",
    7: "710a182daaa7da2b6149b71dcc98481d2ede69ad7cd050111a513017064c463b",
}


def check_all_json(n):
    """The reports printed by `--format json check --name all --n n`, whose
    stdout must match its recorded digest."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--no-cache", "--format", "json", "check", "--name",
                     "all", "--n", str(n)]) == 0
    text = out.getvalue()
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CHECK_ALL_JSON_SHA256[n]
    return [json.loads(line) for line in text.splitlines()]


def test_cor44_and_csf_oracle_exhaustive_n6():
    # every one of the 132 Hessenberg functions of rank 6, none sampled
    printed = {r["check"]: r for r in check_all_json(6)}
    cor44, oracle = printed["cor44"], printed["csf-oracle"]
    assert (cor44["status"], oracle["status"]) == ("pass", "pass")
    assert "on 132 Hessenberg functions" in cor44["details"]
    assert "on 132 graphs" in oracle["details"]


def test_check_suite_default_runs_the_checks_the_cli_prints_n7():
    # every check whose bound is >= 7, and nothing raises on the others;
    # the suite runs once, and its reports, one JSON line each as the CLI
    # prints them, match the CLI's digest (tests/test_bench_contract.py
    # runs the CLI at 7)
    reports = check_suite(7)
    assert [r.check for r in reports] == \
        ["prop31", "modular-law", "mn", "lemma22"]
    text = "".join(json.dumps(r.to_json(), sort_keys=True) + "\n"
                   for r in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        CHECK_ALL_JSON_SHA256[7]


def test_check_suite_unknown_name():
    with pytest.raises(ValueError):
        check_suite(3, ["nope"])
    with pytest.raises(ValueError):
        check_suite(9, ["hpos"])


def test_check_suite_refuses_a_rank_no_check_reaches():
    # running no check must not read as a pass
    with pytest.raises(ValueError, match="n must be at most 10"):
        check_suite(11)


def test_check_suite_reports_what_the_registered_check_returns(monkeypatch):
    # CHECKS is read at call time, names are checked before any check runs,
    # and a check with a witness fails
    def unexpected(n):
        raise AssertionError("a check ran before the names were checked")

    monkeypatch.setitem(CHECKS, "mn", unexpected)
    with pytest.raises(ValueError):
        check_suite(3, ["mn", "nope"])
    monkeypatch.setitem(CHECKS, "mn", lambda n: (["x"], f"rank {n}"))
    assert check_suite(3, ["mn"]) == [Report("mn", 3, "fail", ["x"],
                                             "rank 3")]


def test_every_check_has_a_perturbation_test():
    # a check that no test has seen fail could pass whatever it computes
    tests = [name for name in globals() if name.startswith("test_")]
    for check in CHECKS:
        prefix = "test_" + check.replace("-", "_")
        assert any(name.startswith(prefix) and "_reports_" in name
                   for name in tests), check


def test_report_json():
    (rep,) = check_suite(3, ["cor44"])
    data = rep.to_json()
    assert data["check"] == "cor44" and data["status"] == "pass"
    assert data["witnesses"] == []
    assert "n" in data
