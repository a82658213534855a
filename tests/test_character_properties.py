"""Seeded property tests of chi^lambda(T_w) on random w in S_7 and S_8,
beyond the ranks the seminormal oracle reaches."""

from hypothesis import given, settings, strategies as st

from heckelab.characters import chi, cycle_type
from heckelab.combinat import partitions
from heckelab.permutations import Perm
from heckelab.symfunc import murnaghan_nakayama

perms = st.sampled_from([7, 8]).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(Perm)

seeded = settings(derandomize=True, database=None, deadline=None,
                  max_examples=50)


@seeded
@given(perms)
def test_q1_is_murnaghan_nakayama(w):
    mu = cycle_type(w)
    for lam in partitions(len(w)):
        assert sum(chi(lam, w)) == murnaghan_nakayama(lam, mu), lam


@seeded
@given(perms)
def test_inverse_has_the_same_character(w):
    w_inv = w.inverse()
    for lam in partitions(len(w)):
        assert chi(lam, w) == chi(lam, w_inv), lam


@seeded
@given(perms)
def test_cyclic_shift_keeps_the_character(w):
    n, lw = len(w), w.length()
    for i in range(1, n):
        s = Perm.identity(n).times_simple(i)
        sws = s * w * s
        if sws.length() != lw:
            continue
        for lam in partitions(n):
            assert chi(lam, sws) == chi(lam, w), (i, lam)


@seeded
@given(perms)
def test_degree_at_most_length(w):
    lw = w.length()
    for lam in partitions(len(w)):
        assert len(chi(lam, w)) <= lw + 1, lam
