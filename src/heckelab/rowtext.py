"""
The text of a KL row, as ``kl --w`` and ``cprime --w`` print it.

``export`` reads a row as the right cosets that ``KLRowStore._cosets``
lists and yields its text one length l(z) at a time.  Each value of a
coset's minimal element becomes one character, and each entry is built
once, as its final string: z, then the suffix its polynomial renders,
attached once per right coset to the arrangements of the coset's last
descent run.  ``_arrangements`` writes those grouped by inversion count
with str.translate, replace and split, so the work per entry is done in
C rather than by one join per arrangement.
Strings of one length whose z differ sort like the z, so each length is
sorted as it is, joined and released before the next.  Only the printers
load this module: the checks never compile it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .hecke import KLRowStore, _runs
from .permutations import Perm

__all__ = ["export"]


# the rows of one rank arrange the same runs again and again; a key is a
# set of values of one rank (or chr(0)..chr(m-2)), so at most 2^n + n
@lru_cache(maxsize=None)
def _arrangements(labels: str, comma: str) -> tuple:
    """The arrangements of labels, increasing characters, one string per
    inversion count k = 0, 1, ...: those with k inversions in increasing
    order, separated by chr(31), each its characters, each followed by
    comma.  Built from those of chr(0)..chr(m-2) by putting each label
    first (its index counts its inversions) and relabelling the rest."""
    m = len(labels)
    if m == 1:
        return (labels + comma,)
    index = "".join(map(chr, range(m - 1)))
    rest = _arrangements(index, comma)
    heads = [c + comma for c in labels]
    others = [str.maketrans(index, labels[:i] + labels[i + 1:])
              for i in range(m)]
    return tuple("\x1f".join(
        heads[i] + rest[k - i].translate(others[i]).replace(
            "\x1f", "\x1f" + heads[i])
        for i in range(max(0, k - len(rest) + 1), min(k, m - 1) + 1))
        for k in range(m * (m - 1) // 2 + 1))


def export(store: KLRowStore, y: Perm, render, sep: str):
    """Yield sep.join(before + z + after) over the row of y in (length, z)
    order, z as perm_to_str prints it and (before, after) =
    render(coefficients of P_{z,y}) once per distinct polynomial, whose
    strings hold no control character: one piece per length, sep between
    pieces.  Unless two polynomials render two befores, an entry is z +
    after and a piece is joined with sep + before; else before follows a
    NUL in the entry and moves in front of z."""
    n, comma = len(y), "," * (len(y) > 9)
    rendered = {p: render(c) for p, c in store._distinct(y).items()}
    befores = {before for before, _ in rendered.values()}
    before = befores.pop() if len(befores) == 1 else None
    suffix = {p: ("\1" + a if comma else a) + (
                  "" if before is not None else "\0" + b)
              for p, (b, a) in rendered.items()}
    # above rank 9 each value is followed by a comma and those from 10 up
    # are chr(117 + v), above "9", so the strings still sort like the z; a
    # piece drops the comma after each z, marked by chr(1), and writes
    # those values out
    code = [chr(48 + v if v < 10 else 117 + v) + comma for v in range(n + 1)]

    def arranged(tokens: tuple, tail: str):
        # [a + tail] over the arrangements a of tokens, by inversions
        joint = tail + "\x1f"
        return ((text.replace("\x1f", joint) + tail).split("\x1f") for text
                in _arrangements("".join([t[0] for t in tokens]), comma))

    # the last run is arranged in place, after each arrangement of the runs
    # before it and the stretches that follow them
    spans = _runs(y) or ((0, 1),)
    (start, _), (lo, hi) = spans[0], spans[-1]
    first, stops = spans[:-1], [a for a, _ in spans[1:]]
    by_length = [[] for _ in range(y.length() + 1)]
    for lr, r, p in store._cosets(y):
        r = [code[v] for v in r]
        xs = [(lr, "".join(r[:start]))]
        for (a, b), c in zip(first, stops):
            xs = [(at + k, x + z) for k, texts in enumerate(
                      arranged(r[a:b], "".join(r[b:c])))
                  for at, x in xs for z in texts]
        for k, texts in enumerate(
                arranged(r[lo:hi], "".join(r[hi:]) + suffix[p])):
            for at, x in xs:
                by_length[at + k] += map(x.__add__, texts) if x else texts
    # [e, y] is graded: every length up to l(y) has entries
    for k in range(len(by_length)):
        if k:
            yield sep
        bucket, by_length[k] = by_length[k], None
        bucket.sort()
        if before is not None:
            piece = before + (sep + before).join(bucket)
        else:
            piece = sep.join([b + z for z, _, b in
                              map(str.partition, bucket, repeat("\0"))])
        del bucket
        if comma:
            piece = piece.replace(",\1", "")
            for v in range(10, n + 1):
                piece = piece.replace(chr(117 + v), str(v))
        yield piece
