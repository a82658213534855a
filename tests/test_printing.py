"""One sha256 over the text, LaTeX and JSON printing of the values the
package returns: every KL polynomial of S_5, every chi(lam, w) of S_4, and
ch(B_w) of S_4 in each basis (the p basis prints Fraction coefficients).
A polynomial prints through heckelab.qpoly's poly_str, poly_latex and
poly_json, and a SymmetricFunction through its own methods; a change to
either changes the digest."""

import hashlib
import json

from heckelab.characters import chi, frobenius_cprime
from heckelab.hecke import kl_polynomial, row_store
from heckelab.permutations import all_perms
from heckelab.qpoly import poly_json, poly_latex, poly_str
from heckelab.symfunc import BASES, partitions

DIGEST = "d56d7a8b1986b2a6b819d86cee20200437f561e7129e30910ff3065f8b07eeb9"


def printed_values():
    for w in all_perms(5):
        for z in sorted(row_store(5).row(w)):
            yield kl_polynomial(z, w)
    for w in all_perms(4):
        for lam in partitions(4):
            yield chi(lam, w)
    for w in all_perms(4):
        f = frobenius_cprime(w)
        for basis in BASES:
            yield f.convert(basis)


def printed(v) -> tuple:
    """Text, LaTeX and JSON of a tuple polynomial or a SymmetricFunction."""
    if type(v) is tuple:
        return poly_str(v), poly_latex(v), poly_json(v)
    return str(v), v.latex(), v.to_json()


def printing_digest() -> str:
    digest = hashlib.sha256()
    for v in printed_values():
        text, latex, data = printed(v)
        for line in (text, latex, json.dumps(data, sort_keys=True)):
            digest.update(line.encode() + b"\n")
    return digest.hexdigest()


def test_printing_digest():
    assert printing_digest() == DIGEST
