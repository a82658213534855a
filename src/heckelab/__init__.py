"""
heckelab: exact computations with Kazhdan-Lusztig elements of the Hecke
algebra of S_n, their Frobenius characters, and chromatic quasisymmetric
functions of indifference graphs.

Everything is exact: integer polynomials in q, arbitrary precision
throughout.  The lab module bundles the exhaustive checkers
(smooth-to-codominant reduction, the modular relation dichotomy, the S_8
counterexample search) behind a small API, and the same operations are
exposed on the command line as ``hecke-lab``.

Import each name from the module that defines it (``from heckelab.lab
import check_suite``); ``import heckelab`` loads none of the modules.
"""

__version__ = "0.1.0"
