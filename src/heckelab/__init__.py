"""
heckelab: exact computations with Kazhdan-Lusztig elements of the Hecke
algebra of S_n, their Frobenius characters, and chromatic quasisymmetric
functions of indifference graphs.

Everything is exact: integer Laurent polynomials in q^(1/2), arbitrary
precision throughout.  The lab module bundles the exhaustive checkers
(smooth-to-codominant reduction, the modular relation dichotomy, the S_8
counterexample search) behind a small API, and the same operations are
exposed on the command line as ``hecke-lab``.
"""

from .qpoly import LaurentQ, PolyProps, q_factorial, q_integer
from .permutations import (
    Perm, NotSmoothError, bruhat_leq, coessential_set, hessenberg_of_smooth,
    codominant_of_hessenberg, transpositions_below, is_hessenberg,
    enumerate_hessenberg, parse_perm, perm_to_str, parse_hessenberg,
    hessenberg_to_str, all_perms,
)
from .hecke import KLTable, kl_table, kl_polynomial, mu
from .symfunc import (
    SymmetricFunction, partitions, conjugate, num_syt, kostka, omega,
    positivity, q_factorial_partition,
)
from .characters import (
    chi, frobenius_cprime, character_table,
    murnaghan_nakayama, min_class_rep, cycle_type,
)
from .csf import (
    IndifferenceGraph, indifference_graph, csf, csf_oracle, csf_batch,
    csf_index, edge_count,
)
from .lab import (
    MomentGraph, moment_graph, smooth_reduce, ModularRelation,
    modular_relation, modular_triples, counterexample_search,
    CounterexampleResult, decompose_codominant, verify_decomposition,
    check_suite, Report, smooth_perms,
)
from .cache import Cache

__version__ = "0.1.0"
