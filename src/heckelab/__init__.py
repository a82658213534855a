"""
heckelab: exact computations with Kazhdan-Lusztig elements of the Hecke
algebra of S_n, their Frobenius characters, and chromatic quasisymmetric
functions of indifference graphs.

Everything is exact: integer polynomials in q, arbitrary precision
throughout.  The lab module bundles the exhaustive checkers
(smooth-to-codominant reduction, the modular relation dichotomy, the S_8
counterexample search) behind a small API, and the same operations are
exposed on the command line as ``hecke-lab``.

The names of ``__all__`` load on first use: ``heckelab.csf_batch`` imports
``heckelab.csf`` when it is first read, so ``import heckelab`` loads none
of the modules and a program pays only for the layers it uses.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# each exported name -> the module that defines it
_EXPORTS = {name: module for module, names in [
    ("qpoly", "LaurentQ"),
    ("permutations", "Perm NotSmoothError bruhat_leq coessential_set "
                     "hessenberg_of_smooth codominant_of_hessenberg "
                     "transpositions_below is_hessenberg enumerate_hessenberg "
                     "parse_perm perm_to_str parse_hessenberg "
                     "hessenberg_to_str all_perms smooth_perms"),
    ("hecke", "kl_polynomial"),
    ("symfunc", "SymmetricFunction partitions conjugate num_syt kostka omega "
                "positivity q_factorial_partition murnaghan_nakayama"),
    ("characters", "chi frobenius_cprime character_table min_class_rep "
                   "cycle_type"),
    ("csf", "IndifferenceGraph indifference_graph csf csf_oracle csf_batch "
            "csf_index edge_count counterexample_search CounterexampleResult"),
    ("lab", "MomentGraph moment_graph smooth_reduce ModularRelation "
            "modular_relation modular_triples decompose_codominant "
            "verify_decomposition check_suite Report"),
    ("cache", "Cache"),
] for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__),
                                      name)
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


class _Package(ModuleType):
    """The package's module type.  Importing a submodule binds it as an
    attribute of the package, which would hide the function ``csf`` behind
    the module ``csf``; an exported name is never bound to a module."""

    def __setattr__(self, name, value):
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
