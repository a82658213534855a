"""Every name a heckelab module lists in __all__ exists, and the package
star-imports: a name moved out of the library must leave no stale entry.
The package's own exports load on first use and are the objects of their
home modules.  No function or method is kept only for the tests unless it
is pinned below with its reason."""

import ast
import importlib
import pathlib
import pkgutil
import types

import pytest

import heckelab

# __main__ runs the command line when imported
MODULES = [importlib.import_module(f"heckelab.{info.name}")
           for info in pkgutil.iter_modules(heckelab.__path__)
           if info.name != "__main__"]

# the package's public names: `from heckelab import *` binds exactly these
PUBLIC = {
    "LaurentQ",
    "Perm", "NotSmoothError", "bruhat_leq", "coessential_set",
    "hessenberg_of_smooth", "codominant_of_hessenberg", "transpositions_below",
    "is_hessenberg", "enumerate_hessenberg", "parse_perm", "perm_to_str",
    "parse_hessenberg", "hessenberg_to_str", "all_perms",
    "kl_polynomial",
    "SymmetricFunction", "partitions", "conjugate", "num_syt", "kostka",
    "omega", "positivity", "q_factorial_partition", "murnaghan_nakayama",
    "chi", "frobenius_cprime", "character_table", "min_class_rep",
    "cycle_type",
    "IndifferenceGraph", "indifference_graph", "csf", "csf_oracle",
    "csf_batch", "csf_index", "edge_count",
    "MomentGraph", "moment_graph", "smooth_reduce", "ModularRelation",
    "modular_relation", "modular_triples", "counterexample_search",
    "CounterexampleResult", "decompose_codominant", "verify_decomposition",
    "check_suite", "Report", "smooth_perms",
    "Cache",
}


@pytest.mark.parametrize("module",
                         [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_star_import():
    namespace = {}
    exec("from heckelab import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == PUBLIC
    assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_exports_are_the_objects_of_their_home_modules():
    assert set(heckelab.__all__) == PUBLIC
    assert set(dir(heckelab)) >= PUBLIC
    for name in heckelab.__all__:
        home = heckelab._EXPORTS[name]
        value = getattr(heckelab, name)
        assert value is getattr(
            importlib.import_module(f"heckelab.{home}"), name), name
        assert getattr(value, "__module__", "heckelab." + home) == \
            "heckelab." + home, name


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        heckelab.no_such_name  # noqa: B018


# functions and methods that no code of heckelab names, each with its reason
UNNAMED_IN_SRC = {
    "permutations.Perm.descents": "test reference for the descent cosets",
    "permutations.Perm.reduced_word": "test reference for the T-basis and "
                                      "seminormal oracles",
    "permutations.Perm.is_codominant": "test reference for the codominant "
                                       "decompositions",
    "permutations.Perm.lower_covers": "bench/tracer.py wraps it",
}


def test_no_function_is_kept_only_for_the_tests():
    # a name counts as used when the code of some module refers to it: as
    # a variable, an attribute, an import or a string, but not as a string
    # of a module's __all__, which lists a name without using it; a package
    # export is used by name; dunders are called by Python, not by name
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(heckelab.__file__).parent.glob("*.py")}
    listed = {id(const) for tree in trees.values() for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)
              for const in ast.walk(node.value)}
    used = set(heckelab._EXPORTS)
    for tree in trees.values():
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                used.add(node.value)
    unnamed = set()
    for module, tree in trees.items():
        for node in tree.body:
            is_class = isinstance(node, ast.ClassDef)
            prefix = f"{module}.{node.name}." if is_class else f"{module}."
            unnamed |= {prefix + f.name
                        for f in (node.body if is_class else [node])
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("__")
                        and f.name not in used}
    assert unnamed == set(UNNAMED_IN_SRC)


def test_only_the_cli_sets_input_limits():
    # every MAX_* limit on the size of an input lives in cli.py; the library
    # computes at any rank it is asked for
    binders = {}
    for path in pathlib.Path(heckelab.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                names = [sub.id for sub in ast.walk(node)
                         if isinstance(sub, ast.Name)
                         and isinstance(sub.ctx, ast.Store)]
                names += [sub.asname or sub.name for sub in ast.walk(node)
                          if isinstance(sub, ast.alias)]
            for name in names:
                if name.startswith("MAX_"):
                    binders.setdefault(path.name, set()).add(name)
    assert binders == {"cli.py": {"MAX_HESSENBERG_N", "MAX_SEARCH_N",
                                  "MAX_ROW_N", "MAX_KL_ENTRY_N",
                                  "MAX_DECOMPOSE_N"}}
