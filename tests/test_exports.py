"""Every name a heckelab module lists in __all__ exists and is defined in
that module, so a name has one import path and a name moved out of the
library leaves no stale entry.  No function or method is kept only for the
tests unless it is pinned below with its reason."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import heckelab

# __main__ runs the command line when imported
MODULES = [importlib.import_module(f"heckelab.{info.name}")
           for info in pkgutil.iter_modules(heckelab.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("module",
                         [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_name_in_all_is_defined_in_its_module():
    # a name bound by an import is another module's name: listing it would
    # give it a second import path
    foreign = []
    for path in pathlib.Path(heckelab.__file__).parent.glob("*.py"):
        defined, listed = set(), []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                defined |= names
                if "__all__" in names:
                    listed = [c.value for c in ast.walk(node.value)
                              if isinstance(c, ast.Constant)]
        foreign += [f"{path.stem}.{name}" for name in listed
                    if name not in defined]
    assert foreign == []


# functions and methods that no code of heckelab names, each with its reason
UNNAMED_IN_SRC = {
    "permutations.Perm.descents": "test reference for the descent cosets",
    "permutations.Perm.reduced_word": "test reference for the T-basis and "
                                      "seminormal oracles",
    "permutations.Perm.is_codominant": "test reference for the codominant "
                                       "decompositions",
    "permutations.Perm.lower_covers": "bench/tracer.py wraps it",
    "permutations.bruhat_leq": "test reference for the momentgraph check's "
                               "rank table; bench/tracer.py wraps it",
    "cache.Cache.load": "bench/tracer.py wraps it",
    "characters.character_table": "bench/tracer.py wraps it",
    "csf.csf_oracle": "bench/tracer.py wraps it",
    "symfunc.num_syt": "test reference for the dimensions of the characters",
    "symfunc.q_factorial_partition": "test reference for the csf of "
                                     "complete graphs",
    "lab.verify_decomposition": "the tests verify decompositions with it",
}


def test_no_function_is_kept_only_for_the_tests():
    # a name counts as used when the code of some module refers to it: as
    # a variable, an attribute, an import or a string, but not as a string
    # of a module's __all__, which lists a name without using it; dunders
    # are called by Python, not by name
    trees = {path.stem: ast.parse(path.read_text())
             for path in pathlib.Path(heckelab.__file__).parent.glob("*.py")}
    listed = {id(const) for tree in trees.values() for node in tree.body
              if isinstance(node, ast.Assign)
              and any(isinstance(target, ast.Name) and target.id == "__all__"
                      for target in node.targets)
              for const in ast.walk(node.value)}
    used = set()
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
                                  "MAX_DECOMPOSE_N", "MAX_PERM_N"}}


# hecke's stored row layout is read only through KLRowStore's readers
# (row, polynomial, _distinct, _cosets), and symfunc's transition tables
# only through SymmetricFunction.convert
PRIVATE_TO = {
    "hecke.py": {"_packed", "_packed_row", "_lengths", "_keys", "_polys",
                 "_width", "_decode", "_right_cosets", "_shape"},
    "symfunc.py": {"_transition", "_schur_matrix", "_kostka_matrix"},
}


def test_only_the_owner_names_its_private_tables():
    named = {}
    for path in pathlib.Path(heckelab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.alias):
                names = {node.name, node.asname}
            else:
                continue
            for owner, private in PRIVATE_TO.items():
                if path.name != owner and names & private:
                    named.setdefault(path.name, set()).update(names & private)
    assert named == {}
