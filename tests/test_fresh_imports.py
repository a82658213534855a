"""What a fresh interpreter loads: importing heckelab loads none of its
modules, each hecke-lab command loads only the layers it runs, a module
and a function of the same name each have their own import path, and every
--help works."""

import argparse
import json
import os
import subprocess
import sys

import pytest

import heckelab
from heckelab.cli import build_parser

SRC = os.path.dirname(os.path.dirname(heckelab.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")])))

# runs main(argv) with its output discarded, then prints the exit code and
# the heckelab modules it loaded
PROBE = """
import contextlib, io, json, sys
from heckelab.cli import main
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("heckelab.")
                               or m in ("dataclasses", "inspect",
                                        "fractions", "decimal",
                                        "concurrent.futures"))]))
"""

LAYERS = {"heckelab." + name for name in
          ("hecke", "qpoly", "symfunc", "characters", "csf", "lab")}


def python(*argv) -> str:
    """The stdout of a new interpreter run with argv, importing heckelab
    from this source tree; it must exit 0 with nothing on stderr."""
    proc = subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def loaded(*argv, code=0) -> set:
    """The heckelab modules, and dataclasses, inspect, fractions, decimal
    and concurrent.futures if loaded, that main(argv) leaves in
    sys.modules; main must return code."""
    got, modules = json.loads(python("-c", PROBE, "--no-cache", *argv))
    assert got == code, argv
    return set(modules)


def test_import_loads_no_module():
    assert python("-c", "import sys, heckelab\n"
                        "print([m for m in sys.modules if 'heckelab' in m])"
                  ) == "['heckelab']\n"


def test_csf_names_the_module_and_the_function_by_import_path():
    assert python("-c", "import types\n"
                        "import heckelab.csf as csf\n"
                        "from heckelab.csf import csf as function\n"
                        "print(isinstance(csf, types.ModuleType), "
                        "function is csf.csf)") == "True True\n"


def test_hessenberg_loads_no_layer():
    assert loaded("hessenberg", "--n", "2") & LAYERS == set()


def test_moment_graph_loads_no_layer():
    # the transpositions below w are read off permutations alone
    assert loaded("moment-graph", "--w", "3142") & LAYERS == set()


@pytest.mark.parametrize("argv", [
    ["hessenberg", "--n", "2"], ["kl", "--w", "321"],
    ["check", "--name", "mn", "--n", "3"], ["counterexample", "--m", "2,3,3"],
    ["counterexample", "--m", "2,3,3", "--general"]], ids=" ".join)
def test_no_command_loads_the_cache(argv):
    # the general search builds its csf batch in memory too
    assert "heckelab.cache" not in loaded(*argv)


def test_general_search_starts_no_process_pool():
    # the csf batch of the rank is built in the calling process
    assert "concurrent.futures" not in loaded(
        "--threads", "1", "counterexample", "--m", "2,3,3", "--general")


@pytest.mark.parametrize("command", ["kl", "cprime"])
def test_kl_rows_load_only_hecke_and_qpoly(command):
    modules = loaded(command, "--w", "321")
    assert modules & LAYERS == {"heckelab.hecke", "heckelab.qpoly"}
    # dataclasses imports inspect, which neither command needs
    assert modules & {"dataclasses", "inspect"} == set()
    # fractions imports decimal; no KL row or its printing holds a Fraction
    assert modules & {"fractions", "decimal"} == set()


@pytest.mark.parametrize("argv", [
    ["kl", "--w", "321"], ["cprime", "--w", "321"],
    ["kl", "--w", "321", "--z", "e"], ["ch", "--w", "321"],
    ["check", "--name", "all", "--n", "4"]], ids=" ".join)
def test_only_whole_rows_load_the_row_printer(argv):
    # a process that prints no whole row never compiles heckelab.rowtext
    assert ("heckelab.rowtext" in loaded(*argv)) == (
        argv[0] in ("kl", "cprime") and "--z" not in argv)


def test_counterexample_loads_no_kl_or_character_layer():
    modules = loaded("counterexample", "--m", "2,3,3")
    assert modules & {"heckelab.hecke", "heckelab.characters",
                      "heckelab.lab"} == set()
    assert modules & {"dataclasses", "inspect"} == set()


@pytest.mark.parametrize("argv", [
    ["check", "--name", "all", "--n", "6"], ["kl", "--w", "321"]],
    ids=" ".join)
def test_latex_refused_before_any_layer_loads(argv):
    assert loaded("--format", "latex", *argv, code=2) & LAYERS == set()


@pytest.mark.parametrize("argv", [
    ["check", "--name", "all", "--n", "4"], ["counterexample", "--m", "2,3,3"]],
    ids=" ".join)
def test_checks_and_searches_load_no_fractions(argv):
    # fractions imports decimal; only a conversion into p makes a Fraction
    assert loaded(*argv) & {"fractions", "decimal"} == set()


def test_check_loads_no_dataclasses():
    modules = loaded("check", "--name", "mn", "--n", "3")
    assert "heckelab.lab" in modules
    assert modules & {"dataclasses", "inspect"} == set()


def _subcommands() -> list:
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return sorted(action.choices)


@pytest.mark.parametrize("command", [""] + _subcommands(),
                         ids=lambda command: command or "top")
def test_help(command):
    argv = [command, "--help"] if command else ["--help"]
    assert python("-m", "heckelab", *argv).startswith("usage: hecke-lab")
