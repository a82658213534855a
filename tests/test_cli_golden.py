"""Byte-for-byte stdout of a fixed list of commands, against outputs
recorded in golden_cli.json.

Regenerate the file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from heckelab.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    ["kl", "--w", "3412"],
    ["kl", "--w", "4231", "--z", "e"],
    ["cprime", "--w", "321"],
    ["cprime", "--w", "3412"],
    ["chi", "--lambda", "2,1", "--w", "321"],
    ["chi", "--lambda", "3,1", "--w", "4231"],
    *(["ch", "--w", "3412", "--basis", basis] for basis in "mehps"),
    ["ch", "--w", "4231"],
    ["csf", "--m", "2,3,3"],
    ["csf", "--m", "2,3,4,4", "--basis", "s"],
    ["modular", "--w", "231", "--s", "1"],
    ["modular", "--w", "3142", "--s", "2"],
    *([command, "--w", w] for command in ("smooth-reduce", "moment-graph")
      for w in ("3142", "245361", "2,1,4,3,6,5,8,7,10,9")),
    ["decompose", "--w", "4231"],
    ["decompose", "--w", "3412"],
    ["counterexample", "--m", "2,3,3"],
    ["check", "--name", "all", "--n", "4"],
]
CASES = [["--format", fmt, *argv] for argv in COMMANDS
         for fmt in ("text", "json", "latex")]


def stdout_of(argv, options=("--no-cache",)) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*options, *argv])
    return out.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert stdout_of(argv) == golden[" ".join(argv)]


def test_cache_options_change_nothing(tmp_path, monkeypatch):
    # --no-cache and --cache-dir are parsed and ignored: every command
    # prints the same with either or neither, and writes no file
    cache, cwd = tmp_path / "cache", tmp_path / "cwd"
    cache.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv in CASES:
        outs = {stdout_of(argv, options) for options in
                (["--no-cache"], ["--cache-dir", str(cache)], [])}
        assert len(outs) == 1, argv
    assert list(cache.iterdir()) == list(cwd.iterdir()) == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({" ".join(argv): stdout_of(argv)
                                  for argv in CASES}, indent=1) + "\n")
