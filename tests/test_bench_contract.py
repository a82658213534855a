"""The benchmark runs fixed ``hecke-lab`` command lines and verifies their
output; every workload it declares must run here and pass its own
verifier.  The workloads and verifiers are read from bench/ and nothing
there is changed."""

import os
import sys

import pytest

import heckelab
from heckelab import lab
from heckelab.cli import main

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    heckelab.__file__))), "bench")
sys.path.insert(0, BENCH)
try:
    import verify
    import workloads
finally:
    sys.path.remove(BENCH)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return verify.process(code, out.out, out.err), out.out


def test_setup_command_prints_one(capsys):
    problems, out = _run(capsys, workloads.SETUP)
    assert (problems, out) == ([], "1\n")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_commands_pass_their_checks(capsys, tmp_path, name):
    wl = workloads.build(name, workloads.DEFAULT_SEED, lab.CHECK_BOUNDS)
    cache = tmp_path / "cache"
    cache.mkdir()
    # the base flags of every benchmarked command: one worker, and the
    # disk cache of the workload or none
    base = ["--threads", "1"] + (["--no-cache"] if wl.cache == "none"
                                 else ["--cache-dir", str(cache)])
    for cmd in wl.commands:
        problems, out = _run(capsys, base + cmd.argv)
        assert problems + cmd.check(out) == [], cmd.argv
    assert list(cache.iterdir()) == []
