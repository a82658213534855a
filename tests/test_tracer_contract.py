"""The benchmark's tracer wraps heckelab functions and methods by name;
a traced command runs only while every one of those names exists."""

import json
import os
import subprocess
import sys

import heckelab

SRC = os.path.dirname(os.path.dirname(heckelab.__file__))
TRACER = os.path.join(os.path.dirname(SRC), "bench", "tracer.py")


def test_tracer_installs_on_every_name_it_wraps(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, TRACER, str(out), "--", "hessenberg", "--n", "1"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "1\n"
    tree = json.loads(out.read_text())["tree"]
    assert tree["children"]["permutations.enumerate_hessenberg"]["calls"] == 1
