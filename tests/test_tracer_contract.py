"""The benchmark's tracer wraps heckelab functions and methods by name;
a traced command runs only while every one of those names exists."""

import json
import os
import subprocess
import sys

import heckelab

SRC = os.path.dirname(os.path.dirname(heckelab.__file__))
TRACER = os.path.join(os.path.dirname(SRC), "bench", "tracer.py")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def test_tracer_installs_on_every_name_it_wraps(tmp_path):
    out = tmp_path / "trace.json"
    env = _env()
    proc = subprocess.run(
        [sys.executable, TRACER, str(out), "--", "hessenberg", "--n", "1"],
        capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout == "1\n"
    tree = json.loads(out.read_text())["tree"]
    assert tree["children"]["permutations.enumerate_hessenberg"]["calls"] == 1


def test_traced_check_prints_what_the_untraced_one_prints(tmp_path):
    # the momentgraph check compares the rank criterion with the closed form
    # transpositions_below, whose span the traced run must show beneath the
    # check's own
    out = tmp_path / "trace.json"
    env = _env()
    args = ["--format", "json", "check", "--name", "all", "--n", "3"]
    traced = subprocess.run([sys.executable, TRACER, str(out), "--", *args],
                            capture_output=True, text=True, env=env,
                            cwd=tmp_path)
    plain = subprocess.run([sys.executable, "-m", "heckelab", *args],
                           capture_output=True, text=True, env=env,
                           cwd=tmp_path)
    assert (traced.returncode, traced.stderr) == (0, ""), traced.stderr
    assert (plain.returncode, plain.stderr) == (0, "")
    assert traced.stdout == plain.stdout
    check = json.loads(out.read_text())["tree"]["children"][
        "lab.check.momentgraph"]
    assert check["children"]["permutations.transpositions_below"]["calls"] > 0
