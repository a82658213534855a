"""Tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import verify
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reports(statuses: dict, n: int) -> str:
    return "\n".join(json.dumps({"check": name, "n": n, "status": status,
                                 "witnesses": [], "details": ""})
                     for name, status in statuses.items())


def test_check_reports_accepts_passes():
    out = _reports({"mn": "pass", "prop31": "pass"}, 7)
    assert verify.check_reports(out, 7, ["mn", "prop31"]) == []


@pytest.mark.parametrize("statuses, n", [
    ({"mn": "fail", "prop31": "pass"}, 7),   # doctored verdict
    ({"mn": "pass"}, 7),                      # missing report
    ({"mn": "pass", "prop31": "pass", "hpos": "pass"}, 7),  # unexpected
    ({"mn": "pass", "prop31": "pass"}, 6),   # wrong rank
])
def test_check_reports_rejects(statuses, n):
    out = _reports(statuses, n)
    assert verify.check_reports(out, 7, ["mn", "prop31"])


def test_check_reports_rejects_non_json():
    assert verify.check_reports("[PASS] mn (n=7): ok", 7, ["mn"])


def test_process_rejects_traceback_and_exit_code():
    tb = "Traceback (most recent call last):\n  File ...\nKeyError: 'n'\n"
    assert verify.process(0, "", "") == []
    assert verify.process(0, "", tb)
    assert verify.process(1, "", "")


def test_search_verdict():
    assert verify.search_not_found('{"found": false, "m1": "2"}') == []
    assert verify.search_not_found('{"found": true, "m1": "2"}')
    assert verify.search_not_found("NOT FOUND")


def _row(w: str, polys: dict) -> str:
    return json.dumps({"n": len(w), "entries": [[z, w, p]
                                               for z, p in polys.items()]})


# the row of the smooth permutation 1432 of S_4: every P_{z,w} is 1
ROW_1432 = {z: {"0": 1} for z in
            ["1234", "1243", "1324", "1342", "1423", "1432"]}
# the first singular permutation, 3412: P_{e,w} = P_{s2,w} = 1 + q
ROW_3412 = {"1234": {"0": 1, "1": 1}, "1324": {"0": 1, "1": 1},
            "2134": {"0": 1}, "1243": {"0": 1}, "3124": {"0": 1},
            "2314": {"0": 1}, "1342": {"0": 1}, "1423": {"0": 1},
            "2143": {"0": 1}, "3142": {"0": 1}, "2413": {"0": 1},
            "3214": {"0": 1}, "1432": {"0": 1}, "3412": {"0": 1}}


def test_kl_row_accepts_true_rows():
    assert verify.kl_row(_row("1432", ROW_1432), "1432") == []
    assert verify.kl_row(_row("3412", ROW_3412), "3412") == []


@pytest.mark.parametrize("z, poly", [
    ("1234", {"0": 2, "1": 1}),   # constant term not 1
    ("1234", {"0": 1, "1": -1}),  # negative coefficient
    ("1324", {"0": 1, "2": 1}),   # 2 deg = 4 >= l(w) - l(z) = 3
    ("3412", {"0": 1, "1": 1}),   # P_{w,w} != 1
    ("1234", {"0": 1, "1/2": 1}),  # a half power
])
def test_kl_row_rejects_wrong_entry(z, poly):
    row = dict(ROW_3412, **{z: poly})
    assert verify.kl_row(_row("3412", row), "3412")


def test_kl_row_rejects_wrong_top_and_w0_size():
    assert verify.kl_row(_row("3412", ROW_1432), "3412")
    w0 = "87654321"
    partial = {z: {"0": 1} for z in ["12345678", w0]}
    assert any("40320" in p or "entries" in p
               for p in verify.kl_row(_row(w0, partial), w0))


def test_unchanged():
    snap = {"a.json": [3, 1, "x"]}
    assert verify.unchanged(snap, dict(snap)) == []
    assert verify.unchanged(snap, {"a.json": [3, 2, "x"]})
    assert verify.unchanged(snap, dict(snap, **{"b.json": [1, 1, "y"]}))


def _node(calls, total, **children):
    return {"calls": calls, "total": total, "children": children}


def test_self_times_on_hand_built_tree():
    # main -> a(10s) -> b(4s) -> a(1s); a -> c(2s); and a top-level c(3s)
    tree = _node(0, 0.0,
                 a=_node(1, 10.0, b=_node(2, 4.0, a=_node(3, 1.0)),
                         c=_node(1, 2.0)),
                 c=_node(4, 3.0))
    own = tracer.self_times(tree)
    assert own["a"] == [4, pytest.approx(4.0 + 1.0)]
    assert own["b"] == [2, pytest.approx(3.0)]
    assert own["c"] == [5, pytest.approx(5.0)]
    assert tracer.covered(own) == pytest.approx(13.0)
    total = tracer.new_node()
    tracer.merge(total, tree)
    tracer.merge(total, tree)
    assert tracer.self_times(total)["a"] == [8, pytest.approx(10.0)]


def test_coverage_leaves_out_the_command_spans():
    # lab.check.x(20s) -> a(12s) -> b(5s); lab.check.x spends 8s outside
    # any layer, and a top-level layer c(3s) lies outside every command
    tree = _node(0, 0.0,
                 **{"lab.check.x": _node(1, 20.0,
                                         a=_node(2, 12.0, b=_node(1, 5.0)))},
                 c=_node(1, 3.0))
    own = tracer.self_times(tree)
    assert own["lab.check.x"][1] == pytest.approx(8.0)
    assert tracer.covered(own) == pytest.approx(12.0 + 3.0)


def test_probe_scales_both_times_of_a_process_alike(tmp_path):
    ctx = run.Context(str(tmp_path))
    proc = run.run_process(ctx, [sys.executable, "-c",
                                 "print(sum(range(3 * 10**6)))"])
    assert proc["rc"] == 0 and proc["stdout"].strip() == str(sum(range(3 * 10**6)))
    assert proc["wall_ref"] > 0 and proc["cpu_ref"] > 0
    assert (proc["wall_ref"] / proc["wall"]
            == pytest.approx(proc["cpu_ref"] / proc["cpu"]))
    assert os.listdir(ctx.work) == []  # captured output files are removed


def test_tracer_builds_call_path_tree():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: next(ticks))

    def leaf():
        return 1

    traced_leaf = t.wrap("leaf", leaf)

    def outer():
        return traced_leaf() + traced_leaf()

    assert t.wrap("outer", outer)() == 2
    gen = t.wrap_generator("gen", lambda: iter([5, 6]))
    assert list(gen()) == [5, 6]
    own = tracer.self_times(t.root)
    # outer: ticks 0..5 (5), each leaf call 1 tick
    assert own["outer"] == [1, 3]
    assert own["leaf"] == [2, 2]
    assert own["gen"][0] == 3  # two items and the final StopIteration
    assert t.stack == [t.root]


def test_long_perm_depends_on_the_seed_only():
    w = workloads.long_perm_s8(7)
    assert w == workloads.long_perm_s8(7)
    assert len({workloads.long_perm_s8(seed) for seed in range(20)}) > 1
    for seed in range(20):
        w = workloads.long_perm_s8(seed)
        assert w != workloads.W0_S8 and sorted(w) == list("12345678")
        assert 24 <= verify.length(w) <= 26 and w.endswith("4321")


def test_workloads_and_seed():
    bounds = {"mn": 7, "hpos": 5, "cor44": 6}
    one = workloads.build("checks-n7-kl-s8", 1, bounds)
    two = workloads.build("checks-n7-kl-s8", 2, bounds)
    assert [c.argv for c in one.commands] != [c.argv for c in two.commands]
    for name in ("checks-n6", "search-s8", "rerun-warm"):
        assert ([c.argv for c in workloads.build(name, 1, bounds).commands]
                == [c.argv for c in workloads.build(name, 2, bounds).commands])
    assert workloads.build("rerun-warm", 1, bounds).cache == "warm"
    check = one.commands[0].check
    assert check(_reports({"mn": "pass"}, 7)) == []
    assert check(_reports({"mn": "pass", "cor44": "pass"}, 7))


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert ([(w["name"], w["why"]) for w in spec["workloads"]]
            == list(workloads.WHY.items()))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == run.PER_LAYER)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "search-s8", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
