"""
Benchmark of the ``hecke-lab`` command line, end to end and per layer.

    python3 bench/run.py --workload checks-n6 --seed 1 --seconds 5 --trace 0
    python3 bench/run.py                      # every workload in turn

Run it from the repository root.  Every command is a fresh interpreter
running ``python -m heckelab`` from ``src/``, one after another, with the
default single worker.  A run repeats its workload for about ``--seconds``
seconds (at least once) and reports the median of the repetitions, a
single sample when one repetition fills the budget, with times scaled to a
reference speed of the core (see REF_RATE); ``--trace 1`` adds one traced
repetition and reports per-layer metrics instead.  Each command's
output is verified, and the last line printed is a JSON object
``{"correct", "attempted", "failed", "metrics"}``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import tracer
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 9
RUN_DEADLINE_S = 170  # per workload run; a process still running then is killed
COVERAGE_FLOOR = 0.9  # share of traced time on checks-n6 the layers must hold

END_TO_END = [("wall_ref_s", "s"), ("cpu_ref_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]

# Times are reported in seconds at a reference speed of the core.  The
# host's cores switch between a fast and a slow state (up to 1.7x apart)
# every few seconds, so raw times spread more than any bound.  While a
# measured process runs, a probe thread pinned to the same core at a lower
# priority (about a tenth of the core) counts blocks of fixed integer and
# dict work per CPU second of its own; a time t measured at probe rate
# r is reported as t * r / REF_RATE.  The probe's work is fixed, so its
# rate measures the host, not the program; REF_RATE only sets the scale.
REF_RATE = 4500.0  # probe blocks per CPU second
PROBE_NICE = 10

CHECK_NAMES = ["cor44", "hpos", "prop31", "thm15", "momentgraph",
               "modular-law", "csf-oracle", "kl-selfdual", "unimodal", "mn",
               "lemma22"]

# (metric, unit, better): self time in seconds of the named spans, or counts
PER_LAYER = [
    ("characters.character_table.s", "s", "lower"),
    ("characters.character_table.builds", "count", "lower"),
    ("characters.chi.s", "s", "lower"),
    ("characters.chi.calls", "count", "lower"),
    ("characters.frobenius_cprime.s", "s", "lower"),
    ("characters.frobenius_cprime.hit_ratio", "ratio", "higher"),
    ("csf.csf_batch.s", "s", "lower"),
    ("csf.batch_functions", "count", "lower"),
    ("csf.csf.s", "s", "lower"),
    ("csf.csf.calls", "count", "lower"),
    ("csf.csf_oracle.s", "s", "lower"),
    ("hecke.row.s", "s", "lower"),
    ("hecke.rows_built", "count", "lower"),
    ("hecke.row_entries", "count", "lower"),
    ("symfunc.convert.s", "s", "lower"),
    ("symfunc.convert.calls", "count", "lower"),
    ("symfunc.eq.s", "s", "lower"),
    ("symfunc.eq.calls", "count", "lower"),
    ("permutations.s", "s", "lower"),
    ("permutations.bruhat_leq.calls", "count", "lower"),
    ("cache.load.s", "s", "lower"),
    ("cache.load.hits", "count", "higher"),
    ("cache.load.misses", "count", "lower"),
    ("cache.load.bytes", "B", "lower"),
    ("cache.store.s", "s", "lower"),
    ("cache.store.calls", "count", "lower"),
    ("cache.store.bytes", "B", "lower"),
    ("cache.files", "count", "lower"),
] + [(f"lab.check.{name}.s", "s", "lower") for name in CHECK_NAMES] + [
    ("lab.counterexample_search.s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


class Context:
    """Paths and environment shared by every process of one benchmark run."""

    def __init__(self, root: str):
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".bench_work")
        os.makedirs(self.work, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.serial = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def fresh_path(self, stem: str) -> str:
        self.serial += 1
        return os.path.join(self.work, f"{stem}-{os.getpid()}-{self.serial}")


class Probe(threading.Thread):
    """Samples the speed of the core this process is pinned to while a
    measured child runs there: ``rate`` is blocks per CPU second of this
    thread, which runs at a lower priority than the child."""

    def __init__(self):
        super().__init__(daemon=True)
        self.halt = threading.Event()
        self.rate = REF_RATE
        self.table: dict = {}

    def block(self) -> None:
        """One block of fixed work: 128-bit integer arithmetic and dict
        inserts with tuple keys, a mix whose slowdown on the host's slow
        state tracks the program's more closely than plain loops do."""
        x, acc = 1, {}
        for i in range(500):
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 128)
            acc[(i, x & 1023)] = x >> 64
        self.table.update(acc)

    def run(self):
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), PROBE_NICE)
        blocks, start = 0, time.thread_time()
        while True:
            self.block()
            blocks += 1
            if self.halt.is_set():
                break
        self.rate = blocks / max(time.thread_time() - start, 1e-9)

    def stop(self) -> float:
        self.halt.set()
        if self.ident is not None:  # started
            self.join()
        return self.rate


def run_process(ctx: Context, cmd: list) -> dict:
    """Run cmd to completion; wall time, rusage of that child alone (from
    wait4, since RUSAGE_CHILDREN keeps a maximum over all children), both
    times also at the reference speed, and its captured output."""
    out_path, err_path = ctx.fresh_path("out"), ctx.fresh_path("err")
    probe = Probe()
    try:
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=ctx.env, cwd=ctx.work)
            timer = threading.Timer(max(1.0, ctx.deadline - time.monotonic()),
                                    proc.kill)
            try:
                timer.start()
                probe.start()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                scale = probe.stop() / REF_RATE
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
    finally:
        for path in (out_path, err_path):
            if os.path.exists(path):
                os.unlink(path)
    cpu = usage.ru_utime + usage.ru_stime
    return {"rc": proc.returncode, "wall": wall, "cpu": cpu,
            "wall_ref": wall * scale, "cpu_ref": cpu * scale,
            "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB
            "stdout": stdout, "stderr": stderr}


def cli(ctx: Context, argv: list) -> dict:
    return run_process(ctx, [sys.executable, "-m", "heckelab"] + argv)


def snapshot(directory: str) -> dict:
    """{relative path: [size, mtime_ns, sha1]} of every file below directory."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            st = os.stat(path)
            with open(path, "rb") as fh:
                digest = hashlib.sha1(fh.read()).hexdigest()
            out[os.path.relpath(path, directory)] = [st.st_size, st.st_mtime_ns,
                                                     digest]
    return out


def count_files(directory: str) -> int:
    return sum(len(files) for _, _, files in os.walk(directory))


def run_workload(ctx: Context, wl, cache_dir, traced: bool = False) -> dict:
    """One run of every command of the workload, verified; cache_dir is
    None for a run without the disk cache."""
    totals = {"wall": 0.0, "cpu": 0.0, "wall_ref": 0.0, "cpu_ref": 0.0,
              "rss_mb": 0.0, "problems": [], "traces": []}
    warm = wl.cache == "warm"
    before = snapshot(cache_dir) if warm else None
    # one worker, as the default is today, whatever later defaults become
    base = ["--threads", "1"] + (["--no-cache"] if cache_dir is None
                                 else ["--cache-dir", cache_dir])
    for cmd in wl.commands:
        argv = base + cmd.argv
        if traced:
            trace_path = ctx.fresh_path("trace") + ".json"
            proc = run_process(ctx, [sys.executable,
                                     os.path.join(HERE, "tracer.py"),
                                     trace_path, "--"] + argv)
        else:
            proc = cli(ctx, argv)
        for key in ("wall", "cpu", "wall_ref", "cpu_ref"):
            totals[key] += proc[key]
        totals["rss_mb"] = max(totals["rss_mb"], proc["rss_mb"])
        problems = (verify.process(proc["rc"], proc["stdout"], proc["stderr"])
                    + cmd.check(proc["stdout"]))
        totals["problems"] += [f"{' '.join(cmd.argv)}: {p}" for p in problems]
        if traced:
            if os.path.exists(trace_path):
                with open(trace_path, encoding="utf-8") as fh:
                    totals["traces"].append(json.load(fh))
                os.unlink(trace_path)
            else:
                totals["problems"].append("traced run wrote no trace")
    totals["files"] = 0 if cache_dir is None else count_files(cache_dir)
    if warm:
        totals["problems"] += verify.unchanged(before, snapshot(cache_dir))
    return totals


def run_once(ctx: Context, wl, warm_dir, traced: bool = False) -> dict:
    """One run of the workload with the cache it asks for; a cold run gets
    a fresh empty cache directory, removed afterwards."""
    if wl.cache != "cold":
        return run_workload(ctx, wl, warm_dir, traced)
    cache_dir = ctx.fresh_path("cold")
    os.makedirs(cache_dir)
    try:
        return run_workload(ctx, wl, cache_dir, traced)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def warm_cache(ctx: Context, bounds: dict) -> str:
    """The cache directory of the warm workload, filled once per source tree.

    It holds what a cold check n=6 and a cold S_8 search write.  A copy
    whose files differ from the snapshot taken when it was filled is
    rebuilt.
    """
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ctx.src, "heckelab"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    path = os.path.join(ctx.work, f"warm-{digest.hexdigest()[:16]}")
    marker = path + ".snapshot.json"
    if os.path.exists(marker):
        with open(marker, encoding="utf-8") as fh:
            if json.load(fh) == snapshot(path):
                return path
    for name in os.listdir(ctx.work):
        if name.startswith("warm-"):
            target = os.path.join(ctx.work, name)
            if os.path.isdir(target):
                shutil.rmtree(target)
            else:
                os.unlink(target)
    fill = workloads.build("rerun-warm", workloads.DEFAULT_SEED, bounds)
    staging = ctx.fresh_path("warm-staging")
    os.makedirs(staging)
    problems = run_workload(ctx, dataclasses.replace(fill, cache="cold"),
                            staging)["problems"]
    if problems:
        shutil.rmtree(staging, ignore_errors=True)
        raise RuntimeError("filling the warm cache failed: " + "; ".join(problems))
    os.rename(staging, path)
    with open(marker, "w", encoding="utf-8") as fh:
        json.dump(snapshot(path), fh)
    return path


def measure_setup(ctx: Context) -> tuple[list, list, int]:
    """Wall times of SETUP_REPS runs of the setup command, at the reference
    speed and raw, and how many failed.  The median is taken, so the first
    run of a fresh checkout, which also writes the bytecode cache, does not
    move it."""
    walls_ref, walls, failed = [], [], 0
    for _ in range(SETUP_REPS):
        proc = cli(ctx, workloads.SETUP)
        problems = verify.process(proc["rc"], proc["stdout"], proc["stderr"])
        if proc["stdout"].strip() != "1":
            problems.append(f"setup printed {proc['stdout'][:40]!r}")
        if problems:
            failed += 1
            print("setup: " + "; ".join(problems), file=sys.stderr)
        else:
            walls_ref.append(proc["wall_ref"])
            walls.append(proc["wall"])
    return walls_ref, walls, failed


def layer_metrics(traced: dict, untraced_wall_ref: float) -> dict:
    """Per-layer metrics from the traced run's span trees and counters;
    untraced_wall_ref is the wall time, at the reference speed, of the
    untraced repetition made just before the traced one."""
    tree = tracer.new_node()
    counts: dict = {}
    main_s = 0.0
    for trace in traced["traces"]:
        tracer.merge(tree, trace["tree"])
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        main_s += trace["main_s"]
    own = tracer.self_times(tree)

    def self_s(name):
        return own.get(name, [0, 0.0])[1]

    def calls(name):
        return own.get(name, [0, 0.0])[0]

    frob = counts.get("characters.frobenius_cprime.hits", 0) + \
        counts.get("characters.frobenius_cprime.misses", 0)
    values = {
        "characters.frobenius_cprime.hit_ratio":
            counts.get("characters.frobenius_cprime.hits", 0) / frob if frob else 0.0,
        "permutations.s": sum(s for name, (_, s) in own.items()
                              if name.startswith("permutations.")),
        "cache.files": traced["files"],
        "trace.coverage": tracer.covered(own) / main_s if main_s else 0.0,
        "trace.overhead_s": traced["wall_ref"] - untraced_wall_ref,
    }
    for name, unit, _ in PER_LAYER:
        stem, _, leaf = name.rpartition(".")
        if name in values:
            continue
        if leaf == "s":
            values[name] = self_s(stem)
        elif leaf == "calls":
            values[name] = calls(stem)
        else:
            values[name] = counts.get(name, 0)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def median(values):
    return statistics.median(values) if values else 0.0


def bench(ctx: Context, name: str, seed: int, seconds: float, trace: bool,
          bounds: dict) -> dict:
    """One benchmark run of one workload; the result object."""
    ctx.deadline = time.monotonic() + RUN_DEADLINE_S
    wl = workloads.build(name, seed, bounds)
    setup_ref, setup_raw, failed = measure_setup(ctx)
    attempted = SETUP_REPS
    warm_dir = warm_cache(ctx, bounds) if wl.cache == "warm" else None

    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_once(ctx, wl, warm_dir))
        elapsed = time.perf_counter() - start
        # stop at the repetition whose end lies nearest to the time budget
        if elapsed + elapsed / len(runs) / 2 >= seconds:
            break
    traced = None
    if trace:
        traced = run_once(ctx, wl, warm_dir, traced=True)
        runs_all = runs + [traced]
    else:
        runs_all = runs
    for run in runs_all:
        for problem in run["problems"]:
            print(f"{name}: {problem}", file=sys.stderr)
    attempted += len(runs_all)
    failed += sum(1 for run in runs_all if run["problems"])
    good = [run for run in runs if not run["problems"]] or runs
    samples = {"wall_ref_s": [r["wall_ref"] for r in good],
               "cpu_ref_s": [r["cpu_ref"] for r in good],
               "peak_rss_mb": [r["rss_mb"] for r in good],
               "setup_s": setup_ref}
    raw = {"wall_ref_s": [r["wall"] for r in good],
           "cpu_ref_s": [r["cpu"] for r in good], "setup_s": setup_raw}
    if trace:
        metrics = layer_metrics(traced, runs[-1]["wall_ref"])
        coverage = metrics["trace.coverage"]["value"]
        if name == "checks-n6" and coverage < COVERAGE_FLOOR:
            print(f"{name}: warning: trace.coverage {coverage:.3f} is below "
                  f"{COVERAGE_FLOOR}; the layers miss where the time goes",
                  file=sys.stderr)
    else:
        metrics = {metric: {"value": median(samples[metric]), "unit": unit}
                   for metric, unit in END_TO_END}
    report(name, metrics, samples, raw, traced["wall"] if trace else None)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report(name: str, metrics: dict, samples: dict, raw: dict,
           traced_wall) -> None:
    """Human-readable lines: each metric by name with its unit, and for a
    time the raw median beside the one at the reference speed; for a traced
    run, each self time's share of the traced wall time and the end-to-end
    metric it should move."""
    if traced_wall is None:
        for metric, m in metrics.items():
            count = len(samples[metric])
            how = f"median of {count}" if count > 1 else "1 sample"
            if metric in raw:
                how += f", raw {median(raw[metric]):.4f} s"
            print(f"{name:16} {metric:12} {m['value']:12.4f} {m['unit']:5} "
                  f"{how}")
        return
    for metric, m in metrics.items():
        share = (f"{100 * m['value'] / traced_wall:5.1f}%" if m["unit"] == "s"
                 and not metric.startswith("trace.") else "      ")
        print(f"{name:16} {metric:40} {m['value']:14.4f} {m['unit']:5} {share}"
              f"  {workloads.target_of(metric)}")


def check_bounds(src: str) -> dict:
    """The program's CHECK_BOUNDS: the rank up to which each check runs."""
    sys.path.insert(0, src)
    try:
        from heckelab.lab import CHECK_BOUNDS
    finally:
        sys.path.remove(src)
    return dict(CHECK_BOUNDS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # on SIGTERM unwind, so that run_process kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # every measured process and the probe share one core (children and
    # threads inherit the affinity of this thread)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # hand the GIL back from the probe within 0.1 ms when a child ends
    sys.setswitchinterval(1e-4)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "heckelab", "cli.py")):
        print(f"error: no heckelab source tree under {src}", file=sys.stderr)
        return 2
    ctx = Context(root)
    bounds = check_bounds(src)
    try:
        return run_workloads(ctx, args, bounds)
    except RuntimeError as exc:  # the warm cache could not be filled
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run_workloads(ctx: Context, args, bounds: dict) -> int:
    if args.workload != "all":
        result = bench(ctx, args.workload, args.seed, args.seconds,
                       bool(args.trace), bounds)
        print(json.dumps(result))
        return 0

    results = {name: bench(ctx, name, args.seed, args.seconds,
                           bool(args.trace), bounds)
               for name in workloads.NAMES}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {name: r["metrics"] for name, r in results.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
