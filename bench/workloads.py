"""
The benchmark's workloads: which ``hecke-lab`` commands each one runs, with
which cache, and how each command's output is verified.

A workload run is a list of commands, each executed as a fresh interpreter
(``python -m heckelab ...``), one after another.  Cold workloads get a fresh
empty cache directory per run; the warm workload reuses one directory that
is filled once beforehand; checks-n7-kl-s8 runs without the disk cache, so
that its time goes to the compute layers rather than to writing one cache
file per KL row.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import verify

DEFAULT_SEED = 1

CHECK_N6 = ["--format", "json", "check", "--name", "all", "--n", "6"]
CHECK_N7 = ["--format", "json", "check", "--name", "all", "--n", "7"]
SEARCH_S8 = ["--format", "json", "counterexample",
             "--m", "2,6,7,7,7,7,8,8", "--expect", "notfound"]
W0_S8 = verify.W0_S8
# the interpreter, import and argparse cost of one CLI call
SETUP = ["--no-cache", "hessenberg", "--n", "1"]


@dataclass(frozen=True)
class Command:
    argv: list
    check: object  # verify.<fn>(stdout) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: list
    cache: str = "cold"  # "cold": fresh empty directory, "warm": the shared
    # pre-filled directory, "none": --no-cache


def long_perm_s8(seed: int) -> str:
    """A permutation w0*x of S_8 drawn from ``seed``, of length 24 to 26:
    x permutes the first four positions of w0 = 87654321 and has length 2,
    3 or 4.  A one-line string.

    Over all of S_8 the KL row of a permutation of length >= 24 costs from
    0.3 to 2.5 times the row of w0 (its recursion builds 347 to 2 506 rows),
    so ten seeds drawn from there spread a run by about 20%.  On this coset
    every row builds 512 to 578 rows and costs 0.45 to 0.85 times the row of
    w0, so the seed moves the whole workload by at most 8%.
    """
    coset = []
    for x in itertools.permutations(range(1, 5)):
        inv = sum(1 for i in range(4) for j in range(i + 1, 4) if x[i] > x[j])
        if 2 <= inv <= 4:
            coset.append("".join(str(9 - v) for v in x) + "4321")
    return random.Random(seed).choice(coset)


def _check_cmd(argv: list, n: int, bounds: dict) -> Command:
    """``check --name all --n n`` runs every check whose bound is >= n."""
    expected = sorted(name for name, bound in bounds.items() if bound >= n)
    return Command(argv, lambda out: verify.check_reports(out, n, expected))


def _kl_cmd(w: str) -> Command:
    return Command(["--format", "json", "kl", "--w", w],
                   lambda out: verify.kl_row(out, w))


def build(name: str, seed: int, bounds: dict) -> Workload:
    """The workload ``name``; only checks-n7-kl-s8 depends on the seed.

    ``bounds`` is the program's CHECK_BOUNDS: the highest rank of each check.
    """
    search = Command(SEARCH_S8, verify.search_not_found)
    if name == "checks-n6":
        return Workload(name, WHY[name], [_check_cmd(CHECK_N6, 6, bounds)])
    if name == "search-s8":
        return Workload(name, WHY[name], [search])
    if name == "rerun-warm":
        return Workload(name, WHY[name], [_check_cmd(CHECK_N6, 6, bounds), search],
                        cache="warm")
    if name == "checks-n7-kl-s8":
        kls = [_kl_cmd(w) for w in (W0_S8, long_perm_s8(seed))]
        return Workload(name, WHY[name], [_check_cmd(CHECK_N7, 7, bounds)] + kls,
                        cache="none")
    raise KeyError(name)


WHY = {
    "checks-n6": "a user's first check at n=6 with a cold disk cache; "
                 "the character table dominates",
    "search-s8": "the paper's S_8 counterexample search with a cold cache; "
                 "csf_batch(8) dominates and no characters are computed",
    "rerun-warm": "check n=6 and the S_8 search again on a filled cache; "
                  "cache loads replace the builds",
    "checks-n7-kl-s8": "checks at n=7 plus KL rows of w0 and of a "
                       "seed-drawn long S_8 permutation, without the disk cache",
}

NAMES = list(WHY)

# Which end-to-end metric each layer metric should move, and on which
# workload.  A faster layer saves at most its self time on that workload.
LAYER_TARGETS = {
    "characters.character_table": "wall_ref_s on checks-n6; a disk load on rerun-warm",
    "characters.chi": "wall_ref_s on checks-n7-kl-s8",
    "characters.frobenius_cprime": "wall_ref_s on rerun-warm and checks-n6",
    "csf.csf_batch": "wall_ref_s on search-s8",
    "csf.batch_functions": "wall_ref_s on search-s8",
    "csf.csf": "wall_ref_s on checks-n7-kl-s8",
    "csf.csf_oracle": "wall_ref_s on checks-n6",
    "hecke.row": "wall_ref_s and peak_rss_mb on checks-n7-kl-s8",
    "hecke.rows_built": "wall_ref_s and peak_rss_mb on checks-n7-kl-s8",
    "hecke.row_entries": "wall_ref_s and peak_rss_mb on checks-n7-kl-s8",
    "symfunc": "wall_ref_s on checks-n6 and rerun-warm",
    "permutations": "wall_ref_s on checks-n7-kl-s8",
    "cache.load": "wall_ref_s on rerun-warm",
    "cache.store": "wall_ref_s on checks-n6 and search-s8",
    "cache.files": "wall_ref_s on checks-n6 and search-s8",
    "lab": "wall_ref_s on the workload that runs the check or search",
}


def target_of(metric: str) -> str:
    """The LAYER_TARGETS entry with the longest prefix of ``metric``."""
    best = ""
    for prefix in LAYER_TARGETS:
        if metric.startswith(prefix) and len(prefix) > len(best):
            best = prefix
    return LAYER_TARGETS.get(best, "")
