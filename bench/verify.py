"""
Output verifiers.  Each takes a command's captured output and returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json

W0_S8 = "87654321"  # the longest element of S_8
W0_ROW_SIZE = 40320  # |S_8|: every z lies below w0


def process(rc: int, stdout: str, stderr: str) -> list[str]:
    """Problems any command can show: a traceback or an exit code other
    than 0 (every measured command is expected to succeed)."""
    problems = []
    if "Traceback (most recent call last)" in stderr + stdout:
        problems.append("traceback printed")
    if rc != 0:
        problems.append(f"exit code {rc}")
    return problems


def _json_lines(stdout: str):
    try:
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except ValueError:
        return None


def check_reports(stdout: str, n: int, expected: list[str]) -> list[str]:
    """One JSON report per expected check, each for rank n with status pass."""
    reports = _json_lines(stdout)
    if reports is None or not all(isinstance(r, dict) for r in reports):
        return ["check output is not JSON report lines"]
    problems = []
    seen = [r.get("check") for r in reports]
    for name in expected:
        if name not in seen:
            problems.append(f"check {name} missing")
    for r in reports:
        if r.get("check") not in expected:
            problems.append(f"unexpected check {r.get('check')}")
        elif r.get("status") != "pass" or r.get("n") != n:
            problems.append(f"check {r.get('check')}: status "
                            f"{r.get('status')!r} at n={r.get('n')}")
    if len(seen) != len(set(seen)):
        problems.append("a check reported twice")
    return problems


def search_not_found(stdout: str) -> list[str]:
    """The S_8 counterexample search reports found: false."""
    lines = _json_lines(stdout)
    if not lines or len(lines) != 1 or not isinstance(lines[0], dict):
        return ["search output is not one JSON object"]
    if lines[0].get("found") is not False:
        return [f"search reports found={lines[0].get('found')!r}"]
    return []


def length(perm: str) -> int:
    """Inversion count of a one-line permutation string (n <= 9)."""
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def _poly(data) -> list[int] | None:
    """A KL polynomial's JSON {exponent: coefficient} as an ascending list;
    None unless every exponent is a nonnegative integer and every
    coefficient an integer."""
    if not isinstance(data, dict):
        return None
    coeffs = {}
    for key, value in data.items():
        if not key.isdigit() or type(value) is not int:
            return None
        coeffs[int(key)] = value
    return [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]


def kl_row(stdout: str, w: str) -> list[str]:
    """The row {P_{z,w}} of ``kl --w w``: P_{w,w} = 1, and for z < w constant
    term 1, nonnegative coefficients and 2 deg P_{z,w} < l(w) - l(z).  The
    row of the longest element w0 of S_8 is 40 320 entries all equal to 1."""
    lines = _json_lines(stdout)
    if not lines or len(lines) != 1 or not isinstance(lines[0], dict):
        return ["kl output is not one JSON object"]
    entries = lines[0].get("entries")
    if not isinstance(entries, list) or not entries:
        return ["kl output has no entries"]
    lw = length(w)
    problems = []
    zs = set()
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and len(entry[0]) == len(w)):
            problems.append(f"malformed entry {entry!r}")
            continue
        z, y, data = entry
        p = _poly(data)
        if z in zs:
            problems.append(f"P[{z}] repeated")
        zs.add(z)
        if y != w:
            problems.append(f"entry for row {y}, expected {w}")
        elif p is None:
            problems.append(f"P[{z}] is not an integer polynomial")
        elif z == w:
            if p != [1]:
                problems.append(f"P[w,w] = {p}")
        elif not p or p[0] != 1:
            problems.append(f"P[{z}] has constant term {p[:1]}")
        elif min(p) < 0:
            problems.append(f"P[{z}] has a negative coefficient")
        elif 2 * (len(p) - 1) >= lw - length(z):
            problems.append(f"P[{z}] has degree {len(p) - 1}")
        if len(problems) >= 5:
            break
    if w not in zs:
        problems.append("P[w,w] missing")
    if w == W0_S8:
        if len(entries) != W0_ROW_SIZE:
            problems.append(f"w0 row has {len(entries)} entries")
        if any(_poly(e[2]) != [1] for e in entries if isinstance(e, list)
               and len(e) == 3):
            problems.append("w0 row has an entry other than 1")
    return problems


def unchanged(before: dict, after: dict) -> list[str]:
    """Problems if a directory snapshot changed (see run.snapshot)."""
    if before == after:
        return []
    added = sorted(set(after) - set(before))
    removed = sorted(set(before) - set(after))
    changed = sorted(k for k in set(before) & set(after)
                     if before[k] != after[k])
    return [f"warm cache changed: +{added[:3]} -{removed[:3]} ~{changed[:3]}"]
