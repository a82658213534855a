"""
Command-line front end.

Exit codes: 0 on success, 1 for a mathematical negative that the caller
asked to treat as failure (--expect, or a failing check), 2 for
usage/input errors.

Every command is a fresh process, so a command loads only the layers it
runs.  The imports at the top of this module are the ones parsing needs
(argparse, json, sys and permutations); each ``_cmd_*`` handler imports
the layers it calls when it is called, by name, so that a function
rebound on its module is the one it calls.  Parsing and ``--help`` import
no layer beyond these.  No command reads or writes a file: bench/run.py
passes ``--threads 1`` and ``--no-cache`` or ``--cache-dir DIR`` to every
command, so these options are parsed and change nothing.

Every command prints through one emitter, ``_emit``, which picks the form
that --format names.  Every command has a text and a JSON form.  Only
polynomials and symmetric functions have a LaTeX form: ``chi``,
``kl --z``, ``ch`` and ``csf``.  Every other command (``kl`` without
``--z``, ``cprime``, ``smooth-reduce``, ``moment-graph``, ``modular``,
``decompose``, ``counterexample``, ``check``, ``hessenberg``) refuses
--format latex with exit 2 before it computes anything.  ``kl`` and
``cprime`` stream the text of a KL row from heckelab.rowtext, one length
of z at a time, through ``_row``.

``main`` parses --w once, for every command that takes it, before the
command's handler runs.  Every input limit lives here and refuses with
exit 2 before anything is computed: ``MAX_ROW_N`` for ``kl`` without
``--z``, ``cprime``, ``ch``, ``chi`` (and ``modular`` asserts its identity
above it), ``MAX_KL_ENTRY_N`` for ``kl --z``, ``MAX_DECOMPOSE_N`` for
``decompose``, ``MAX_SEARCH_N`` for ``counterexample``, ``MAX_HESSENBERG_N``
for ``hessenberg`` and ``csf``, ``MAX_PERM_N`` for ``smooth-reduce``,
``moment-graph``, ``modular`` and ``decompose``; ``--threads`` accepts
only 1, and refuses any other value while parsing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .permutations import (NotSmoothError, hessenberg_to_str,
                           enumerate_hessenberg, parse_hessenberg, parse_perm,
                           perm_to_str)


# hessenberg lists all Catalan(n) functions: 208 012 at n = 12; the csf
# of one function of rank 12 takes under a second
MAX_HESSENBERG_N = 12
# counterexample --general builds the csf of all Catalan(n) functions in
# memory: 16 796 at n = 10, 5.0-5.4 s and 136 MB on one core; the default
# search computes only those one edge from m1, at most 1 986 at n = 10, in
# about 2 s and 33 MB
MAX_SEARCH_N = 10
# kl without --z, cprime, ch and modular expand every z <= w.  For w0 of
# S_10 (3 628 800 z; S_11 has 11 times as many), kl takes 2.9-3.2 s and
# 545 MB (7.3-7.8 s and 1.1 GB when its rows were printed from (z,
# polynomial) pairs), cprime 2.0-2.4 s and 416 MB (7.0-7.8 s, 1.1 GB),
# and ch 80 s and 1.6 GB (5.9 s, 167 MB in S_9); modular --w
# 9,10,8,7,6,5,4,3,2,1 --s 1 takes 81 s and 1.67 GB.  chi reduces the class
# of --w, about 7 times dearer per rank: 5.8 s and 166 MB at w0 of S_10
MAX_ROW_N = 10
# kl --z builds every row of w's recursion: for w0 and z = e, about 11 s and
# 183 MB in S_12, 80 s and 866 MB in S_13 (about 7 times the time per rank)
MAX_KL_ENTRY_N = 12
# decompose's exact search computes all 1 430 codominant characters at 8
MAX_DECOMPOSE_N = 8
# smooth-reduce, moment-graph, modular and decompose scan --w for 3412 and
# 4231 over all C(n, 4) position sets, and decompose scans up to about 2n
# candidates for one step of Thm 1.6: the slowest decompose found took 0.4 s
# at rank 40 and 0.9 s at rank 50; smooth-reduce of w0 takes 0.2 s at 80
MAX_PERM_N = 40


class InputError(ValueError):
    """Malformed command-line input; maps to exit code 2."""


def _parsed(parse, text: str, *args):
    """parse(text, *args), its ValueError raised as InputError."""
    try:
        return parse(text, *args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _whole_row(args, w) -> None:
    """Refuse a w above MAX_ROW_N for a command that expands its row."""
    if len(w) > MAX_ROW_N:
        raise InputError(f"{args.command} expands the whole row of --w, "
                         f"so its rank must be at most {MAX_ROW_N}")


def _perm(args):
    """--w, refused above MAX_PERM_N."""
    if len(args.w) > MAX_PERM_N:
        raise InputError(f"--w must have rank at most {MAX_PERM_N}")
    return args.w


def _parse_partition(text: str, n: int):
    try:
        lam = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad partition {text!r}") from exc
    if sum(lam) != n or any(a <= 0 for a in lam) or \
            any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise InputError(f"{text!r} is not a partition of {n}")
    return lam


def _has_latex(args) -> bool:
    """Whether the command prints a LaTeX form (see the module docstring)."""
    return args.command in ("chi", "ch", "csf") or \
        args.command == "kl" and args.z is not None


def _emit(fmt: str, text, data, latex=None) -> None:
    """Print one output, and a newline, in the form --format names: text,
    latex, or data as JSON with sorted keys.  The forms of a KL row are
    generators of pieces (see _row), written one at a time, never joined."""
    if fmt == "json":
        form = json.dumps(data, sort_keys=True) if isinstance(data, dict) \
            else data
    else:
        form = latex if fmt == "latex" else text
    out = sys.stdout
    for piece in (form,) if isinstance(form, str) else form:
        out.write(piece)
    out.write("\n")


def _row(w, head: str, sep: str, tail: str, render):
    """The pieces of head + sep.join(before + z + after) + tail over the
    row of w in (length, z) order, (before, after) = render(coefficients
    of P_{z,w}): see heckelab.rowtext.export, which runs when the first
    piece is asked for."""
    from .hecke import row_store
    from .rowtext import export
    yield head
    yield from export(row_store(len(w)), w, render, sep)
    yield tail


# -- subcommand handlers (return exit codes) ----------------------------------

def _cmd_kl(args, fmt) -> int:
    from .qpoly import poly_json, poly_latex, poly_str
    w = args.w
    if args.z is not None:
        from .hecke import kl_polynomial
        z = _parsed(parse_perm, args.z, len(w))
        if len(w) > MAX_KL_ENTRY_N:
            raise InputError(f"--w must have rank at most {MAX_KL_ENTRY_N}")
        p = kl_polynomial(z, w)
        _emit(fmt, poly_str(p), {"polynomial": poly_json(p)}, poly_latex(p))
        return 0
    _whole_row(args, w)
    ws = perm_to_str(w)
    _emit(fmt, _row(w, "", "\n", "", lambda c: (
              "P[", f", {ws}] = {poly_str(c)}")),
          # json.dumps({"entries": [[z, w, poly]], "n"}, sort_keys=True)
          _row(w, '{"entries": [', ", ", '], "n": %d}' % len(w),
               lambda c: ('["', '", "%s", %s]' % (ws, json.dumps(
                   poly_json(c), sort_keys=True)))))
    return 0


def _cmd_cprime(args, fmt) -> int:
    from .qpoly import poly_json, poly_str
    w = args.w
    _whole_row(args, w)
    ws = perm_to_str(w)
    _emit(fmt, _row(w, f"q^({w.length()}/2)*C'[{ws}] = ", " + ", "",
                    lambda c: (f"({poly_str(c)})*T[", "]")),
          # json.dumps({"n", "scaling", "terms": [[z, poly]], "w"},
          # sort_keys=True)
          _row(w, '{"n": %d, "scaling": %s, "terms": [' % (
                   len(w), json.dumps(f"q^({w.length()}/2) * C'_w")),
               ", ", '], "w": "%s"}' % ws,
               lambda c: ('["', '", %s]' % json.dumps(
                   poly_json(c), sort_keys=True))))
    return 0


def _cmd_chi(args, fmt) -> int:
    from .characters import chi
    from .qpoly import poly_json, poly_latex, poly_str
    if len(args.w) > MAX_ROW_N:
        raise InputError(f"--w must have rank at most {MAX_ROW_N}")
    p = chi(_parse_partition(args.lam, len(args.w)), args.w)
    _emit(fmt, poly_str(p), {"polynomial": poly_json(p)}, poly_latex(p))
    return 0


def _cmd_ch(args, fmt) -> int:
    from .characters import frobenius_cprime
    _whole_row(args, args.w)
    f = frobenius_cprime(args.w).convert(args.basis)
    _emit(fmt, str(f), f.to_json(), f.latex())
    return 0


def _cmd_csf(args, fmt) -> int:
    from .csf import csf
    m = _parsed(parse_hessenberg, args.m)
    if len(m) > MAX_HESSENBERG_N:
        raise InputError(f"--m must have rank at most {MAX_HESSENBERG_N}")
    f = csf(m).convert(args.basis)
    _emit(fmt, str(f), f.to_json(), f.latex())
    return 0


def _cmd_smooth_reduce(args, fmt) -> int:
    from .lab import smooth_reduce
    w = _perm(args)
    try:
        out = smooth_reduce(w)
    except NotSmoothError as exc:
        raise InputError(str(exc)) from exc
    _emit(fmt, perm_to_str(out),
          {"w": perm_to_str(w), "codominant": perm_to_str(out)})
    return 0


def _cmd_moment_graph(args, fmt) -> int:
    from .permutations import transpositions_below
    w = _perm(args)
    ts = sorted(transpositions_below(w))
    _emit(fmt, " ".join(f"({i},{j})" for i, j in ts) if ts else "(empty)",
          {"n": len(w), "w": perm_to_str(w),
           "transpositions": [list(t) for t in ts]})
    return 0


def _cmd_modular(args, fmt) -> int:
    from .lab import modular_relation
    w = _perm(args)
    if not 1 <= args.s < len(w):
        raise InputError(f"--s must be in 1..{len(w) - 1}" if len(w) > 1
                         else "--s: rank 1 has no simple reflection; give "
                              "--w of rank 2 or more")
    try:
        rel = modular_relation(w, args.s, len(w) <= MAX_ROW_N)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    lines = [f"case: {rel.case}", f"identity: {rel.identity()}"]
    if rel.z is not None:
        lines.append(f"z = {perm_to_str(rel.z)}")
    lines.append("verified: " + ("yes (exact character computation)"
                                 if rel.verified else "asserted by theorem"))
    _emit(fmt, "\n".join(lines), rel.to_json())
    return 0


def _cmd_counterexample(args, fmt) -> int:
    from .csf import counterexample_search, csf_batch
    m = _parsed(parse_hessenberg, args.m)
    if len(m) > MAX_SEARCH_N:
        raise InputError(f"--m must have rank at most {MAX_SEARCH_N}")
    result = counterexample_search(m, csf_batch(len(m)) if args.general
                                   else None)
    payload = {"m1": hessenberg_to_str(m), "general": args.general,
               "found": result is not None}
    if result is None:
        text = "NOT FOUND"
    else:
        payload.update(m0=hessenberg_to_str(result.m0),
                       m2=hessenberg_to_str(result.m2), shift=result.shift)
        extra = f" (shift a={result.shift})" if args.general else ""
        text = f"FOUND m0={payload['m0']} m2={payload['m2']}{extra}"
    _emit(fmt, text, payload)
    outcome = "notfound" if result is None else "found"
    return 0 if args.expect in (None, outcome) else 1


def _cmd_decompose(args, fmt) -> int:
    from .lab import decompose_codominant
    from .qpoly import poly_json, poly_str
    w = _perm(args)
    if args.max_n > MAX_DECOMPOSE_N:
        raise InputError(f"--max-n must be at most {MAX_DECOMPOSE_N}")
    result = decompose_codominant(w, max_n=args.max_n)
    payload = {"w": perm_to_str(w), "known": result is not None}
    if result is None:
        text = "UNKNOWN"
    else:
        terms = sorted(result.items(), key=lambda it: (it[0].length(), it[0]))
        payload["terms"] = [[perm_to_str(u), poly_json(c)] for u, c in terms]
        text = "\n".join(f"C'[{perm_to_str(u)}]: {poly_str(c)}"
                         for u, c in terms)
    _emit(fmt, text, payload)
    return 1 if args.expect == "found" and result is None else 0


def _cmd_check(args, fmt) -> int:
    from .lab import check_suite
    try:
        reports = check_suite(args.n,
                              None if args.name == "all" else [args.name])
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for rep in reports:
        _emit(fmt, str(rep), rep.to_json())
    return 0 if all(rep.status == "pass" for rep in reports) else 1


def _cmd_hessenberg(args, fmt) -> int:
    if not 1 <= args.n <= MAX_HESSENBERG_N:
        raise InputError(f"--n must be in 1..{MAX_HESSENBERG_N}")
    functions = [hessenberg_to_str(m) for m in enumerate_hessenberg(args.n)]
    _emit(fmt, "\n".join(functions),
          {"n": args.n, "count": len(functions), "functions": functions})
    return 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hecke-lab",
        description="Exact Kazhdan-Lusztig / Hecke character / chromatic "
                    "quasisymmetric function computations for S_n.")
    parser.add_argument("--format", choices=("text", "json", "latex"),
                        default="text", help="output format")
    parser.add_argument("--cache-dir",
                        help="accepted and ignored: no command reads or "
                             "writes a cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="accepted and ignored: no command reads or "
                             "writes a cache")
    parser.add_argument("--threads", type=int, choices=(1,), default=1,
                        help="every command runs in one process; only 1 is "
                             "accepted, and it changes nothing")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = command("kl", _cmd_kl, help="Kazhdan-Lusztig polynomial(s) below w")
    p.add_argument("--w", required=True)
    p.add_argument("--z", help="bottom permutation ('e' for the identity); "
                               "omit to print the whole row of w")

    p = command("cprime", _cmd_cprime, help="q^(l/2) C'_w in the T-basis")
    p.add_argument("--w", required=True)

    p = command("chi", _cmd_chi, help="Hecke character chi^lambda(T_w)")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="partition, e.g. 2,1")
    p.add_argument("--w", required=True)

    p = command("ch", _cmd_ch, help="Frobenius character of q^(l/2) C'_w")
    p.add_argument("--w", required=True)
    p.add_argument("--basis", choices=("m", "e", "h", "p", "s"), default="s")

    p = command("csf", _cmd_csf,
                help="chromatic quasisymmetric function of G_m")
    p.add_argument("--m", required=True, help="Hessenberg function, e.g. 2,3,3")
    p.add_argument("--basis", choices=("m", "e", "h", "p", "s"), default="m")

    p = command("smooth-reduce", _cmd_smooth_reduce,
                help="codominant permutation with the same character")
    p.add_argument("--w", required=True)

    p = command("moment-graph", _cmd_moment_graph,
                help="transpositions below w")
    p.add_argument("--w", required=True)

    p = command("modular", _cmd_modular,
                help="modular relation dichotomy at (w, s)")
    p.add_argument("--w", required=True)
    p.add_argument("--s", type=int, required=True, help="simple reflection index")

    p = command("counterexample", _cmd_counterexample,
                help="search for (m0, m2) with (1+q)csf(m1) = "
                     "csf(m2) + q csf(m0)")
    p.add_argument("--m", required=True, help="the Hessenberg function m1")
    p.add_argument("--general", action="store_true",
                   help="scan shifted equations without the edge-count filter")
    p.add_argument("--expect", choices=("found", "notfound"),
                   help="exit 1 if the outcome differs")

    p = command("decompose", _cmd_decompose,
                help="decompose ch(q^(l/2) C'_w) over codominant "
                     "characters with N[q] coefficients")
    p.add_argument("--w", required=True)
    p.add_argument("--max-n", type=_positive_int, default=6, dest="max_n",
                   help="bound for the exact fallback search (default 6)")
    p.add_argument("--expect", choices=("found",),
                   help="exit 1 if the decomposition is Unknown")

    p = command("check", _cmd_check, help="run a named exhaustive check")
    p.add_argument("--name", required=True, help="a check name, or all")
    p.add_argument("--n", type=int, required=True)

    p = command("hessenberg", _cmd_hessenberg,
                help="enumerate Hessenberg functions")
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "latex" and not _has_latex(args):
            what = "kl without --z" if args.command == "kl" else args.command
            raise InputError(f"{what} has no LaTeX form; "
                             "use --format text or json")
        if getattr(args, "w", "").strip() == "e":  # 'e' names no rank
            raise InputError("--w cannot be 'e'; write the identity as 12...n")
        if hasattr(args, "w"):
            args.w = _parsed(parse_perm, args.w)
        return args.handler(args, args.format)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
