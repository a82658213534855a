"""
Traced run of one ``hecke-lab`` command, and the span arithmetic the
benchmark reads from it.

Run as ``python tracer.py OUT.json -- <hecke-lab arguments>`` with the
program's ``src`` directory on PYTHONPATH.  It wraps the public functions of
each heckelab module in spans, calls ``heckelab.cli.main(argv)``, writes the
call tree and counters to OUT.json and exits with main's exit code.  Nothing
under ``src/`` is changed: ``from .x import f`` binds ``f`` in the importing
module at import time, so every heckelab module attribute that is the
original function is replaced by its wrapper.

Spans are merged by call path into a tree of nodes
``{"calls": int, "total": seconds, "children": {name: node}}``.  A layer's
self time is a node's total minus its children's totals, summed over every
node with that name; spans of one thread nest, so this is exact.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter


def new_node() -> dict:
    return {"calls": 0, "total": 0.0, "children": {}}


class Tracer:
    """Call-path tree of spans plus named counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = new_node()
        self.stack = [self.root]
        self.counts = Counter()

    def wrap(self, name: str, fn):
        """``fn`` inside a span called ``name``."""
        stack, clock = self.stack, self.clock

        def traced(*args, **kwargs):
            children = stack[-1]["children"]
            node = children.get(name)
            if node is None:
                node = children[name] = new_node()
            stack.append(node)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                node["total"] += clock() - start
                node["calls"] += 1
                stack.pop()

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function whose every step is a span ``name``."""
        step = self.wrap(name, next)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return traced


def self_times(root: dict) -> dict:
    """{name: [calls, self seconds]} summed over every node of the tree."""
    out: dict[str, list] = {}

    def visit(name, node):
        inner = 0.0
        for child_name, child in node["children"].items():
            inner += child["total"]
            visit(child_name, child)
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += node["calls"]
        acc[1] += node["total"] - inner

    for name, node in root["children"].items():
        visit(name, node)
    return out


def covered(own: dict) -> float:
    """Seconds attributed to the compute and cache layers: the self time of
    every span in ``own`` (from ``self_times``) except the ``lab.*`` spans.
    Every command runs inside a ``lab.*`` span, so counting their self time
    would make any trace look fully covered."""
    return sum(s for name, (_, s) in own.items()
               if not name.startswith("lab."))


def merge(into: dict, tree: dict) -> None:
    """Add the span tree ``tree`` into ``into``, node by node."""
    into["calls"] += tree["calls"]
    into["total"] += tree["total"]
    for name, child in tree["children"].items():
        merge(into["children"].setdefault(name, new_node()), child)


# -- instrumenting heckelab ---------------------------------------------------

def _rebind(original, replacement) -> None:
    """Point every heckelab module attribute bound to ``original`` at
    ``replacement``."""
    for modname, module in list(sys.modules.items()):
        if modname == "heckelab" or modname.startswith("heckelab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer):
    """Wrap the layer functions of heckelab; returns the original
    ``frobenius_cprime``, whose lru_cache ``finish`` reads."""
    # by module path: the package re-exports functions named like modules
    cache, characters, csf, hecke, lab, permutations, symfunc = (
        importlib.import_module(f"heckelab.{name}") for name in
        ("cache", "characters", "csf", "hecke", "lab", "permutations",
         "symfunc"))
    importlib.import_module("heckelab.cli")
    counts = tracer.counts

    def function(module, attr, name, fn=None):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, fn or original))

    def method(cls, attr, name, fn=None):
        setattr(cls, attr, tracer.wrap(name, fn or getattr(cls, attr)))

    # cache: bytes are file sizes; a load hit returns a payload
    load, store = cache.Cache.load, cache.Cache.store

    def traced_load(self, kind, name):
        counts["cache.load.bytes"] += _size(self._path(name))
        payload = load(self, kind, name)
        hit = "hits" if payload is not None else "misses"
        counts[f"cache.load.{hit}"] += 1
        counts[f"cache.load.{hit}.{kind}"] += 1
        return payload

    def traced_store(self, kind, name, payload):
        store(self, kind, name, payload)
        counts["cache.store.calls"] += 1
        counts["cache.store.bytes"] += _size(self._path(name))

    method(cache.Cache, "load", "cache.load", traced_load)
    method(cache.Cache, "store", "cache.store", traced_store)

    # characters: a table build is a call that finds neither memo nor file
    table = characters.character_table

    def traced_table(n, *args, **kwargs):
        memo = n in getattr(characters, "_tables", {})
        loads = counts["cache.load.hits.chartable"]
        out = table(n, *args, **kwargs)
        if not memo and counts["cache.load.hits.chartable"] == loads:
            counts["characters.character_table.builds"] += 1
        return out

    function(characters, "character_table", "characters.character_table",
             traced_table)
    function(characters, "chi", "characters.chi")
    frob = characters.frobenius_cprime
    function(characters, "frobenius_cprime", "characters.frobenius_cprime")

    # csf: a batch build computes every Hessenberg function of its rank
    batch = csf.csf_batch

    def traced_batch(n, *args, **kwargs):
        memo = n in getattr(csf, "_batches", {})
        loads = counts["cache.load.hits.csf"]
        out = batch(n, *args, **kwargs)
        if not memo and counts["cache.load.hits.csf"] == loads:
            counts["csf.batch_functions"] += len(out)
        return out

    function(csf, "csf_batch", "csf.csf_batch", traced_batch)
    function(csf, "csf", "csf.csf")
    function(csf, "csf_oracle", "csf.csf_oracle")

    # hecke: rows that enter the in-memory store, built or loaded
    row = hecke.KLRowStore.row

    def traced_row(self, y):
        fresh = y not in getattr(self, "_rows", (y,))
        out = row(self, y)
        if fresh:
            counts["hecke.rows_materialized"] += 1
            counts["hecke.row_entries"] += len(out)
        return out

    method(hecke.KLRowStore, "row", "hecke.row", traced_row)

    method(symfunc.SymmetricFunction, "convert", "symfunc.convert")
    method(symfunc.SymmetricFunction, "__eq__", "symfunc.eq")

    for attr in ("bruhat_leq", "transpositions_below", "hessenberg_of_smooth",
                 "enumerate_hessenberg"):
        function(permutations, attr, f"permutations.{attr}")
    original = permutations.all_perms
    _rebind(original, tracer.wrap_generator("permutations.all_perms", original))
    for attr in ("is_smooth", "lower_covers"):
        method(permutations.Perm, attr, f"permutations.Perm.{attr}")

    function(lab, "counterexample_search", "lab.counterexample_search")
    checks = lab.CHECKS
    for name, fn in list(checks.items()):
        wrapped = tracer.wrap(f"lab.check.{name}", fn)
        checks[name] = wrapped
        _rebind(fn, wrapped)
    return frob


def finish(tracer: Tracer, frobenius_cprime) -> None:
    """Counters read once the command has ended."""
    info = frobenius_cprime.cache_info()
    tracer.counts["characters.frobenius_cprime.hits"] = info.hits
    tracer.counts["characters.frobenius_cprime.misses"] = info.misses
    tracer.counts["hecke.rows_built"] = (tracer.counts["hecke.rows_materialized"]
                                         - tracer.counts["cache.load.hits.klrow"])


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <hecke-lab arguments>")
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    frob = install(tracer)
    from heckelab import cli
    start = time.perf_counter()
    try:
        rc = cli.main(cli_args)
    finally:
        wall = time.perf_counter() - start
        finish(tracer, frob)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"main_s": wall, "tree": tracer.root,
                       "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
