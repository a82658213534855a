"""
Versioned JSON disk cache.  No command reads or writes it: the csf batch
of a rank is built in memory (csf.csf_batch), which in one process costs
less time and memory than building it and writing its file.  Only
bench/tracer.py imports this module, to time Cache.load and Cache.store;
it can be deleted once the benchmark stops tracing them.

Every file is self-describing: {"format": "heckelab/<kind>", "version": V,
"payload": {...}}.  Files that are not such an object, or have an unexpected
format or version, are ignored, never migrated.
"""

from __future__ import annotations

import json
import os
import tempfile

VERSIONS = {
    "csf": 1,
}


class Cache:
    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def _path(self, name: str) -> str:
        return os.path.join(self.directory, f"{name}.json")

    def load(self, kind: str, name: str):
        path = self._path(name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError):  # nested too deep
            return None
        if not isinstance(data, dict):
            return None
        if (data.get("format") != f"heckelab/{kind}"
                or data.get("version") != VERSIONS[kind]):
            return None
        return data.get("payload")

    def store(self, kind: str, name: str, payload) -> None:
        data = {
            "format": f"heckelab/{kind}",
            "version": VERSIONS[kind],
            "payload": payload,
        }
        path = self._path(name)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(data, sort_keys=True,
                                    separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

