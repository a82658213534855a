"""
Versioned JSON disk cache.  It holds one kind of file: the csf batch of a
rank (see csf.csf_batch), the only result that is cheaper to load than to
rebuild.  A load beats the Dyck-word DP at every rank from 5 to 10, in
0.3 to 0.5 of its time: 0.4 against 0.9 ms at n = 5, 0.23 against 0.68 s
at n = 9 and 1.16 against 3.97 s at n = 10 (one core, best of three).  Only
``hecke-lab counterexample --general`` reads and writes it: the default
search computes the few functions it reads faster than a load (at n = 8,
106 functions in 0.02 s).

Every file is self-describing: {"format": "heckelab/<kind>", "version": V,
"payload": {...}}.  Files that are not such an object, or have an unexpected
format or version, are ignored, never migrated; the caller simply
recomputes and overwrites.  The payload is the caller's: heckelab.csf
writes and parses the csf batch, and treats one of the wrong shape as a
miss.  The command line's ``--cache-dir`` names the directory.
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

