"""
The two names of the disk cache that bench/tracer.py binds when it
installs: a load that always misses and a store that keeps nothing.  No
command reads or writes a cache file; the csf batch of a rank is built in
memory (csf.csf_batch), which costs less than building it and its file.
"""


class Cache:
    def load(self, kind: str, name: str):
        return None

    def store(self, kind: str, name: str, payload) -> None:
        pass
