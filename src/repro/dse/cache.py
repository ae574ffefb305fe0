"""Content-addressed evaluation cache.

An evaluation is a pure function of (application fingerprint, device
spec, design point, simulation parameters, model version); the cache
key is the SHA-256 of that tuple's canonical JSON. Hits are exact —
no version drift, no app collisions — so a second search of the same
space is all lookups.

Two tiers: an in-process dict (always on) and an optional on-disk
directory of ``<key>.json`` files (``EvalCache(directory)``, ``--cache
DIR`` on the command line), shared across processes. Disk writes are atomic (write-then-rename) so concurrent
searches cannot observe torn entries; unreadable or corrupt files
count as misses and are rewritten.
"""

import hashlib
import json
import os

#: Bump when the evaluation semantics change (cost model, latency
#: model, area accounting) — old cache entries stop matching.
#: v2: certified worst-case analytic p99 joined the evaluation.
MODEL_VERSION = 2


def cache_key(app_fingerprint, device, point, *, sim_cycles, seed,
              latency_streams):
    """The content address of one evaluation."""
    payload = {
        "v": MODEL_VERSION,
        "app": app_fingerprint,
        "device": device.as_dict(),
        "point": point.as_dict(),
        "sim_cycles": sim_cycles,
        "seed": seed,
        "latency_streams": latency_streams,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class EvalCache:
    """In-memory + optional on-disk evaluation store."""

    def __init__(self, directory=None):
        self.directory = directory
        self._memory = {}
        self.hits = 0
        self.misses = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key):
        """The cached evaluation dict, or ``None``."""
        value = self._memory.get(key)
        if value is not None:
            self.hits += 1
            return value
        if self.directory:
            try:
                with open(self._path(key)) as handle:
                    value = json.load(handle)
            except (OSError, ValueError):
                value = None
            if value is not None:
                self._memory[key] = value
                self.hits += 1
                return value
        self.misses += 1
        return None

    def put(self, key, value):
        self._memory[key] = value
        if self.directory:
            path = self._path(key)
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w") as handle:
                json.dump(value, handle, sort_keys=True)
            os.replace(tmp, path)

    def __len__(self):
        return len(self._memory)
