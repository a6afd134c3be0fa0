"""Global content-addressed result cache for the sweep service.

Every completed design-point evaluation is published here under a key
derived from *what was evaluated*, not which job asked for it:

    sha256(schema | benchmark | point_id | scale | fingerprint)

``point_id`` is the existing sha256[:12] content hash of the
:class:`~repro.dse.space.DesignPoint` (so the key inherits every design
axis), and ``fingerprint`` is the result fingerprint
(:data:`repro.fingerprint.RESULT`): a hash over the source of every
layer from the workload and the front end through the simulators to
the timing, cache and power models.  Two jobs sweeping overlapping
spaces therefore pay for the union of their points exactly once — and a
code change to any layer that could alter a metric silently invalidates
the whole cache rather than serving stale numbers.

Writes are atomic (same-directory temp + ``os.replace``, via the DSE
store's helper) and torn/stale entries read as misses, so many server
processes may share one cache directory.

:class:`SingleFlight` closes the remaining window: within one server,
two *concurrent* jobs wanting the same not-yet-cached key share one
in-flight computation — the first claims the key and computes, later
claimants await the same future.
"""

import hashlib
import os

from repro.dse.store import atomic_write_json
from repro.fingerprint import RESULT, fingerprint
from repro.obs import core as obs_core
from repro.obs import metrics as obs_metrics

#: Bump when the cache entry layout (or key recipe) changes.
CACHE_SCHEMA = "repro.serve.cache/v2"


class GlobalResultCache:
    """One directory of content-addressed evaluation results.

    Entries are sharded into 256 two-hex-char subdirectories so a
    long-lived service cache never collects millions of files in one
    directory.
    """

    def __init__(self, root, code=None):
        self.root = os.path.expanduser(root)
        self.code = code if code is not None else fingerprint(RESULT)

    def key(self, benchmark, point_id, scale):
        payload = "|".join([CACHE_SCHEMA, benchmark, point_id, scale,
                            self.code])
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def path(self, key):
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, benchmark, point_id, scale):
        """The cached result blob, or None when absent/torn/stale."""
        if not obs_core.enabled:
            return self._get(benchmark, point_id, scale)
        with obs_metrics.timer("serve.cache.lookup_seconds"):
            return self._get(benchmark, point_id, scale)

    def _get(self, benchmark, point_id, scale):
        import json

        key = self.key(benchmark, point_id, scale)
        try:
            with open(self.path(key)) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):
            return None
        if entry.get("schema") != CACHE_SCHEMA:
            return None
        if entry.get("fingerprint") != self.code:
            return None  # key collision can't happen, but belt and braces
        blob = entry.get("result")
        if (not isinstance(blob, dict) or blob.get("benchmark") != benchmark
                or (blob.get("point") or {}).get("id") != point_id):
            return None
        return blob

    def put(self, benchmark, point_id, scale, blob):
        """Publish one result blob (atomic); returns its cache key."""
        key = self.key(benchmark, point_id, scale)
        atomic_write_json(self.path(key), {
            "schema": CACHE_SCHEMA,
            "key": key,
            "benchmark": benchmark,
            "point_id": point_id,
            "scale": scale,
            "fingerprint": self.code,
            "result": blob,
        })
        return key

    def entries(self):
        """Number of entries on disk (any generation/fingerprint)."""
        count = 0
        try:
            shards = os.listdir(self.root)
        except OSError:
            return 0
        for shard in shards:
            try:
                count += sum(1 for n in os.listdir(os.path.join(self.root, shard))
                             if n.endswith(".json"))
            except OSError:
                continue
        return count

    def __repr__(self):
        return "<GlobalResultCache %s>" % self.root


class SingleFlight:
    """Per-server in-flight registry: one computation per cache key.

    The first claimant of a key becomes its *owner* (it must arrange
    for the computation and eventually :meth:`resolve` the key); every
    later claimant receives the same future.  Futures resolve to a
    ``(blob, error)`` pair — exactly one of the two is set — and are
    popped on resolution, so a failed key can be re-claimed (and
    re-tried) by a later job.

    The registry is shared by every **concurrently running** compute
    batch (the server keeps up to ``max_running`` batches in flight on
    the warm worker pool): a job submitted while another job's batch is
    already computing an overlapping key coalesces onto that batch's
    future instead of scheduling the point twice, and cancelling the
    waiting job never cancels the owner's future (waiters shield it).
    """

    def __init__(self):
        self._futures = {}

    def claim(self, key, loop):
        """Return ``(future, is_owner)`` for ``key``."""
        fut = self._futures.get(key)
        if fut is not None and not fut.done():
            return fut, False
        fut = loop.create_future()
        self._futures[key] = fut
        return fut, True

    def resolve(self, key, blob, error=None):
        """Deliver the outcome for ``key``; True when it reached claimants.

        A second resolve of the same key is a no-op returning False, so
        publishers may be defensive (publish again after a batch) without
        double-counting.
        """
        fut = self._futures.pop(key, None)
        if fut is not None and not fut.done():
            fut.set_result((blob, error))
            return True
        return False

    def keys(self):
        """Cache keys currently being computed (unresolved claims)."""
        return sorted(k for k, f in self._futures.items() if not f.done())

    def __len__(self):
        return sum(1 for f in self._futures.values() if not f.done())
