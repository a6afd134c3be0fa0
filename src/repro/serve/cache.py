"""Global content-addressed result cache for the sweep service.

Every completed design-point evaluation is published here under what
was evaluated, not which job asked for it: the benchmark, the point id
(the sha256[:12] content hash of the
:class:`~repro.dse.space.DesignPoint`, so every design axis is part of
it), the scale and the result fingerprint
(:data:`repro.fingerprint.RESULT`: a hash over the source of every
layer from the workload and the front end through the simulators to
the timing, cache and power models).  Two jobs sweeping overlapping
spaces therefore pay for the union of their points exactly once — and a
code change to any layer that could alter a metric silently invalidates
the whole cache rather than serving stale numbers.

The cache is a view on one :class:`~repro.dse.store.ResultStore` per
scale and fingerprint, ``<cache>/<scale>-<fingerprint>/``.  The sweep
workers write their points straight into it, one segment per task, so a
computed point is encoded once and creates no file of its own.  A
lookup consults the store's index, which records where each point's
line sits and holds no blobs; a hit reads that one line and decodes
only its ``metrics`` member (:meth:`~repro.dse.store.ResultStore.metrics`),
which is all a streamed event carries.
The index sees other writers' lines once the store is refreshed: the
server refreshes a job's benchmarks when the job starts (picking up
what other servers sharing the directory wrote) and a task's benchmark
when the task's points are published.  Each writer appends to a
segment of its own, so many server processes may share one cache
directory.

:class:`SingleFlight` closes the remaining window: within one server,
two *concurrent* jobs wanting the same not-yet-cached key share one
in-flight computation — the first claims the key and computes, later
claimants await the same future.
"""

import hashlib
import os
import threading

from repro.dse.store import ResultStore
from repro.fingerprint import RESULT, fingerprint
from repro.obs import core as obs_core

#: Bump when the cache entry layout (or key recipe) changes.
CACHE_SCHEMA = "repro.serve.cache/v3"


class GlobalResultCache:
    """Content-addressed evaluation results under one directory."""

    def __init__(self, root, code=None):
        self.root = os.path.expanduser(root)
        self.code = code if code is not None else fingerprint(RESULT)
        self._stores = {}
        self._lock = threading.Lock()

    def key(self, benchmark, point_id, scale):
        """The in-flight key of one evaluation (:class:`SingleFlight`)."""
        payload = "|".join([CACHE_SCHEMA, benchmark, point_id, scale,
                            self.code])
        return hashlib.sha256(payload.encode()).hexdigest()[:24]

    def store(self, scale):
        """The result store holding this cache's entries at ``scale``."""
        with self._lock:
            store = self._stores.get(scale)
            if store is None:
                store = self._stores[scale] = ResultStore(os.path.join(
                    self.root, "%s-%s" % (scale, self.code)))
            return store

    def get(self, benchmark, point_id, scale):
        """The cached point's metrics, or None when absent/torn/stale.

        Lines other writers appended since the store's last
        :meth:`~repro.dse.store.ResultStore.refresh` are not seen.
        """
        with obs_core.timer("serve.cache.lookup_seconds"):
            return self._get(benchmark, point_id, scale)

    def _get(self, benchmark, point_id, scale):
        return self.store(scale).metrics(benchmark, point_id, self.code)

    def put(self, benchmark, point_id, scale, blob):
        """Publish one result blob unless the cache holds it already;
        returns its key."""
        if self._get(benchmark, point_id, scale) is None:
            self.store(scale).save(blob)
        return self.key(benchmark, point_id, scale)

    def entries(self):
        """Number of points the current code's entries cover, over every
        scale; counted from the stores' indexes, no blob is parsed."""
        suffix = "-" + self.code
        try:
            names = os.listdir(self.root)
        except OSError:
            return 0
        return sum(len(self.store(name[:-len(suffix)]).completed_keys())
                   for name in names if name.endswith(suffix))

    def close(self):
        """Close the segments :meth:`put` appended to."""
        with self._lock:
            for store in self._stores.values():
                store.close()

    def __repr__(self):
        return "<GlobalResultCache %s>" % self.root


class SingleFlight:
    """Per-server in-flight registry: one computation per cache key.

    The first claimant of a key becomes its *owner* (it must arrange
    for the computation and eventually :meth:`resolve` the future it
    claimed); every later claimant receives the same future.  Futures
    resolve to a ``(metrics, error)`` pair — exactly one of the two is
    set — and are popped on resolution, so a failed key can be
    re-claimed (and re-tried) by a later job.

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

    def resolve(self, key, fut, metrics, error=None):
        """Deliver the outcome to ``fut``, a claim of ``key``; True when
        it reached claimants.

        Only that claim is touched: once it is resolved a later job may
        claim ``key`` again, and resolving the first future a second
        time is a no-op returning False that leaves the new claim
        pending.  So publishers may be defensive (publish again after a
        batch) without double-counting or failing another batch's
        point.
        """
        if self._futures.get(key) is fut:
            del self._futures[key]
        if fut.done():
            return False
        fut.set_result((metrics, error))
        return True

    def keys(self):
        """Cache keys currently being computed (unresolved claims)."""
        return sorted(k for k, f in self._futures.items() if not f.done())

    def __len__(self):
        return sum(1 for f in self._futures.values() if not f.done())
