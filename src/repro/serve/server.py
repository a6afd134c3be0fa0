"""The asyncio sweep server: job queue, sharded compute, dedupe, streams.

Architecture (one process, one event loop)::

    client ──ndjson──► connection handler ──► Job (queued)
                                               │  job slots (bounded)
                                               ▼
                 ┌──────────── _run_job ───────────────┐
                 │ per (benchmark, point):             │
                 │   global cache hit? ──► emit cached │
                 │   in-flight?         ──► await same │
                 │   else claim key     ──► compute    │
                 └──────────────┬──────────────────────┘
                                ▼ (one batch per job, concurrent)
                 thread: run_tasks(_sweep_worker, …)   ← the warm
                         workers append to the cache    worker pool
                         store, one segment per task
                                ▼ per finished task: each point's
                                  metrics, read from its line
                 loop: SingleFlight.resolve (one callback per task)
                                ▼
                 every waiting job emits the point, exactly once,
                 as the encoded event bytes it keeps for ``watch``

The heavy lifting reuses :func:`repro.dse.scheduler.run_tasks` (process
isolation, per-point timeout, bounded retries, crash-safe resume) — the
server adds the long-running job lifecycle, the bounded queue with
backpressure, the global content-addressed cache, and single-flight so
two concurrent jobs never compute the same design point twice.  A
compute batch hands each worker nothing but its task's payload: the
worker loads its unit's image and trace from the trace store itself,
so the server reads and decodes no trace.  The
workers write their points straight into the global cache's result
store (:mod:`repro.serve.cache`), so a computed point is written once;
when a task finishes the server refreshes the store's index for the
task's benchmark, reads the ``metrics`` member of its points' lines and
resolves them.  A job refreshes the index for each of its benchmarks
once, when it starts, which is when the points other servers sharing
the cache wrote become hits.  No job keeps a result blob: a job keeps
its events as encoded bytes, and the ``results`` op reads the blobs of
the points it served back from the store.  ``--state`` holds only the
worker metric snapshots.

Up to ``max_running`` compute batches run **concurrently**: each batch
registers its own task group on the persistent warm worker pool
(:mod:`repro.dse.pool`), whose dispatcher interleaves the groups
fair-share — a long sweep no longer head-of-line-blocks a smoke job,
and single-flight keys are shared across the in-flight batches.  At
``--jobs 1`` batches run in the server process, one task at a time.

Observability: the server root span, per-job ``serve.job`` spans and
per-point ``serve.point`` spans parent-link into the hierarchical trace
(workers inherit the context through ``export_spec`` exactly like CLI
sweeps); ``serve.*`` counters/gauges track queue depth, cache hit
ratio and in-flight points; each finished job additionally emits a
manifest event so ``python -m repro.obs.report --jsonl`` surfaces the
service counters; completed jobs can append to the metrics trajectory.
"""

import asyncio
import os
import signal
import sys
import time
import traceback

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.dse import pool as dse_pool
from repro.dse.scheduler import _chunk_tasks, _sweep_worker, run_tasks
from repro.serve import api
from repro.serve.cache import GlobalResultCache, SingleFlight
from repro.serve.protocol import (
    PROTOCOL,
    ProtocolError,
    encode,
    parse_address,
    read_message,
    write_message,
)


def _serve_base():
    from repro.sim.functional.store import _repo_root

    return os.path.join(_repo_root(), ".serve")


def default_socket_path():
    return os.path.join(_serve_base(), "serve.sock")


def _default_compute(server, scale, items, publish):
    """Thread-side compute: shard ``items`` over the DSE worker pool.

    ``items`` is a list of ``(benchmark, DesignPoint, cache_key)``
    triples that were neither cached nor in flight; each
    (benchmark, ISA) unit of them is one task.  The workers append the
    results to the cache's store for ``scale``; each task's completion
    publishes its points' outcomes (their metrics, read from the store)
    back to the event loop in one call, so a job streams points as
    tasks finish rather than when the whole batch does.
    """
    store = server.cache.store(scale)
    keymap = {(b, p.point_id): key for b, p, key in items}
    pairs = [(b, p) for b, p, _key in items]
    payloads = _chunk_tasks(pairs, store.root, scale)
    timeout = None
    if server.timeout_per_point is not None:
        timeout = server.timeout_per_point * max(
            len(p["points"]) for p in payloads)

    def flush(task_result):
        benchmark = task_result.payload["benchmark"]
        store.refresh(benchmark)    # the lines the task's worker wrote
        outcomes = []
        for pdict in task_result.payload["points"]:
            key = keymap[(benchmark, pdict["id"])]
            metrics = store.metrics(benchmark, pdict["id"], server.cache.code)
            if metrics is not None:
                outcomes.append((key, metrics, None))
                continue
            failure = store.failure(benchmark, pdict["id"]) or {}
            outcomes.append((key, None, failure.get("error")
                             or task_result.error or "evaluation failed"))
        publish(outcomes)

    with obs.span("serve.compute", points=len(items), scale=scale):
        run_tasks(_sweep_worker, payloads, jobs=server.worker_jobs,
                  timeout=timeout, retries=server.retries, label="serve",
                  progress=flush)


class ServeServer:
    """Long-running sweep service on a local (unix or tcp) socket.

    ``compute_fn(server, scale, items, publish)`` evaluates one batch of
    ``(benchmark, DesignPoint, key)`` items on a worker thread: it lands
    each result in ``server.cache`` and calls ``publish(outcomes)`` with
    ``(key, metrics, error)`` triples, once per finished task.
    """

    def __init__(self, address=None, cache_root=None, state_dir=None,
                 worker_jobs=1, max_pending=8, max_running=2,
                 timeout_per_point=None, retries=1,
                 record_trajectory=False, trajectory_path=None,
                 compute_fn=None):
        self.address = address or default_socket_path()
        base = _serve_base()
        self.state_dir = os.path.expanduser(state_dir or
                                            os.path.join(base, "state"))
        self.cache = GlobalResultCache(cache_root or
                                       os.path.join(base, "cache"))
        self.flight = SingleFlight()
        self.worker_jobs = max(1, int(worker_jobs))
        self.max_pending = max(1, int(max_pending))
        self.timeout_per_point = timeout_per_point
        self.retries = retries
        self.record_trajectory = record_trajectory
        self.trajectory_path = trajectory_path
        self._compute_fn = compute_fn or _default_compute
        self.jobs = {}
        self.started_at = time.time()
        self.stats = {k: 0 for k in (
            "jobs_submitted", "jobs_completed", "jobs_failed",
            "jobs_cancelled", "jobs_rejected", "cache_hits", "cache_misses",
            "coalesced", "points_computed", "points_failed",
            "trajectory_records")}
        self._max_running = max(1, int(max_running))
        self._job_slots = None      # created on the loop
        self._shutdown = None
        self._compute_tasks = set()
        self._trace_ctx = None
        self._loop = None

    # -- bookkeeping ----------------------------------------------------

    def queue_depth(self):
        return sum(1 for j in self.jobs.values() if not j.terminal)

    def _update_gauges(self):
        hits, misses = self.stats["cache_hits"], self.stats["cache_misses"]
        obs.gauge("serve.queue.depth", self.queue_depth())
        obs.gauge("serve.points.inflight", len(self.flight))
        if hits + misses:
            obs.gauge("serve.cache.hit_ratio",
                      round(hits / float(hits + misses), 4))
        pool = dse_pool.pool_stats()
        if pool is not None:
            obs.gauge("serve.pool.workers", len(pool["workers"]))
            obs.gauge("serve.pool.busy",
                      sum(1 for w in pool["workers"] if w["busy"]))

    def _publish(self, claimed, outcomes):
        """Loop-side landing point for one finished task's outcomes;
        ``claimed`` maps each key of the batch to the future it claimed."""
        computed = failed = 0
        for key, metrics, error in outcomes:
            if self.flight.resolve(key, claimed[key], metrics, error):
                if error is None:
                    computed += 1
                else:
                    failed += 1
        if computed:
            self.stats["points_computed"] += computed
            obs.counter("serve.points.computed", computed)
        if failed:
            self.stats["points_failed"] += failed
            obs.counter("serve.points.failed", failed)
        self._update_gauges()

    # -- job execution --------------------------------------------------

    async def _compute(self, scale, items, claimed):
        """Run one compute batch in a thread; never leave futures hanging."""
        loop = asyncio.get_running_loop()

        def publish(outcomes):
            loop.call_soon_threadsafe(self._publish, claimed, outcomes)

        # no serialization here: up to max_running job batches run at
        # once, interleaved fair-share by the warm pool's dispatcher
        try:
            await asyncio.to_thread(
                self._compute_fn, self, scale, items, publish)
        finally:
            # only this batch's own claims: one the compute path already
            # resolved is a no-op here (even when a later job has since
            # claimed its key again), one it dropped becomes a failure
            # instead of a future that hangs every waiting job.
            self._publish(claimed, [(key, None, "compute batch ended "
                                     "without this point") for key in claimed])

    def _spawn_compute(self, scale, items, claimed):
        task = asyncio.get_running_loop().create_task(
            self._compute(scale, items, claimed))
        self._compute_tasks.add(task)
        task.add_done_callback(self._compute_tasks.discard)
        return task

    async def _run_job(self, job):
        if self._trace_ctx is not None:
            obs.adopt_trace_context(*self._trace_ctx)
        with obs.span("serve.job", job=job.id, space=job.space.name,
                      scale=job.scale, points=job.total):
            await job.start()
            job_t0 = time.perf_counter()
            loop = asyncio.get_running_loop()
            waits, owned, claimed = [], [], {}
            store = self.cache.store(job.scale)
            for benchmark in job.benchmarks:
                # once per job: what other servers sharing the cache
                # wrote since this server last looked
                store.refresh(benchmark)
                for point in job.space:
                    key = self.cache.key(benchmark, point.point_id, job.scale)
                    metrics = self.cache.get(benchmark, point.point_id,
                                             job.scale)
                    if metrics is not None:
                        self.stats["cache_hits"] += 1
                        obs.counter("serve.cache.hit")
                        with obs.span("serve.point", job=job.id,
                                      point=point.point_id, cached=True):
                            await job.emit_point(benchmark, point, metrics,
                                                 cached=True)
                        obs.observe("serve.point.seconds",
                                    time.perf_counter() - job_t0)
                        continue
                    self.stats["cache_misses"] += 1
                    obs.counter("serve.cache.miss")
                    fut, owner = self.flight.claim(key, loop)
                    if not owner:
                        self.stats["coalesced"] += 1
                        obs.counter("serve.singleflight.coalesced")
                    else:
                        owned.append((benchmark, point, key))
                        claimed[key] = fut
                    waits.append((benchmark, point, fut, owner))
            self._update_gauges()
            if owned:
                self._spawn_compute(job.scale, owned, claimed)
            for benchmark, point, fut, owner in waits:
                # shield: cancelling this job must not cancel a future
                # other jobs are waiting on
                metrics, error = await asyncio.shield(fut)
                with obs.span("serve.point", job=job.id,
                              point=point.point_id, cached=False):
                    await job.emit_point(
                        benchmark, point, metrics, error=error,
                        coalesced=(not owner and error is None))
                obs.observe("serve.point.seconds",
                            time.perf_counter() - job_t0)
        await job.finish(api.FAILED if job.failed_points else api.DONE)
        self.stats["jobs_completed" if job.status == api.DONE
                   else "jobs_failed"] += 1
        obs.counter("serve.jobs.completed" if job.status == api.DONE
                    else "serve.jobs.failed")
        self._emit_job_manifest(job)
        if self.record_trajectory and job.computed:
            added = await asyncio.to_thread(self._record_trajectory, job)
            self.stats["trajectory_records"] += added

    async def _job_main(self, job):
        try:
            async with self._job_slots:
                await self._run_job(job)
        except asyncio.CancelledError:
            if not job.terminal:
                await job.finish(api.CANCELLED)
                self.stats["jobs_cancelled"] += 1
                obs.counter("serve.jobs.cancelled")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            job.error = "%s: %s" % (type(exc).__name__, exc)
            if not job.terminal:
                await job.finish(api.FAILED)
                self.stats["jobs_failed"] += 1
        finally:
            self._update_gauges()

    def _emit_job_manifest(self, job):
        """One manifest event per finished job, so a ``REPRO_OBS`` JSONL
        stream renders the service counters in ``repro.obs.report``."""
        wall = ((job.finished or time.time()) - (job.started or job.created))
        obs.emit({
            "kind": "manifest",
            "benchmark": "serve:%s" % job.id,
            "manifest": {
                "schema": obs.SCHEMA_VERSION,
                "benchmark": "serve:%s" % job.id,
                "scale": job.scale,
                "wall_seconds": wall,
                "stages": {},
                "counters": {
                    "serve.cache.hit": job.cache_hits,
                    "serve.singleflight.coalesced": job.coalesced,
                    "serve.points.computed": job.computed,
                    "serve.points.failed": job.failed_points,
                },
            },
        })

    def _record_trajectory(self, job):
        """Thread-side: bridge this job's computed blobs into the
        trajectory store (dedupe makes re-records no-ops)."""
        from repro.obs.regress import (
            TrajectoryStore,
            current_commit,
            records_from_dse_store,
        )

        records = records_from_dse_store(
            self.cache.store(job.scale), current_commit(),
            scale=job.scale, names=job.benchmarks)
        return TrajectoryStore(self.trajectory_path).append(records)

    # -- request handling -----------------------------------------------

    async def _handle_submit(self, msg, writer):
        try:
            space, benchmarks, scale = api.validate_submit(msg)
        except ProtocolError as exc:
            await write_message(writer, {"ok": False, "error": str(exc)})
            return
        if self.queue_depth() >= self.max_pending:
            self.stats["jobs_rejected"] += 1
            obs.counter("serve.jobs.rejected")
            await write_message(writer, {
                "ok": False, "retry": True,
                "error": "queue full (%d jobs pending, max %d); retry later"
                % (self.queue_depth(), self.max_pending)})
            return
        job = api.Job(space, benchmarks, scale)
        self.jobs[job.id] = job
        self.stats["jobs_submitted"] += 1
        obs.counter("serve.jobs.submitted")
        job.task = asyncio.get_running_loop().create_task(self._job_main(job))
        self._update_gauges()
        await write_message(writer, {"ok": True, "job": job.summary()})

    async def _handle_watch(self, msg, writer):
        job = self.jobs.get(msg.get("job"))
        if job is None:
            await write_message(writer, {
                "ok": False, "error": "unknown job %r" % msg.get("job")})
            return
        idx = max(0, int(msg.get("after_seq") or 0))
        await write_message(writer, {"ok": True, "job": job.summary()})
        while True:
            # every event pending at this wake-up goes out in one write
            pending = job.events[idx:]
            idx += len(pending)
            done = job.terminal
            if done:
                pending.append(encode(job.end_event()))
            if pending:
                writer.write(b"".join(pending))
                await writer.drain()
            if done:
                return
            async with job.changed:
                if idx >= len(job.events) and not job.terminal:
                    await job.changed.wait()

    def _server_summary(self):
        states = {s: 0 for s in api.JOB_STATES}
        for job in self.jobs.values():
            states[job.status] += 1
        hits, misses = self.stats["cache_hits"], self.stats["cache_misses"]
        return {
            "protocol": PROTOCOL,
            "pid": os.getpid(),
            "address": self.address,
            "started_at": self.started_at,
            "uptime": time.time() - self.started_at,
            "jobs": states,
            "queue_depth": self.queue_depth(),
            "max_pending": self.max_pending,
            "inflight_points": len(self.flight),
            "inflight_keys": self.flight.keys(),
            "pool": dse_pool.pool_stats(),
            "metrics": {name: obs_metrics.summarize(hist)
                        for name, hist
                        in sorted(obs.histograms().items())},
            "cache": {
                "root": self.cache.root,
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / float(hits + misses)
                              if hits + misses else None),
                "entries": self.cache.entries(),
            },
            "stats": dict(self.stats),
        }

    async def _handle_status(self, msg, writer):
        reply = {"ok": True, "server": self._server_summary()}
        if msg.get("job"):
            job = self.jobs.get(msg["job"])
            if job is None:
                reply = {"ok": False, "error": "unknown job %r" % msg["job"]}
            else:
                reply["job"] = job.summary()
        await write_message(writer, reply)

    async def _handle_results(self, msg, writer):
        job = self.jobs.get(msg.get("job"))
        if job is None:
            await write_message(writer, {
                "ok": False, "error": "unknown job %r" % msg.get("job")})
            return
        # the summary and the points it counts, as of this request
        summary, served = job.summary(), list(job.served)
        store = self.cache.store(job.scale)

        def read():
            blobs = (store.load(benchmark, point_id)
                     for benchmark, point_id in served)
            return [blob for blob in blobs if blob is not None]

        results = await asyncio.to_thread(read)
        await write_message(writer, {
            "ok": True, "job": summary, "results": results})

    async def _handle_cancel(self, msg, writer):
        job = self.jobs.get(msg.get("job"))
        if job is None:
            await write_message(writer, {
                "ok": False, "error": "unknown job %r" % msg.get("job")})
            return
        if not job.terminal and job.task is not None:
            job.task.cancel()
            # let the cancellation land so the reply carries final state
            await asyncio.sleep(0)
            await asyncio.sleep(0)
        await write_message(writer, {"ok": True, "job": job.summary()})

    async def _handle_shutdown(self, msg, writer):
        await write_message(writer, {"ok": True, "server": self._server_summary()})
        self._shutdown.set()

    async def _handle_metrics(self, msg, writer):
        """One merged snapshot (server process + flushed worker files)
        plus its OpenMetrics text exposition."""
        snapshot = obs_metrics.merged_snapshot()
        await write_message(writer, {
            "ok": True,
            "snapshot": snapshot,
            "text": obs_metrics.render_openmetrics(snapshot)})

    async def _on_connection(self, reader, writer):
        try:
            msg = await read_message(reader)
            if msg is None:
                return
            op = msg.get("op")
            handler = {
                "submit": self._handle_submit,
                "watch": self._handle_watch,
                "status": self._handle_status,
                "results": self._handle_results,
                "cancel": self._handle_cancel,
                "metrics": self._handle_metrics,
                "shutdown": self._handle_shutdown,
            }.get(op)
            if handler is None:
                await write_message(writer, {
                    "ok": False,
                    "error": "unknown op %r (known: submit/watch/status/"
                    "results/cancel/metrics/shutdown)" % op})
                return
            with obs.timer("serve.request.seconds"):
                await handler(msg, writer)
        except ProtocolError as exc:
            try:
                await write_message(writer, {"ok": False, "error": str(exc)})
            except (ConnectionError, OSError):
                pass
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # client went away; watch streams pick up on reconnect
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- lifecycle ------------------------------------------------------

    def _prepare_unix_path(self, path):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        if os.path.exists(path):
            # a previous server that died without cleanup leaves the
            # socket file behind; only a *live* server is an error
            import socket as socket_mod

            probe = socket_mod.socket(socket_mod.AF_UNIX,
                                      socket_mod.SOCK_STREAM)
            try:
                probe.settimeout(0.5)
                probe.connect(path)
            except OSError:
                os.unlink(path)
            else:
                raise RuntimeError("another server is live on %s" % path)
            finally:
                probe.close()

    async def serve_forever(self, ready=None):
        """Run until a shutdown request or SIGTERM/SIGINT.

        ``ready`` is an optional ``threading.Event`` set once the socket
        is accepting connections (tests and scripts wait on it).
        """
        self._loop = asyncio.get_running_loop()
        self._job_slots = asyncio.Semaphore(self._max_running)
        self._shutdown = asyncio.Event()
        # The metrics op must always have something to report: if the
        # operator didn't configure REPRO_OBS, collect aggregate-only
        # (no event stream).  Worker processes flush their snapshots
        # under the state dir; both settings are restored on exit so an
        # in-process server (tests) leaves global obs state untouched.
        owns_obs = not obs.enabled
        if owns_obs:
            obs.enable(sink=None)
        prev_snapshot_dir = obs_metrics.snapshot_dir()
        metrics_dir = os.path.join(self.state_dir, "metrics")
        obs_metrics.set_snapshot_dir(metrics_dir)
        for stale in obs_metrics.read_snapshot_dir(metrics_dir):
            # a previous server's flushed files would double-count here
            try:
                os.unlink(os.path.join(metrics_dir, "m%d.json" % stale["pid"]))
            except (OSError, KeyError):
                pass
        root_span = obs.span("serve.server", address=self.address)
        root_span.__enter__()
        self._trace_ctx = obs.core.trace_context()

        kind, target = parse_address(self.address)
        if kind == "unix":
            self._prepare_unix_path(target)
            server = await asyncio.start_unix_server(
                self._on_connection, path=target)
        else:
            server = await asyncio.start_server(
                self._on_connection, host=target[0], port=target[1])
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._shutdown.set)
            except (NotImplementedError, RuntimeError, ValueError):
                break  # non-main thread / platform without handlers
        if ready is not None:
            ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()
            for job in self.jobs.values():
                if job.task is not None and not job.task.done():
                    job.task.cancel()
            await asyncio.gather(
                *(j.task for j in self.jobs.values() if j.task is not None),
                return_exceptions=True)
            if self._compute_tasks:
                await asyncio.gather(*tuple(self._compute_tasks),
                                     return_exceptions=True)
            if kind == "unix":
                try:
                    os.unlink(target)
                except OSError:
                    pass
            self._update_gauges()
            self.cache.close()
            root_span.__exit__(None, None, None)
            obs_metrics.flush()
            obs_metrics.set_snapshot_dir(prev_snapshot_dir)
            if owns_obs:
                obs.disable()
