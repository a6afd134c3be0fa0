"""Persistent warm worker pool for DSE sweeps and the sweep service.

``repro.dse.scheduler.run_tasks`` dispatches every multi-process batch
to a process-wide pool of long-lived workers, so no task pays
interpreter fork + module import + ``TimingPrecomp`` recomputation +
lzma decode of a stored trace its worker already did.  Workers stay
alive across ``run_tasks`` calls — and across serve jobs — so their
functional-sim memo (`repro.dse.evaluate._FUNC_CACHE`), timing
precomps, and decoded traces (the plane cache in
``sim/functional/store.py``) are warm for every task after the first.
A worker loads a unit's trace from the trace store itself; the
coordinator ships it nothing but the task payload, and shares no
memory with it.

Shape of the machinery:

* one duplex :func:`multiprocessing.Pipe` per worker; a single
  dispatcher thread waits on all worker pipes, collects completions,
  and centrally assigns the next task to whichever worker goes idle
  first — central assignment from a shared ready-list is the
  work-stealing property (a straggler never strands queued work behind
  it), without sharing a queue lock that a killed worker could corrupt;
* concurrent ``run`` calls (serve batches, parallel sweeps) each
  register a *group*; the dispatcher feeds idle workers round-robin
  across groups, capped per group at its requested ``jobs`` — the
  fair-share interleaving that keeps a smoke job progressing beside a
  long sweep;
* per-task obs export: each task ships the caller's ``obs.export_spec``
  snapshot plus its ``REPRO_*`` environment; workers re-apply either
  only when it changes, so worker spans parent under the coordinator's
  active span;
* failure semantics match ``run_tasks``'s contract bit-for-bit: a task
  that raises ``SystemExit(n)`` or whose worker dies reports ``"exit
  code n"``, a hung task is killed after ``timeout`` seconds and
  reports ``"timeout after Ns"``, and every failed attempt is re-queued
  while ``attempt <= retries`` — a crash re-queues *only* that task,
  and the worker is respawned.

The pool is created lazily on first use (`get_pool`), grows to the
largest ``jobs`` ever requested, and is torn down atexit.
"""

import atexit
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from multiprocessing import connection as mp_connection

from repro.obs import core as obs


def _context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        return multiprocessing.get_context("spawn")


def _repro_env():
    """The REPRO_* environment to mirror into workers for this task."""
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _sync_env(env):
    for key in [k for k in os.environ
                if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    for key, value in env.items():
        if os.environ.get(key) != value:
            os.environ[key] = value


_UNSET = object()


def _worker_main(conn, parent_conn=None):
    """Child process: serve tasks from ``conn`` until the quit sentinel."""
    import signal
    import sys

    if parent_conn is not None:
        parent_conn.close()
    # a forked worker inherits whatever handler the coordinator
    # installed (serve registers asyncio handlers) — restore the
    # default so terminate() actually terminates
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (OSError, ValueError):
        pass
    from repro import obs as obs_pkg
    from repro.obs import metrics as obs_metrics

    applied_base = _UNSET
    applied_trace = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:
            break
        task_id, func, payload, spec, env = msg
        _sync_env(env)
        # the trace context changes per batch (each batch exports under
        # its own span) but must NOT reset the metrics window — the
        # coordinator merges one cumulative m<pid>.json per worker, so a
        # full re-apply per batch would silently drop earlier deltas
        base = (None if spec is None
                else {k: v for k, v in spec.items() if k != "trace"})
        trace = None if spec is None else spec.get("trace")
        try:
            if base != applied_base:
                obs_pkg.apply_spec(spec)
                applied_base = base
            elif trace != applied_trace and trace is not None:
                obs_pkg.adopt_trace_context(trace.get("trace_id"),
                                            trace.get("parent_id"))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        applied_trace = trace
        ok, error = True, None
        try:
            func(payload)
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
            if code:
                ok, error = False, "exit code %s" % code
        except BaseException:
            traceback.print_exc(file=sys.stderr)
            ok, error = False, "exit code 1"
        if obs_pkg.enabled:
            try:
                obs_metrics.flush()
            except Exception:
                pass
        try:
            conn.send((task_id, ok, error))
        except (EOFError, OSError, BrokenPipeError):
            break
    try:
        conn.close()
    except OSError:
        pass


class _Group:
    """One ``run`` call's bookkeeping: its queue, cap, and results."""

    def __init__(self, worker, payloads, jobs, timeout, retries, label):
        self.worker = worker
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.label = label
        self.pending = deque((payload, 1) for payload in payloads)
        self.outstanding = len(self.pending)
        self.inflight = 0
        self.ready = []  # finished TaskResult-shaped tuples
        self.done = False
        self.cond = threading.Condition()
        self.obs_spec = obs.export_spec() if obs.enabled else None
        self.env = _repro_env()


class _Worker:
    __slots__ = ("proc", "conn", "task", "started", "spawned",
                 "tasks_done", "busy_seconds")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task = None  # (group, payload, attempt) while busy
        self.started = 0.0
        self.spawned = time.perf_counter()
        self.tasks_done = 0
        self.busy_seconds = 0.0


class WorkerPool:
    """Process-wide pool of persistent warm workers."""

    def __init__(self, ctx):
        self._ctx = ctx
        self._lock = threading.Lock()
        self._workers = []
        self._groups = []
        self._rr = 0
        self._target = 0
        self._task_seq = 0
        self._tasks_done = 0
        self._dispatcher = None
        self.closed = False

    # -- lifecycle ---------------------------------------------------

    def _spawn_worker(self):
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_main,
                                 args=(child_conn, parent_conn),
                                 daemon=True)
        proc.start()
        child_conn.close()
        self._workers.append(_Worker(proc, parent_conn))

    def _ensure(self, jobs):
        """Grow to ``jobs`` workers and make sure the dispatcher runs."""
        self._target = max(self._target, max(1, int(jobs)))
        while len(self._workers) < self._target:
            self._spawn_worker()
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-pool-dispatch",
                daemon=True)
            self._dispatcher.start()

    def close(self, timeout=2.0):
        """Send quit sentinels and reap every worker."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            workers = list(self._workers)
            self._workers = []
        for w in workers:
            try:
                w.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
        deadline = time.perf_counter() + timeout
        for w in workers:
            w.proc.join(max(0.0, deadline - time.perf_counter()))
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(0.5)
            try:
                w.conn.close()
            except OSError:
                pass

    # -- public API --------------------------------------------------

    def run(self, worker, payloads, jobs, timeout=None, retries=1,
            label="task", progress=None, poll=None):
        """Run ``worker(payload)`` for every payload on the warm pool.

        The multi-process half of ``scheduler.run_tasks`` — returns
        TaskResults in completion order, with the retry accounting and
        error strings that function documents.
        """
        from repro.dse.scheduler import TaskResult

        group = _Group(worker, payloads, jobs, timeout, retries, label)
        if not group.pending:
            return []
        with self._lock:
            if self.closed:
                raise RuntimeError("worker pool is closed")
            self._ensure(group.jobs)
            self._groups.append(group)
        results = []
        try:
            while True:
                with group.cond:
                    if not group.ready and not group.done:
                        group.cond.wait(0.02)
                    ready, group.ready = group.ready, []
                    finished = group.done and not group.ready
                for payload, attempts, ok, error, seconds in ready:
                    result = TaskResult(payload=payload, attempts=attempts,
                                        ok=ok, error=error, seconds=seconds)
                    obs.counter("dse.tasks.completed" if ok
                                else "dse.tasks.failed")
                    obs.observe("dse.task.seconds", seconds)
                    results.append(result)
                    if progress is not None:
                        progress(result)
                if poll is not None:
                    poll()
                if finished and not ready:
                    break
        finally:
            with self._lock:
                if group in self._groups:
                    self._groups.remove(group)
        return results

    def stats(self):
        """Per-worker utilization snapshot (serve dash / summaries)."""
        with self._lock:
            now = time.perf_counter()
            rows = []
            for w in self._workers:
                busy = w.busy_seconds
                if w.task is not None:
                    busy += now - w.started
                alive = max(now - w.spawned, 1e-9)
                rows.append({
                    "pid": w.proc.pid,
                    "busy": w.task is not None,
                    "tasks": w.tasks_done,
                    "busy_seconds": round(busy, 3),
                    "alive_seconds": round(alive, 3),
                    "utilization": round(busy / alive, 4),
                })
            return {"mode": "warm", "workers": rows,
                    "tasks_done": self._tasks_done,
                    "groups": len(self._groups)}

    # -- dispatcher --------------------------------------------------

    def _dispatch_loop(self):
        while True:
            with self._lock:
                if self.closed:
                    return
                conns = [w.conn for w in self._workers]
            try:
                ready = (mp_connection.wait(conns, timeout=0.02)
                         if conns else [])
            except OSError:
                ready = []
            if not conns:
                time.sleep(0.02)
            with self._lock:
                if self.closed:
                    return
                now = time.perf_counter()
                for w in [w for w in self._workers if w.conn in ready]:
                    self._drain_worker(w, now)
                self._check_timeouts(now)
                self._feed(now)

    def _deliver(self, group, payload, attempts, ok, error, seconds):
        with group.cond:
            group.ready.append((payload, attempts, ok, error, seconds))
            group.outstanding -= 1
            if group.outstanding <= 0:
                group.done = True
            group.cond.notify_all()

    def _finish_attempt(self, worker, ok, error, now):
        """Account one attempt's outcome for the task ``worker`` ran."""
        group, payload, attempt = worker.task
        worker.task = None
        seconds = now - worker.started
        worker.busy_seconds += seconds
        group.inflight -= 1
        if ok:
            worker.tasks_done += 1
            self._tasks_done += 1
            self._deliver(group, payload, attempt, True, None, seconds)
        elif attempt <= group.retries:
            obs.counter("dse.tasks.retried")
            group.pending.append((payload, attempt + 1))
            with group.cond:
                group.cond.notify_all()
        else:
            self._deliver(group, payload, attempt, False, error, seconds)

    def _discard_worker(self, worker):
        if worker in self._workers:
            self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:
            pass
        if not self.closed and len(self._workers) < self._target:
            self._spawn_worker()

    def _drain_worker(self, worker, now):
        """Consume completions from one worker; reap it if it died."""
        try:
            while worker.conn.poll():
                _task_id, ok, error = worker.conn.recv()
                if worker.task is not None:
                    self._finish_attempt(worker, ok, error, now)
        except (EOFError, OSError):
            if worker.task is not None:
                worker.proc.join(1.0)
                self._finish_attempt(
                    worker, False,
                    "exit code %s" % worker.proc.exitcode, now)
            self._discard_worker(worker)

    def _check_timeouts(self, now):
        for worker in list(self._workers):
            if worker.task is None:
                continue
            timeout = worker.task[0].timeout
            if timeout is None or now - worker.started <= timeout:
                continue
            worker.proc.terminate()
            worker.proc.join(1.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck in D state
                worker.proc.kill()
                worker.proc.join(1.0)
            self._finish_attempt(worker, False,
                                 "timeout after %.1fs" % timeout, now)
            self._discard_worker(worker)

    def _next_task(self):
        """Round-robin across groups with spare per-group capacity."""
        n = len(self._groups)
        for i in range(n):
            group = self._groups[(self._rr + i) % n]
            if group.pending and group.inflight < group.jobs:
                self._rr = (self._rr + i + 1) % n
                return group, group.pending.popleft()
        return None

    def _feed(self, now):
        for worker in self._workers:
            if worker.task is not None or not worker.proc.is_alive():
                continue
            picked = self._next_task()
            if picked is None:
                return
            group, (payload, attempt) = picked
            self._task_seq += 1
            try:
                worker.conn.send((self._task_seq, group.worker, payload,
                                  group.obs_spec, group.env))
            except (OSError, BrokenPipeError):
                group.pending.appendleft((payload, attempt))
                self._discard_worker(worker)
                continue
            worker.task = (group, payload, attempt)
            worker.started = now
            group.inflight += 1


_POOL = None
_POOL_LOCK = threading.Lock()


def get_pool():
    """The process-wide pool, created (and atexit-registered) lazily."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL.closed:
            _POOL = WorkerPool(_context())
            atexit.register(_POOL.close)
        return _POOL


def pool_stats():
    """Stats for the live pool, or None when no pool was ever started."""
    pool = _POOL
    if pool is None or pool.closed:
        return None
    return pool.stats()


def shutdown_pool():
    """Tear down the process-wide pool (tests)."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
    if pool is not None:
        pool.close()
