"""Parallel sweep scheduler: warm worker pool with resume and isolation.

Two layers:

* :func:`run_tasks` — a generic task runner.  With ``jobs > 1`` tasks
  run on the persistent warm worker pool (:mod:`repro.dse.pool`):
  long-lived child processes that keep their functional-sim memo,
  timing precomps, and decoded traces warm across tasks and across
  jobs, with centrally-assigned (work-stealing) dispatch and
  fair-share interleaving between concurrent callers, a per-task
  timeout (``terminate`` + bounded requeue), bounded retry count, and
  crash isolation.  ``jobs <= 1`` runs the tasks in the calling
  process — the serial reference the pool is tested against.  Task
  results must flow through the filesystem (each task appends to its
  own result-store segment), never through pipes — which is exactly
  what makes sweeps resumable and crash-safe.

* :func:`sweep` — the DSE orchestration: diff the design space against
  the store's completed keys, make one task per (benchmark, ISA) unit
  of pending points, so each unit's functional build, timing
  precomputation and stack-distance passes happen once
  (:func:`_chunk_tasks`), and fan the tasks out over :func:`run_tasks`.
  A task's payload names its unit and points and nothing else: the
  worker loads the unit's image and trace from the trace store like any
  other process.  Workers re-check the store before each point, so a
  retried task re-evaluates only what its crashed predecessor did not
  finish.

Progress is reported through :mod:`repro.obs` (``stage.dse.*`` spans,
``dse.*`` counters) and each stored blob embeds a per-point manifest.

The same pool runs the flagship harness:
:func:`repro.harness.runner.collect` builds one task per benchmark and
hands them to :func:`run_tasks`, with the identical isolation/retry
semantics.  Each task is a :func:`~repro.harness.runner.run_benchmark`
call, which evaluates the paper's four configurations (the ``paper4``
preset) through :func:`evaluate_points`, as a sweep worker would.
"""

import shutil
import sys
import tempfile
import threading
import time
import traceback

from repro import obs
from repro.dse import pool as pool_mod
from repro.dse import progress as progress_mod
from repro.dse.evaluate import evaluate_points
from repro.dse.store import ResultStore
from repro.obs import metrics as metrics_mod

#: Serializes in-process tasks across threads.  A task's obs window (the
#: cache/power consistency check in ``dse.evaluate``) reads process-wide
#: counters, so two serial batches on different threads — concurrent
#: ``repro.serve`` jobs at ``--jobs 1`` — must not interleave.  Pool
#: workers already run one task at a time.
_INPROCESS_LOCK = threading.RLock()


class TaskResult:
    """Outcome of one task: payload, attempts used, final status."""

    __slots__ = ("payload", "attempts", "ok", "error", "seconds")

    def __init__(self, payload, attempts, ok, error, seconds):
        self.payload = payload
        self.attempts = attempts
        self.ok = ok
        self.error = error
        self.seconds = seconds


def run_tasks(worker, payloads, jobs=1, timeout=None, retries=1,
              label="task", progress=None, poll=None):
    """Run ``worker(payload)`` for every payload; returns TaskResults.

    Args:
        worker: picklable module-level function; must persist its own
            results (e.g. via :class:`~repro.dse.store.ResultStore`).
        jobs: max concurrent worker processes; ``jobs <= 1`` runs
            in-process, one task at a time across all threads.
        timeout: per-attempt wall-clock limit in seconds (None = no limit).
        retries: how many *re*-tries a failed/timed-out task gets.
        progress: optional callback ``progress(task_result)`` invoked in
            the parent as each task reaches a final status.
        poll: optional zero-argument callback invoked on every pass of
            the parent's scheduling loop (and after each task in serial
            mode) — the hook live progress renderers hang off; it must
            throttle itself.

    One task's crash, exception, or timeout never aborts the rest; the
    failure is recorded on its :class:`TaskResult` and (after the retry
    budget) the sweep moves on.
    """
    if jobs is not None and jobs > 1:
        return pool_mod.get_pool().run(
            worker, payloads, jobs, timeout=timeout, retries=retries,
            label=label, progress=progress, poll=poll)

    results = []
    for payload in payloads:
        t0 = time.perf_counter()
        attempts = 0
        ok, error = False, None
        while attempts <= retries and not ok:
            attempts += 1
            try:
                with _INPROCESS_LOCK:
                    worker(payload)
                ok, error = True, None
            except BaseException as exc:  # isolate, record, move on
                error = "%s: %s" % (type(exc).__name__, exc)
                if attempts <= retries:
                    obs.counter("dse.tasks.retried")
        result = TaskResult(payload, attempts, ok, error,
                            time.perf_counter() - t0)
        results.append(result)
        obs.counter("dse.tasks.%s" % ("completed" if ok else "failed"))
        obs.observe("dse.task.seconds", result.seconds)
        if progress is not None:
            progress(result)
        if poll is not None:
            poll()
    return results


# ----------------------------------------------------------------------
# the DSE sweep proper


def _sweep_worker(payload):
    """Evaluate one task's points for one benchmark.

    Runs on a pool worker, or in the calling process at ``jobs <= 1``.
    Points that survive the resume check are streamed through
    :func:`evaluate_points`, so the task shares one functional
    simulation and one stack-distance pass per (ISA, block size); each
    result is appended to the task's own store segment as it is
    yielded, preserving crash-safe resume.
    """
    store = ResultStore(payload["store"])
    try:
        _evaluate_task(store, payload)
    finally:
        store.close()


def _evaluate_task(store, payload):
    """The body of :func:`_sweep_worker`, writing into ``store``."""
    benchmark = payload["benchmark"]
    scale = payload["scale"]
    # resume check: the first lookup reads the benchmark's segments
    # once; the rest are index lookups
    pending = [p for p in payload["points"]
               if not store.has(benchmark, p["id"])]
    hard_failures = 0
    with obs.span("stage.dse.task", benchmark=benchmark, points=len(pending)):
        for point, result, error in evaluate_points(benchmark, pending, scale):
            if error is not None:
                store.save_failure(
                    benchmark, point.point_id,
                    "%s: %s" % (type(error).__name__, error))
                traceback.print_exception(
                    type(error), error, error.__traceback__, file=sys.stderr)
                hard_failures += 1
                continue
            store.save(result)
    if hard_failures:
        raise SystemExit(1)


def _chunk_tasks(pending, store_root, scale):
    """One task payload per (benchmark, ISA) unit of pending points.

    A unit's points share its functional build (for FITS, the whole
    synthesis flow), its ``TimingPrecomp`` and one stack-distance pass
    per block size (:func:`evaluate_points`), so a unit split across
    tasks would repeat that work in each of them — on every worker that
    ran a piece.  Units appear in first-seen order, each holding its
    points in input order.  A sweep with fewer units than workers
    leaves the rest idle: splitting a unit would only repeat its shared
    work.
    """
    units = {}
    for benchmark, point in pending:
        units.setdefault((benchmark, point.isa), []).append(point)
    return [{
        "store": store_root,
        "benchmark": benchmark,
        "scale": scale,
        "points": [p.to_dict() for p in points],
    } for (benchmark, _isa), points in units.items()]


def sweep(space, benchmarks, scale="small", jobs=1, store=None,
          timeout_per_point=None, retries=1, verbose=False, progress=False,
          dash=False):
    """Run (or resume) a design-space sweep; returns a summary dict.

    ``store`` is a :class:`ResultStore` or a directory path.  Every
    (benchmark, point) with a current-code result in the store is
    skipped — a re-run over a complete store evaluates exactly zero
    points.  With ``progress`` the coordinator renders a live
    done/failed/throughput/ETA line counted from the store (see
    :mod:`repro.dse.progress`).  ``dash`` upgrades that line to a
    multi-line dashboard with latency percentiles merged from the
    workers' metric snapshots, which they flush into a snapshot
    directory of this sweep's own, and from this process's registry
    (when obs was off, the sweep enables aggregate-only obs and clears
    the registry first, so the frame holds only this sweep's samples).
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    benchmarks = list(benchmarks)
    store.write_space(space, benchmarks, scale)

    done = store.completed_keys()
    pairs = [(b, p) for b in benchmarks for p in space]
    pending = [(b, p) for (b, p) in pairs if (b, p.point_id) not in done]
    skipped = len(pairs) - len(pending)
    obs.counter("dse.points.skipped", skipped)

    t0 = time.perf_counter()
    task_results = []
    if pending:
        payloads = _chunk_tasks(pending, store.root, scale)
        timeout = None
        if timeout_per_point is not None:
            timeout = timeout_per_point * max(len(p["points"]) for p in payloads)

        renderer = None
        dash_owns_obs = False
        snapshot_dir = prev_snapshot_dir = None
        if dash:
            if not obs.enabled:
                # workers only collect (and flush) metrics when the spec
                # they inherit says obs is on; aggregate-only costs no
                # sink, and an empty registry holds this sweep's alone
                obs.enable(sink=None)
                obs.reset()
                dash_owns_obs = True
            # a directory of this sweep's own: the pool's workers see a
            # new spec, so each starts a fresh window for this sweep
            prev_snapshot_dir = metrics_mod.snapshot_dir()
            snapshot_dir = tempfile.mkdtemp(prefix="repro-dash-")
            metrics_mod.set_snapshot_dir(snapshot_dir)
        if progress or dash:
            renderer_cls = (progress_mod.DashRenderer if dash
                            else progress_mod.ProgressRenderer)
            renderer = renderer_cls(
                store, [(b, p.point_id) for b, p in pending], jobs)

        def report(result):
            if verbose:
                state = "ok" if result.ok else "FAILED (%s)" % result.error
                print("  dse: %s x%d points %s in %.1fs" % (
                    result.payload["benchmark"], len(result.payload["points"]),
                    state, result.seconds), file=sys.stderr)

        try:
            with obs.span("stage.dse.sweep", space=space.name, scale=scale,
                          jobs=jobs, pending=len(pending)):
                task_results = run_tasks(
                    _sweep_worker, payloads, jobs=jobs, timeout=timeout,
                    retries=retries, label="dse", progress=report,
                    poll=renderer.poll if renderer is not None else None,
                )
        finally:
            if renderer is not None:
                renderer.close()
            if snapshot_dir is not None:
                metrics_mod.set_snapshot_dir(prev_snapshot_dir)
                shutil.rmtree(snapshot_dir, ignore_errors=True)
            if dash_owns_obs:
                obs.disable()

    now_done = store.completed_keys()
    failed = [(b, p.point_id) for (b, p) in pending
              if (b, p.point_id) not in now_done]
    evaluated = len(pending) - len(failed)
    obs.counter("dse.points.evaluated", evaluated)
    obs.counter("dse.points.failed", len(failed))

    return {
        "space": space.name,
        "scale": scale,
        "benchmarks": benchmarks,
        "store": store.root,
        "jobs": jobs,
        "total": len(pairs),
        "evaluated": evaluated,
        "skipped": skipped,
        "failed": failed,
        "failures": store.failures(),
        "tasks": len(task_results),
        "task_retries": sum(r.attempts - 1 for r in task_results),
        "wall_seconds": time.perf_counter() - t0,
    }
