"""Failure-path coverage for the DSE scheduler.

:func:`repro.dse.scheduler.run_tasks` promises that one task's hang,
crash, or persistent failure never takes the sweep down: hung tasks are
killed at the timeout and retried from a bounded budget, failures are
recorded and skipped after exhaustion, and a sweep resumed over a
half-finished store re-evaluates only what the crash left behind.
These tests drive each of those paths deliberately — with real child
processes for the kill/retry mechanics, and a scripted evaluator for
the mid-sweep-crash resume semantics.
"""

import os
import sys
import threading
import time


from repro.dse import scheduler
from repro.dse.scheduler import run_tasks, sweep
from repro.dse.space import DesignSpace, preset
from repro.dse.store import RESULT_SCHEMA, ResultStore
from repro.fingerprint import RESULT, fingerprint

BENCH = "crc32"


# ----------------------------------------------------------------------
# module-level workers (must be importable from forked children)


def _hang_or_touch(payload):
    if payload["hang"]:
        time.sleep(120)
    with open(payload["marker"], "w") as fh:
        fh.write("ok")


def _hang_first_attempt(payload):
    if not os.path.exists(payload["marker"]):
        open(payload["marker"], "w").close()
        time.sleep(120)     # first attempt hangs; the retry succeeds


def _always_dies(payload):
    sys.exit(3)


def _crash_first_attempt(payload):
    if payload["crash"] and not os.path.exists(payload["marker"]):
        open(payload["marker"], "w").close()
        os._exit(11)            # hard kill: no cleanup, no exit message
    with open(payload["done"], "a") as fh:
        fh.write("x")


# ----------------------------------------------------------------------
# per-task timeout kill (real child processes)


def test_timeout_kills_hung_task_without_blocking_others(tmp_path):
    payloads = [
        {"hang": True, "marker": str(tmp_path / "hung")},
        {"hang": False, "marker": str(tmp_path / "a")},
        {"hang": False, "marker": str(tmp_path / "b")},
    ]
    t0 = time.perf_counter()
    results = run_tasks(_hang_or_touch, payloads, jobs=2, timeout=1.0,
                        retries=0)
    wall = time.perf_counter() - t0
    assert wall < 30    # the hung child was terminated, not waited out
    by_marker = {r.payload["marker"]: r for r in results}
    hung = by_marker[str(tmp_path / "hung")]
    assert not hung.ok and "timeout" in hung.error
    assert hung.attempts == 1
    for name in ("a", "b"):
        assert by_marker[str(tmp_path / name)].ok
        assert (tmp_path / name).exists()
    assert not (tmp_path / "hung").exists()


def test_timed_out_task_is_requeued_and_can_succeed(tmp_path):
    payload = {"marker": str(tmp_path / "attempted")}
    results = run_tasks(_hang_first_attempt, [payload], jobs=2, timeout=1.0,
                        retries=1)
    assert len(results) == 1
    assert results[0].ok and results[0].attempts == 2


def test_worker_crash_requeues_only_that_task(tmp_path):
    """A hard worker death re-queues the task it was running — and only
    that task: siblings run exactly once."""
    payloads = [
        {"crash": True, "marker": str(tmp_path / "crashed"),
         "done": str(tmp_path / "d0")},
        {"crash": False, "done": str(tmp_path / "d1")},
        {"crash": False, "done": str(tmp_path / "d2")},
    ]
    results = run_tasks(_crash_first_attempt, payloads, jobs=2, retries=1)
    by_done = {r.payload["done"]: r for r in results}
    crashed = by_done[str(tmp_path / "d0")]
    assert crashed.ok and crashed.attempts == 2
    for name in ("d0", "d1", "d2"):
        r = by_done[str(tmp_path / name)]
        assert r.ok
        # "x" written exactly once: the crash re-ran nothing else
        assert (tmp_path / name).read_text() == "x"
    assert by_done[str(tmp_path / "d1")].attempts == 1
    assert by_done[str(tmp_path / "d2")].attempts == 1


# ----------------------------------------------------------------------
# bounded-retry exhaustion


def test_retry_budget_exhaustion_records_failure(tmp_path):
    results = run_tasks(_always_dies, [{"n": 1}], jobs=2, timeout=None,
                        retries=2)
    assert len(results) == 1
    assert not results[0].ok
    assert results[0].attempts == 3            # 1 try + 2 retries, then stop
    assert "exit code 3" in results[0].error


def test_serial_mode_retry_exhaustion():
    calls = []

    def worker(payload):
        calls.append(payload)
        raise RuntimeError("persistent")

    results = run_tasks(worker, [{"n": 1}], jobs=1, retries=2)
    assert len(calls) == 3
    assert not results[0].ok
    assert "RuntimeError: persistent" in results[0].error


def test_concurrent_in_process_batches_fail_no_points(tmp_path, monkeypatch):
    """In-process compute batches on their own threads — what a
    ``repro.serve`` server at ``--jobs 1`` runs for concurrent jobs —
    must not fail points.  Every point's cache/power consistency check
    reads process-wide obs counters; the power model sleeps here so that
    another thread runs inside that window whenever it is allowed to."""
    from repro.dse.evaluate import _functional
    from repro.power import CachePowerModel

    evaluate = CachePowerModel.evaluate

    def slow_evaluate(self, timing):
        time.sleep(0.002)
        return evaluate(self, timing)

    monkeypatch.setattr(CachePowerModel, "evaluate", slow_evaluate)
    space = DesignSpace.grid("two-batch", isas=("arm",),
                             sizes=(1024, 2048, 4096, 8192), assocs=(1, 2, 4))
    _functional(BENCH, "small", "arm")  # both batches start evaluating
    outcomes = {}

    def batch(tag):
        payload = {"store": str(tmp_path / tag), "benchmark": BENCH,
                   "scale": "small",
                   "points": [p.to_dict() for p in space]}
        outcomes[tag] = run_tasks(scheduler._sweep_worker, [payload],
                                  jobs=1, retries=0)

    tags = ("a", "b", "c")
    threads = [threading.Thread(target=batch, args=(tag,)) for tag in tags]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for tag in tags:
        store = ResultStore(str(tmp_path / tag))
        assert store.failures() == [], store.failures()
        assert len(store.completed_keys()) == len(space)
        assert [r.ok for r in outcomes[tag]] == [True]


# ----------------------------------------------------------------------
# mid-sweep crash → resume re-evaluates only the unfinished points
#
# The evaluator is scripted (monkeypatched into the scheduler; jobs=1
# runs the sweep worker in-process so the patch holds), but everything
# around it — chunking, the retry, the store's resume check — is real.


def _scripted_evaluator(log, crash_after=None):
    """An ``evaluate_points`` stand-in that logs and optionally crashes.

    ``crash_after=N`` raises after N successful points of the *first*
    call only, simulating a worker killed mid-chunk; the store already
    holds the points evaluated before the crash.
    """
    state = {"calls": 0}

    def evaluate_points(benchmark, points, scale):
        from repro.dse.space import DesignPoint

        state["calls"] += 1
        first = state["calls"] == 1
        produced = 0
        for pdict in points:
            point = DesignPoint.from_dict(pdict)
            if first and crash_after is not None and produced >= crash_after:
                raise RuntimeError("simulated mid-chunk crash")
            log.append(point.point_id)
            produced += 1
            yield point, {
                "schema": RESULT_SCHEMA,
                "benchmark": benchmark,
                "scale": scale,
                "point": point.to_dict(),
                "fingerprint": fingerprint(RESULT),
                "metrics": {"icache_energy_j": 1.0},
                "manifest": {},
            }, None

    return evaluate_points


def test_resume_skips_completed_after_midsweep_crash(tmp_path, monkeypatch):
    space = preset("paper4")
    log = []
    # paper4's 4 points are split into 2-point chunks at jobs=1; crash
    # after 1 point so the first chunk dies with half its work stored
    monkeypatch.setattr(scheduler, "evaluate_points",
                        _scripted_evaluator(log, crash_after=1))
    store = ResultStore(str(tmp_path / "store"))
    summary = sweep(space, [BENCH], scale="small", jobs=1, store=store,
                    retries=1)
    assert summary["evaluated"] == 4 and not summary["failed"]
    assert summary["task_retries"] == 1        # the crash consumed one retry
    # the retry's resume check skipped the point stored pre-crash:
    # every point was evaluated exactly once across both attempts
    assert sorted(log) == sorted(p.point_id for p in space)
    assert store.completed_keys() == {(BENCH, p.point_id) for p in space}


def test_fresh_sweep_over_complete_store_evaluates_nothing(tmp_path,
                                                           monkeypatch):
    space = preset("paper4")
    log = []
    monkeypatch.setattr(scheduler, "evaluate_points",
                        _scripted_evaluator(log))
    store = ResultStore(str(tmp_path / "store"))
    assert sweep(space, [BENCH], jobs=1, store=store)["evaluated"] == 4
    again = sweep(space, [BENCH], jobs=1, store=store)
    assert again["evaluated"] == 0 and again["skipped"] == 4
    assert len(log) == 4       # the resumed run never called the evaluator


def test_point_failure_is_recorded_and_survives_retries(tmp_path,
                                                        monkeypatch):
    space = DesignSpace("pair", [p for p in preset("paper4")][:2])
    bad_id = space.points[0].point_id
    attempts = []

    def evaluate_points(benchmark, points, scale):
        from repro.dse.space import DesignPoint

        attempts.append(len(points))
        for pdict in points:
            point = DesignPoint.from_dict(pdict)
            if point.point_id == bad_id:
                yield point, None, RuntimeError("this point always fails")
                continue
            yield point, {
                "schema": RESULT_SCHEMA, "benchmark": benchmark,
                "scale": scale, "point": point.to_dict(),
                "fingerprint": fingerprint(RESULT),
                "metrics": {"icache_energy_j": 1.0}, "manifest": {},
            }, None

    monkeypatch.setattr(scheduler, "evaluate_points", evaluate_points)
    store = ResultStore(str(tmp_path / "store"))
    summary = sweep(space, [BENCH], jobs=1, store=store, retries=2)
    assert summary["failed"] == [(BENCH, bad_id)]
    assert summary["evaluated"] == 1           # the good point still landed
    assert summary["task_retries"] == 2        # full budget spent, then on
    # both ARM points are one task: its first attempt evaluates both,
    # and each retry only the failing point, which resume left pending
    assert attempts == [2, 1, 1]
    failures = store.failures()
    assert len(failures) == 1
    assert "this point always fails" in failures[0]["error"]


_TORN_WRITER = """
import json, os, signal, sys
from repro.dse.space import DesignPoint, preset
from repro.dse.store import RESULT_SCHEMA, ResultStore
from repro.fingerprint import RESULT, fingerprint

store = ResultStore(sys.argv[1])
blobs = [{"schema": RESULT_SCHEMA, "benchmark": "crc32", "scale": "small",
          "point": p.to_dict(), "fingerprint": fingerprint(RESULT),
          "metrics": {"icache_energy_j": 1.0}, "manifest": {}}
         for p in preset("paper4")]
for blob in blobs[:-1]:
    store.save(blob)
(segment,) = os.listdir(store.segment_dir("crc32"))
with open(os.path.join(store.segment_dir("crc32"), segment), "ab") as fh:
    line = json.dumps(blobs[-1]).encode()
    fh.write(line[:len(line) // 2])
    fh.flush()
    os.kill(os.getpid(), signal.SIGKILL)
"""


def test_sigkilled_writer_torn_line_is_skipped_and_only_it_reruns(
        tmp_path, monkeypatch):
    """A writer killed mid-line leaves a torn last line in its segment:
    readers skip it, and a resumed sweep re-evaluates only that point."""
    import subprocess

    root = str(tmp_path / "store")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _TORN_WRITER, root],
                          env=env, timeout=60)
    assert proc.returncode == -9
    space = preset("paper4")
    torn = space.points[-1].point_id
    store = ResultStore(root)
    assert store.completed_keys() == {(BENCH, p.point_id)
                                      for p in space.points[:-1]}
    assert store.load(BENCH, torn) is None and store.failures() == []

    log = []
    monkeypatch.setattr(scheduler, "evaluate_points",
                        _scripted_evaluator(log))
    summary = sweep(space, [BENCH], jobs=1, store=root)
    assert (summary["evaluated"], summary["skipped"]) == (1, 3)
    assert log == [torn]
    assert ResultStore(root).completed_keys() == {(BENCH, p.point_id)
                                                  for p in space}
