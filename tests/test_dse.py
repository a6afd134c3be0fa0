"""Design-space exploration subsystem tests.

Covers the declarative space model (content-hash ids, grids, presets,
validation), Pareto dominance and frontier extraction, the resumable
result store (atomic writes, torn-blob tolerance), the scheduler
(serial + parallel, resume-skips-completed, resume re-evaluates blobs
from other code, failure isolation, per-task timeout) and the CLI.
"""

import json
import os
import shutil
import time

import pytest

from repro.dse import pareto
from repro.dse.evaluate import evaluate_point
from repro.dse.scheduler import run_tasks, sweep
from repro.dse.space import (
    DesignPoint,
    DesignSpace,
    PAPER_LABELS,
    preset,
)
from repro.dse.store import RESULT_SCHEMA, ResultStore, atomic_write_json
from repro.fingerprint import RESULT, fingerprint

BENCH = "crc32"


# ----------------------------------------------------------------------
# space


def test_point_id_is_stable_content_hash():
    a = DesignPoint("fits", 16 * 1024)
    b = DesignPoint("fits", 16 * 1024)
    assert a.point_id == b.point_id
    assert a == b
    c = DesignPoint("fits", 8 * 1024)
    assert a.point_id != c.point_id
    for variant in (
        DesignPoint("arm", 16 * 1024),
        DesignPoint("fits", 16 * 1024, associativity=2),
        DesignPoint("fits", 16 * 1024, block_bytes=16),
        DesignPoint("fits", 16 * 1024, tech="180nm"),
        DesignPoint("fits", 16 * 1024, fetch_bits=16),
    ):
        assert variant.point_id != a.point_id


def test_point_round_trip_and_hash_check():
    p = DesignPoint("thumb", 8192, associativity=4, block_bytes=16,
                    tech="250nm", fetch_bits=16)
    q = DesignPoint.from_dict(p.to_dict())
    assert q == p and q.point_id == p.point_id
    tampered = p.to_dict()
    tampered["icache_bytes"] = 16384  # id no longer matches content
    with pytest.raises(ValueError):
        DesignPoint.from_dict(tampered)


@pytest.mark.parametrize("kwargs", [
    {"isa": "mips", "icache_bytes": 8192},
    {"isa": "arm", "icache_bytes": 8192, "tech": "90nm"},
    {"isa": "arm", "icache_bytes": 8192, "fetch_bits": 48},
    {"isa": "arm", "icache_bytes": 8192, "block_bytes": 24},
    {"isa": "arm", "icache_bytes": 8192, "associativity": 0},
    {"isa": "arm", "icache_bytes": 3000},
])
def test_point_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        DesignPoint(**kwargs)


def test_grid_drops_invalid_combos_and_dedups():
    space = DesignSpace.grid(
        isas=("arm",), sizes=(1024, 16384), assocs=(1, 32), blocks=(32, 64))
    # 1024B x 32-way x 64B blocks is not constructible (2048 > 1024)
    assert space.dropped == 1
    assert len(space) == 7
    ids = [p.point_id for p in space]
    assert len(ids) == len(set(ids))


def test_paper4_preset_matches_harness_configs():
    space = preset("paper4")
    assert len(space) == 4
    labels = [PAPER_LABELS[p.point_id] for p in space]
    assert labels == ["ARM16", "ARM8", "FITS16", "FITS8"]
    with pytest.raises(KeyError):
        preset("nonsense")


# ----------------------------------------------------------------------
# pareto


def _m(energy, ipc, size):
    return {"icache_energy_j": energy, "ipc": ipc, "code_size": size}


def test_dominates_partial_order():
    a, b = _m(1.0, 2.0, 100), _m(2.0, 1.0, 200)
    assert pareto.dominates(a, b)
    assert not pareto.dominates(b, a)
    # incomparable: each wins one objective
    c = _m(0.5, 0.5, 100)
    assert not pareto.dominates(a, c) and not pareto.dominates(c, a)
    # equal rows don't dominate each other
    assert not pareto.dominates(a, dict(a))


def test_pareto_front_extraction():
    rows = [
        {"metrics": _m(1.0, 2.0, 100)},   # on the front
        {"metrics": _m(2.0, 1.0, 200)},   # dominated by row 0
        {"metrics": _m(0.5, 1.0, 300)},   # on the front (cheapest energy)
        {"metrics": _m(1.0, 2.0, 100)},   # duplicate vector: kept once
        {"metrics": _m(0.9, 2.5, 400)},   # on the front (best ipc)
    ]
    front = pareto.pareto_front(rows)
    assert [rows.index(r) for r in front] == [0, 2, 4]


def test_parse_objectives():
    objs = pareto.parse_objectives("min:cycles, max:ipc")
    assert objs == (("cycles", "min"), ("ipc", "max"))
    assert pareto.parse_objectives(None) == pareto.DEFAULT_OBJECTIVES
    with pytest.raises(ValueError):
        pareto.parse_objectives("cycles")
    with pytest.raises(ValueError):
        pareto.parse_objectives("best:cycles")


def _blob(bench, point, energy, ipc, size):
    return {"benchmark": bench, "point": point.to_dict(),
            "metrics": _m(energy, ipc, size)}


def test_aggregate_rows_requires_full_coverage():
    p1 = DesignPoint("arm", 8192)
    p2 = DesignPoint("fits", 8192)
    results = [
        _blob("crc32", p1, 1.0, 1.0, 100),
        _blob("sha", p1, 3.0, 2.0, 100),
        _blob("crc32", p2, 9.0, 9.0, 100),  # p2 missing on sha
    ]
    rows = pareto.aggregate_rows(results)
    assert len(rows) == 1
    row = rows[0]
    assert row["point"]["id"] == p1.point_id
    assert row["metrics"]["icache_energy_j"] == 4.0   # extensive: summed
    assert row["metrics"]["ipc"] == 1.5               # intensive: averaged
    assert row["metrics"]["code_size"] == 200


# ----------------------------------------------------------------------
# store


def _result(point, benchmark=BENCH, code=None, **metrics):
    return {"schema": RESULT_SCHEMA, "benchmark": benchmark,
            "scale": "small", "point": point.to_dict(),
            "fingerprint": code or fingerprint(RESULT),
            "metrics": metrics or _m(1.0, 1.0, 10), "manifest": {}}


def _segments(store, benchmark=BENCH):
    directory = store.segment_dir(benchmark)
    return sorted(os.path.join(directory, name)
                  for name in os.listdir(directory))


def test_store_round_trip_and_torn_blob(tmp_path):
    store = ResultStore(str(tmp_path / "s"))
    p = DesignPoint("arm", 8192)
    blob = _result(p)
    assert not store.has("crc32", p.point_id)
    store.save(blob)
    assert store.has("crc32", p.point_id)
    assert store.load("crc32", p.point_id) == blob
    assert store.completed_keys() == {("crc32", p.point_id)}
    # torn/garbage lines read as absent, not as crashes
    with open(os.path.join(store.segment_dir("crc32"), "dead.jsonl"),
              "w") as fh:
        fh.write('{"schema": 2, "benchm\n[1, 2]\n{"schema": 2, "po')
    assert store.load("crc32", "deadbeef0000") is None
    assert store.completed_keys() == {("crc32", p.point_id)}
    # failures round-trip and are superseded by a later success
    store.save_failure("crc32", p.point_id, "boom")
    assert store.failures() == []       # the stored result beats it
    q = DesignPoint("arm", 16384)
    store.save_failure("crc32", q.point_id, "boom")
    assert store.failures()[0]["error"] == "boom"
    store.save(_result(q))
    assert store.failures() == []
    # a store writes one segment per writer, never a file per point
    assert len(_segments(store)) == 2   # this writer's, plus dead.jsonl


def test_store_reads_lines_other_writers_append(tmp_path):
    """Two writers on one directory both land, and a reader's index
    refreshes to lines appended after it was built: point lookups after
    an explicit refresh, whole-store reads always."""
    root = str(tmp_path / "s")
    a, b, reader = ResultStore(root), ResultStore(root), ResultStore(root)
    p, q = DesignPoint("arm", 8192), DesignPoint("arm", 16384)
    a.save(_result(p))
    assert reader.completed_keys() == {(BENCH, p.point_id)}
    b.save(_result(q))
    assert not reader.has(BENCH, q.point_id)    # not refreshed yet
    reader.refresh(BENCH)
    assert reader.has(BENCH, q.point_id)
    assert reader.load(BENCH, q.point_id) == _result(q)
    assert [r["point"]["id"] for r in reader.iter_results()] == sorted(
        [p.point_id, q.point_id])
    a.close()
    b.close()
    assert len(_segments(reader)) == 2


def test_point_lookups_read_the_segments_once(tmp_path, monkeypatch):
    """A store reads a benchmark's segments on its first lookup; later
    lookups, hits and misses alike, rescan nothing."""
    root = str(tmp_path / "s")
    writer = ResultStore(root)
    points = [DesignPoint("arm", size) for size in (4096, 8192, 16384)]
    for p in points:
        writer.save(_result(p))
    writer.close()
    store = ResultStore(root)
    scans = []
    scandir = os.scandir
    monkeypatch.setattr(os, "scandir",
                        lambda path: scans.append(path) or scandir(path))
    assert store.has(BENCH, points[0].point_id)
    for _ in range(10):
        assert not store.has(BENCH, "f" * 12)
        assert store.load(BENCH, "f" * 12) is None
    assert store.load(BENCH, points[1].point_id) == _result(points[1])
    assert scans == [store.segment_dir(BENCH)]


def test_failure_then_result_in_another_segment_is_completed(tmp_path):
    root = str(tmp_path / "s")
    first, retry = ResultStore(root), ResultStore(root)
    p = DesignPoint("fits", 8192)
    first.save_failure(BENCH, p.point_id, "worker crashed")
    assert ResultStore(root).failures()[0]["point_id"] == p.point_id
    retry.save(_result(p))
    store = ResultStore(root)
    assert store.completed_keys() == {(BENCH, p.point_id)}
    assert store.failures() == []
    assert store.failure(BENCH, p.point_id) is None


def test_old_layout_files_are_ignored_and_gc_deletes_them(tmp_path):
    store = ResultStore(str(tmp_path / "s"))
    p = DesignPoint("arm", 8192)
    # per-point files an older version wrote
    os.makedirs(store.results_dir)
    os.makedirs(os.path.join(store.root, "failures"))
    legacy = [os.path.join(store.results_dir, "%s--%s.json" % (BENCH, p.point_id)),
              os.path.join(store.results_dir, ".tmp-dead.json"),
              os.path.join(store.root, "failures", "sha--%s.json" % p.point_id)]
    for path in legacy:
        with open(path, "w") as fh:
            json.dump(dict(_result(p), schema=1), fh)
    assert store.completed_keys() == set()
    assert list(store.iter_results()) == [] and store.failures() == []
    report = store.gc()
    assert report["legacy"] == 3
    assert not any(os.path.exists(path) for path in legacy)
    assert not os.path.exists(os.path.join(store.root, "failures"))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "x.json"
    atomic_write_json(str(path), {"v": 1})
    atomic_write_json(str(path), {"v": 2})
    assert json.loads(path.read_text()) == {"v": 2}
    assert os.listdir(tmp_path) == ["x.json"]


# ----------------------------------------------------------------------
# generic task runner


def _ok_worker(payload):
    pass


def _flaky_worker(payload):
    if payload["fail"]:
        raise RuntimeError("task %s exploded" % payload["n"])


def _slow_worker(payload):
    time.sleep(payload.get("sleep", 0))


def _spec_probe_worker(payload):
    """Write the worker's effective obs configuration to a file."""
    import json

    from repro import obs

    spec = obs.export_spec() or {}
    with open(payload["out"], "w") as fh:
        json.dump({"enabled": obs.core.enabled, "spec": spec}, fh)


def test_run_tasks_propagates_obs_config_to_workers(tmp_path):
    """Workers inherit the parent's *programmatic* obs configuration.

    The parent enables observability without touching REPRO_OBS, so a
    child that only ran import-time configuration would start dark.
    """
    from repro import obs

    stream = str(tmp_path / "sweep.jsonl")
    out = str(tmp_path / "probe.json")
    obs.enable(obs.JsonlSink(stream), opcode_sampling=True)
    try:
        results = run_tasks(_spec_probe_worker, [{"out": out}], jobs=2)
    finally:
        obs.disable()
        obs.reset()
    assert all(r.ok for r in results)
    with open(out) as fh:
        probe = json.load(fh)
    assert probe["enabled"]
    assert probe["spec"]["kind"] == "jsonl"
    assert probe["spec"]["path"] == stream
    assert probe["spec"]["opcodes"] is True


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_isolates_failures(jobs):
    payloads = [{"n": i, "fail": i == 1} for i in range(4)]
    results = run_tasks(_flaky_worker, payloads, jobs=jobs, retries=1)
    by_n = {r.payload["n"]: r for r in results}
    assert len(by_n) == 4
    assert not by_n[1].ok and by_n[1].attempts == 2
    for n in (0, 2, 3):
        assert by_n[n].ok


def test_run_tasks_timeout_kills_and_moves_on():
    payloads = [{"sleep": 30}, {"sleep": 0}]
    t0 = time.perf_counter()
    results = run_tasks(_slow_worker, payloads, jobs=2, timeout=0.5, retries=0)
    assert time.perf_counter() - t0 < 10
    by_sleep = {r.payload["sleep"]: r for r in results}
    assert not by_sleep[30].ok and "timeout" in by_sleep[30].error
    assert by_sleep[0].ok


# ----------------------------------------------------------------------
# sweeps (real evaluations, small scale, one benchmark)


@pytest.fixture(scope="module")
def paper_sweep(tmp_path_factory):
    """A completed serial paper4 sweep over one benchmark."""
    root = str(tmp_path_factory.mktemp("dse_store"))
    summary = sweep(preset("paper4"), [BENCH], scale="small", jobs=1, store=root)
    return root, summary


def test_sweep_completes_and_resumes_with_zero_work(paper_sweep):
    root, summary = paper_sweep
    assert summary["evaluated"] == 4
    assert summary["failed"] == []
    again = sweep(preset("paper4"), [BENCH], scale="small", jobs=1, store=root)
    assert again["evaluated"] == 0
    assert again["skipped"] == 4
    assert again["tasks"] == 0


def test_resume_reevaluates_blobs_from_other_code(tmp_path):
    """A blob computed by other code (another result fingerprint, or
    none) is pending on resume: re-evaluated, and the new blob beats
    it, never mixed into the frontier beside current points."""
    root = str(tmp_path / "store")
    first = sweep(preset("paper4"), [BENCH], scale="small", jobs=1, store=root)
    assert first["evaluated"] == 4
    point_id = preset("paper4").points[0].point_id
    current = ResultStore(root).load(BENCH, point_id)["fingerprint"]
    for stale in ("0" * 16, None):
        # rewrite the store so the point's only result is from other code
        blobs = list(ResultStore(root).iter_results())
        shutil.rmtree(ResultStore(root).segment_dir(BENCH))
        writer = ResultStore(root)
        for blob in blobs:
            if blob["point"]["id"] == point_id:
                if stale is None:
                    del blob["fingerprint"]
                else:
                    blob["fingerprint"] = stale
            writer.save(blob)
        writer.close()
        store = ResultStore(root)
        assert not store.has(BENCH, point_id)
        again = sweep(preset("paper4"), [BENCH], scale="small", jobs=1,
                      store=root)
        assert (again["evaluated"], again["skipped"]) == (1, 3)
        assert ResultStore(root).load(BENCH, point_id)["fingerprint"] == current


def test_frontier_over_sweep_contains_undominated_paper_point(paper_sweep):
    root, _summary = paper_sweep
    results = list(ResultStore(root).iter_results())
    report = pareto.frontier_report(results)
    front = report["per_benchmark"][BENCH]
    assert front
    # every frontier point dominates or ties every point on each
    # objective-by-objective basis; in particular nothing dominates it
    for row in front:
        for other in results:
            assert not pareto.dominates(other["metrics"], row["metrics"])
    # the aggregate view over one benchmark matches the per-benchmark one
    agg_ids = {r["point"]["id"] for r in report["aggregate"]}
    assert agg_ids == {r["point"]["id"] for r in front}


def test_sweep_manifests_have_stage_timings(paper_sweep):
    root, _summary = paper_sweep
    for blob in ResultStore(root).iter_results():
        manifest = blob["manifest"]
        assert manifest["wall_seconds"] > 0
        assert "simulate" in manifest["stages"]
        assert manifest["counters"]["cache.icache.misses"] == \
            manifest["counters"]["power.icache.misses"]


def test_obs_report_renders_dse_store(paper_sweep):
    from repro.obs.report import render_dse

    root, _summary = paper_sweep
    text = render_dse(root)
    assert "fits-16K-32w-32B" in text
    assert "simulate" in text
    assert "per-stage totals" in text


def test_parallel_sweep_matches_serial(paper_sweep, tmp_path):
    root, _summary = paper_sweep
    par_root = str(tmp_path / "par")
    summary = sweep(preset("paper4"), [BENCH], scale="small", jobs=2,
                    store=par_root)
    assert summary["evaluated"] == 4 and summary["failed"] == []
    serial = {b["point"]["id"]: b["metrics"]
              for b in ResultStore(root).iter_results()}
    parallel = {b["point"]["id"]: b["metrics"]
                for b in ResultStore(par_root).iter_results()}
    assert serial == parallel


def test_thumb_points_evaluate(tmp_path):
    blob = evaluate_point(BENCH, DesignPoint("thumb", 8 * 1024), scale="small")
    metrics = blob["metrics"]
    assert metrics["cycles"] > 0 and 0 < metrics["ipc"] < 2
    assert metrics["icache_energy_j"] > 0
    arm = evaluate_point(BENCH, DesignPoint("arm", 8 * 1024), scale="small")
    # Thumb's raison d'être: smaller code than ARM
    assert metrics["code_size"] < arm["metrics"]["code_size"]


def test_cli_sweep_frontier_report(tmp_path, capsys):
    from repro.dse.cli import main

    store = str(tmp_path / "cli")
    rc = main(["sweep", "--preset", "paper4", "--benchmarks", BENCH,
               "--scale", "small", "--jobs", "1", "--store", store])
    assert rc == 0
    out = capsys.readouterr().out
    assert "evaluated: 4" in out

    rc = main(["frontier", "--store", store, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["per_benchmark"][BENCH]
    labels = {PAPER_LABELS.get(r["point"]["id"])
              for r in report["per_benchmark"][BENCH]}
    assert labels <= {"ARM16", "ARM8", "FITS16", "FITS8"}

    rc = main(["report", "--store", store])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 points" in out and "benchmark/point" in out


def test_collect_parallel_uses_pool_and_atomic_cache(tmp_path):
    from repro.harness import collect

    os.environ["REPRO_CACHE_DIR"] = str(tmp_path)
    try:
        data = collect(scale="small", names=[BENCH, "sha"], jobs=2)
        assert set(data) == {BENCH, "sha"}
        again = collect(scale="small", names=[BENCH, "sha"], jobs=2)
        assert {n: s.data for n, s in data.items()} == \
            {n: s.data for n, s in again.items()}
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


# ----------------------------------------------------------------------
# live sweep progress (heartbeats + renderer)


def test_heartbeat_write_read_aggregate(tmp_path):
    from repro.dse import progress as progress_mod

    hb_dir = str(tmp_path / "progress")
    writer = progress_mod.HeartbeatWriter(hb_dir, "crc32", total=3)
    writer.point_done(ok=True)
    writer.point_done(ok=True)
    writer.point_done(ok=False)
    beats = progress_mod.read_heartbeats(hb_dir)
    assert len(beats) == 1
    beat = beats[0]
    assert beat["benchmark"] == "crc32"
    assert beat["done"] == 2 and beat["failed"] == 1 and beat["total"] == 3
    assert beat["pid"] == os.getpid()

    snap = progress_mod.aggregate(beats)
    assert snap == {"done": 2, "failed": 1, "workers": 1, "live_workers": 1}
    # a stale heartbeat no longer counts as a live worker
    stale = progress_mod.aggregate(
        beats, now=beat["updated"] + progress_mod.STALE_AFTER + 1)
    assert stale["live_workers"] == 0 and stale["done"] == 2

    progress_mod.clear_heartbeats(hb_dir)
    assert progress_mod.read_heartbeats(hb_dir) == []


def test_progress_renderer_line_and_gauges(tmp_path):
    import io

    from repro import obs
    from repro.dse import progress as progress_mod

    hb_dir = str(tmp_path / "progress")
    writer = progress_mod.HeartbeatWriter(hb_dir, "crc32", total=4)
    writer.point_done(ok=True)
    writer.point_done(ok=False)

    obs.enable(obs.MemorySink())
    try:
        out = io.StringIO()
        renderer = progress_mod.ProgressRenderer(hb_dir, total=4, stream=out)
        snap = renderer.poll(force=True)
        assert snap["done"] == 1 and snap["failed"] == 1
        assert snap["throughput"] > 0 and snap["eta"] is not None
        line = out.getvalue()
        assert "dse: 1/4 points" in line
        assert "(1 failed)" in line
        assert "pts/s" in line and "ETA" in line
        gauges = obs.snapshot()["gauges"]
        assert gauges["dse.progress.done"] == 1
        assert gauges["dse.progress.failed"] == 1
        # immediate re-poll is throttled; close forces a final snapshot
        assert renderer.poll() is None
        assert renderer.close() is not None
        assert out.getvalue().endswith("\n")
    finally:
        obs.disable()
        obs.reset()


def test_sweep_with_progress_writes_heartbeats(tmp_path, capsys):
    root = str(tmp_path / "store")
    summary = sweep(preset("paper4"), [BENCH], scale="small", jobs=2,
                    store=root, progress=True)
    assert summary["evaluated"] == 4 and not summary["failed"]
    from repro.dse import progress as progress_mod

    beats = progress_mod.read_heartbeats(os.path.join(root, "progress"))
    assert beats, "workers left no heartbeat files"
    assert sum(b["done"] for b in beats) == 4
    assert sum(b["failed"] for b in beats) == 0
    err = capsys.readouterr().err
    assert "dse: 4/4 points" in err


def test_dash_renderer_merges_heartbeat_metrics(tmp_path):
    import io

    from repro import obs
    from repro.dse import progress as progress_mod
    from repro.obs.core import Histogram

    hb_dir = tmp_path / "progress"
    hb_dir.mkdir()
    h = Histogram()
    for v in (0.1, 0.2):
        h.observe(v)
    for pid, hits in ((111, 3), (222, 1)):
        beat = {"pid": pid, "benchmark": BENCH, "total": 2, "done": 1,
                "failed": 0, "wall": 1.0, "updated": time.time(),
                "metrics": {"schema": 1, "proc": "p%d" % pid,
                            "counters": {"trace_store.hit": hits,
                                         "trace_store.miss": 1},
                            "gauges": {},
                            "histograms": {"dse.point.seconds": h.to_dict()}}}
        (hb_dir / ("w%d.json" % pid)).write_text(json.dumps(beat))

    obs.enable(obs.MemorySink())
    try:
        out = io.StringIO()
        renderer = progress_mod.DashRenderer(str(hb_dir), total=4, stream=out)
        snap = renderer.close()
        assert snap["done"] == 2
        frame = out.getvalue()
        assert "dse: 2/4 points" in frame
        assert "trace cache: 4 hits / 2 misses" in frame
        assert "dse.point.seconds" in frame and "n=4" in frame
    finally:
        obs.disable()
        obs.reset()


def test_sweep_dash_renders_metrics_frame(tmp_path, capsys):
    from repro import obs

    root = str(tmp_path / "store")
    assert not obs.enabled
    summary = sweep(preset("paper4"), [BENCH], scale="small", jobs=2,
                    store=root, dash=True)
    assert summary["evaluated"] == 4 and not summary["failed"]
    assert not obs.enabled          # dash-owned obs restored
    err = capsys.readouterr().err
    assert "dse: 4/4 points" in err
    assert "dse.point.seconds" in err


# ----------------------------------------------------------------------
# cross-process trace hierarchy through a parallel sweep


def test_parallel_sweep_exports_one_parent_linked_trace(tmp_path):
    from repro import obs
    from repro.obs import trace_export

    stream = str(tmp_path / "sweep-spans.jsonl")
    root = str(tmp_path / "store")
    obs.enable(obs.JsonlSink(stream))
    try:
        summary = sweep(preset("paper4"), [BENCH], scale="small", jobs=2,
                        store=root)
    finally:
        obs.disable()
        obs.reset()
    assert summary["evaluated"] == 4 and not summary["failed"]

    # every span in the stream resolves to the coordinator's root span
    stats = trace_export.check_parent_links(stream)
    assert stats["roots"], "no root span recorded"
    assert len(stats["traces"]) == 1, "sweep split across trace ids"
    assert len(stats["processes"]) >= 2, "no worker-process spans captured"
    assert stats["cross_process_links"] >= 1

    trace = trace_export.export_trace(stream)
    assert trace_export.validate_trace(trace)
    phases = {}
    for event in trace["traceEvents"]:
        phases[event["ph"]] = phases.get(event["ph"], 0) + 1
    assert phases["s"] == phases["f"] >= 1  # flow arrows into worker lanes
    labels = [e["args"]["name"] for e in trace["traceEvents"]
              if e["ph"] == "M"]
    assert any("coordinator" in name for name in labels)
    assert any("worker" in name for name in labels)


# ----------------------------------------------------------------------
# store garbage collection


def test_gc_prunes_killed_sweep_debris(tmp_path):
    from repro.dse.progress import HeartbeatWriter

    root = str(tmp_path / "store")
    store = ResultStore(root)
    point = DesignPoint("arm", 8192)
    blob = _result(point, ipc=1.0)
    # a failure a retry in another segment fixed, a result re-evaluated
    # by newer code, and a failure nothing fixed, which must survive
    store.save_failure(BENCH, point.point_id, "killed mid-retry")
    store.save(_result(point, code="0" * 16, ipc=0.5))
    store.save_failure(BENCH, "f" * 12, "genuine failure")
    store.close()
    retry = ResultStore(root)
    retry.save(blob)
    retry.close()
    # a killed writer's torn tail
    with open(os.path.join(store.segment_dir(BENCH), "dead.jsonl"),
              "w") as fh:
        fh.write(json.dumps(blob)[:50])
    # heartbeats: one stale, one torn, one tmp, one live
    hb = HeartbeatWriter(store.progress_dir, BENCH, total=4)
    stale = os.path.join(store.progress_dir, "w99999.json")
    with open(stale, "w") as fh:
        json.dump({"pid": 99999, "done": 1, "updated": time.time() - 3600},
                  fh)
    with open(os.path.join(store.progress_dir, "w88888.json"), "w") as fh:
        fh.write("garbage")
    with open(os.path.join(store.progress_dir, "w77777.json.tmp"), "w") as fh:
        fh.write("")

    report = store.gc()
    assert report == {"heartbeats": 3, "torn": 1, "superseded": 2,
                      "legacy": 0}
    assert os.path.exists(hb.path)                      # live worker kept
    assert not os.path.exists(stale)
    assert len(_segments(store)) == 1                   # compacted
    after = ResultStore(root)
    assert after.load(BENCH, point.point_id) == blob    # results untouched
    remaining = after.failures()
    assert len(remaining) == 1
    assert remaining[0]["error"] == "genuine failure"
    # idempotent: a second pass finds nothing
    assert store.gc() == {"heartbeats": 0, "torn": 0, "superseded": 0,
                          "legacy": 0}


def test_gc_on_missing_or_empty_store(tmp_path):
    store = ResultStore(str(tmp_path / "nothing"))
    assert store.gc() == {"heartbeats": 0, "torn": 0, "superseded": 0,
                          "legacy": 0}


def test_cli_gc(tmp_path, capsys):
    from repro.dse.cli import main
    from repro.dse.progress import STALE_AFTER

    store = ResultStore(str(tmp_path / "store"))
    os.makedirs(store.progress_dir, exist_ok=True)
    with open(os.path.join(store.progress_dir, "w1.json"), "w") as fh:
        json.dump({"pid": 1, "updated": time.time() - 10 * STALE_AFTER}, fh)
    rc = main(["gc", "--store", store.root, "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"heartbeats": 1, "torn": 0, "superseded": 0,
                      "legacy": 0}

    rc = main(["gc", "--store", str(tmp_path / "missing")])
    assert rc == 1
