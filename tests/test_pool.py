"""Tests for the persistent warm worker pool and shared-memory planes.

The pool promises: workers persist across ``run`` calls (the warmth the
whole design exists for), concurrent groups interleave fair-share
rather than head-of-line blocking, a sweep task is one (benchmark, ISA)
unit whose shared work runs once, and plane descriptors round-trip an
ExecutionResult through shared memory bit-for-bit (with silent fallback
once the bus is gone).  That a pool-dispatched sweep is bit-identical
to the in-process serial path is
``tests/test_dse.py::test_parallel_sweep_matches_serial``.
"""

import json
import os
import random
import threading
import time
from collections import Counter, OrderedDict

import numpy as np
import pytest

from repro.compiler import compile_arm
from repro.dse import pool as pool_mod
from repro.dse.pool import WorkerPool, _context
from repro.dse.scheduler import _chunk_tasks, sweep
from repro.dse.space import DesignSpace
from repro.dse.store import ResultStore
from repro.obs import core as obs
from repro.sim.functional import ArmSimulator, TraceStore, image_fingerprint
from repro.sim.functional import planes
from repro.sim.functional import store as store_mod
from repro.sim.functional.store import clear_plane_cache
from repro.workloads import get_workload
from tests.test_trace_store import MEMORY_SHAPES, with_memory


# ----------------------------------------------------------------------
# module-level workers (pipes pickle the function by reference)


def _pid_task(payload):
    with open(payload["log"], "a") as fh:
        fh.write("%d\n" % os.getpid())


def _sleep_task(payload):
    time.sleep(payload["s"])


def _attach_task(payload):
    from multiprocessing import shared_memory

    shared_memory.SharedMemory(name=payload["name"]).close()


# ----------------------------------------------------------------------
# worker persistence + fair share


def test_workers_persist_across_runs(tmp_path):
    pool = WorkerPool(_context())
    try:
        log = str(tmp_path / "pids")
        first = pool.run(_pid_task, [{"log": log}] * 4, jobs=2)
        second = pool.run(_pid_task, [{"log": log}] * 4, jobs=2)
        assert all(r.ok for r in first + second)
        with open(log) as fh:
            pids = [line.strip() for line in fh if line.strip()]
        assert len(pids) == 8
        assert len(set(pids)) <= 2      # same warm workers served both runs
        stats = pool.stats()
        assert stats["mode"] == "warm"
        assert stats["tasks_done"] == 8
        assert sum(w["tasks"] for w in stats["workers"]) == 8
    finally:
        pool.close()


def test_fair_share_interleaves_concurrent_groups():
    pool = WorkerPool(_context())
    try:
        order = []
        lock = threading.Lock()
        start = threading.Barrier(2, timeout=10)

        def run_group(tag):
            def progress(_result):
                with lock:
                    order.append(tag)

            start.wait()
            results = pool.run(_sleep_task, [{"s": 0.05}] * 4, jobs=2,
                               progress=progress)
            assert all(r.ok for r in results)

        threads = [threading.Thread(target=run_group, args=(tag,))
                   for tag in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(order) == 8
        # neither group was serialized behind the other: each completed
        # work before the other group finished
        first = {tag: order.index(tag) for tag in ("a", "b")}
        last = {tag: len(order) - 1 - order[::-1].index(tag)
                for tag in ("a", "b")}
        assert first["a"] < last["b"] and first["b"] < last["a"]
    finally:
        pool.close()


@pytest.mark.skipif(not planes.available(), reason="no shared_memory")
def test_worker_forked_while_tracker_busy_can_attach():
    """A worker forked while another thread holds the shared-memory
    resource tracker's lock (a concurrent serve batch exporting planes)
    must still attach segments instead of hanging on the lock."""
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=4096)
    held, release = threading.Event(), threading.Event()

    def hold_tracker():
        with resource_tracker._resource_tracker._lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold_tracker)
    holder.start()
    pool = WorkerPool(_context())
    try:
        assert held.wait(10)
        threading.Timer(0.5, release.set).start()
        results = pool.run(_attach_task, [{"name": segment.name}], jobs=1,
                           timeout=10, retries=0)
        assert [r.ok for r in results] == [True], results[0].error
    finally:
        release.set()
        holder.join(10)
        assert not holder.is_alive()
        pool.close()
        segment.close()
        segment.unlink()


# ----------------------------------------------------------------------
# one task per (benchmark, ISA) unit


def test_chunk_tasks_one_payload_per_unit():
    space = DesignSpace.grid(isas=("arm", "thumb", "fits"),
                             sizes=(8192, 16384), blocks=(16, 32))
    pending = [(b, p) for b in ("sha", "crc32") for p in space]
    random.Random(7).shuffle(pending)
    payloads = _chunk_tasks(pending, "/tmp/store", "small")

    units = OrderedDict()
    for benchmark, point in pending:
        units.setdefault((benchmark, point.isa), []).append(point.to_dict())
    assert len(payloads) == 6
    assert [(p["benchmark"], p["points"][0]["isa"]) for p in payloads] \
        == list(units)
    for payload, points in zip(payloads, units.values()):
        assert set(payload) == {"store", "benchmark", "scale", "points"}
        assert (payload["store"], payload["scale"]) == ("/tmp/store", "small")
        assert payload["points"] == points      # all of them, input order


def test_pool_sweep_does_each_units_shared_work_once(tmp_path, monkeypatch):
    """At ``jobs=2`` every (benchmark, ISA) unit is one task, so its
    functional build, timing precomputation and stack-distance passes
    happen once, not once per worker that ran a piece of it."""
    from repro.dse import evaluate

    pool_mod.shutdown_pool()
    # forked workers inherit the coordinator's memos: start them cold
    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    monkeypatch.setattr(evaluate, "_FUNC_GROUPS", OrderedDict())
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    space = DesignSpace.grid(isas=("arm", "thumb", "fits"),
                             sizes=(8192, 16384), assocs=(32,),
                             blocks=(16, 32))
    store = ResultStore(str(tmp_path / "store"))
    try:
        summary = sweep(space, ["crc32"], scale="small", jobs=2, store=store)
    finally:
        pool_mod.shutdown_pool()
    assert summary["failed"] == [] and summary["evaluated"] == 12
    assert summary["tasks"] == 3
    counters = Counter()
    for blob in store.iter_results():
        counters.update(blob["manifest"]["counters"])
    assert counters["cache.stack.rle_passes"] == 6     # 3 ISAs x 2 blocks
    assert counters["flow.runs"] == 1
    assert counters["timing.precomputations"] == 3


# ----------------------------------------------------------------------
# shared-memory plane bus


def _assert_lookup_matches(key, image, fresh):
    """Compare one plane lookup against the fresh run, then drop the
    numpy views (they pin the shared mapping while alive)."""
    got = planes.lookup(key, image)
    assert got is not None
    assert got.exit_code == fresh.exit_code
    for field in ("run_starts", "run_ends", "mem_addrs", "mem_is_store"):
        assert np.array_equal(getattr(got, field), getattr(fresh, field))
    assert bytes(got.memory) == bytes(fresh.memory)


@pytest.mark.skipif(not planes.available(), reason="no shared_memory")
@pytest.mark.parametrize("shape", MEMORY_SHAPES)
def test_plane_bus_roundtrip_and_fallback(tmp_path, shape):
    import gc

    image = compile_arm(get_workload("crc32").build_module("small"))
    fresh = with_memory(ArmSimulator(image).run(), shape)
    store = TraceStore(str(tmp_path / "ts"))
    key = store.save(image, fresh, kind="arm")
    with open(os.path.join(store.root, key + ".json")) as fh:
        manifest = json.load(fh)

    bus = planes.PlaneBus()
    desc = bus.export_entry(store, manifest)
    assert desc is not None and desc["key"] == key
    planes.clear_registry()
    try:
        planes.attach([desc])
        _assert_lookup_matches(key, image, fresh)

        # the attached mapping outlives the bus: unlink removes the
        # name, not the pages a worker already holds
        bus.close()
        _assert_lookup_matches(key, image, fresh)

        # a fresh process (fresh registry) attaching after close falls
        # back silently: the segment name is gone
        gc.collect()            # release the views before the handle
        planes.clear_registry()
        planes.attach([desc])
        assert planes.lookup(key, image) is None
    finally:
        bus.close()
        gc.collect()
        planes.clear_registry()


def test_export_for_matches_benchmark_and_scale(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    from repro.obs import profile as prof
    from repro.sim.functional import cached_run

    image = compile_arm(get_workload("crc32").build_module("small"))
    with prof.run_context(benchmark="crc32", scale="small"):
        cached_run("arm", image, ArmSimulator(image).run)
    store = store_mod.get_store()
    bus = planes.PlaneBus()
    try:
        assert bus.export_for(store, "sha", "small") == []
        assert bus.export_for(store, "crc32", "full") == []
        descs = bus.export_for(store, "crc32", "small")
        assert len(descs) == 1
        assert descs[0]["key"] == image_fingerprint(image)
    finally:
        bus.close()


def test_functional_attributes_every_simulation(tmp_path, monkeypatch):
    """Every run ``_functional`` makes, the FITS flow's included, names
    its benchmark and scale: in the trace-store manifests, hence in the
    shared-memory export that filters on them, and in the block
    profiler's records."""
    from repro.dse import evaluate
    from repro.obs import profile as prof

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "tc"))
    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    monkeypatch.setattr(evaluate, "_FUNC_GROUPS", OrderedDict())
    prof.enable()
    prof.clear()
    try:
        for isa in ("arm", "thumb", "fits"):
            evaluate._functional("crc32", "small", isa)
        records = prof.records()
    finally:
        prof.disable()
        prof.clear()
    store = store_mod.get_store()
    manifests = [json.load(open(os.path.join(store.root, name)))
                 for name in sorted(os.listdir(store.root))
                 if name.endswith(".json")]
    assert sorted(m["kind"] for m in manifests) == ["arm", "fits", "thumb"]
    for manifest in manifests:
        assert (manifest["benchmark"], manifest["scale"]) == ("crc32", "small")
    bus = planes.PlaneBus()
    try:
        assert len(bus.export_for(store, "crc32", "small")) == 3
    finally:
        bus.close()
    fits = [r for r in records if r["isa"] == "fits"]
    assert fits and all(r["benchmark"] == "crc32" for r in fits)


# ----------------------------------------------------------------------
# plane LRU cache counters


def test_plane_cache_hit_miss_evict_counters(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod, "PLANE_CACHE_ENTRIES", 1)
    store = TraceStore(str(tmp_path / "ts"))
    images = {}
    for name in ("crc32", "sha"):
        image = compile_arm(get_workload(name).build_module("small"))
        store.save(image, ArmSimulator(image).run(), kind="arm")
        images[name] = image

    clear_plane_cache()
    was_enabled = obs.enabled
    obs.enable()
    mark = obs.mark()
    try:
        assert store.load(images["crc32"]) is not None   # miss: decode
        assert store.load(images["crc32"]) is not None   # hit: cached
        assert store.load(images["sha"]) is not None     # miss + evict crc32
        assert store.load(images["crc32"]) is not None   # miss again
        counters = obs.since(mark)["counters"]
    finally:
        if not was_enabled:
            obs.disable()
        clear_plane_cache()
    assert counters.get("trace_store.plane_cache.miss") == 3
    assert counters.get("trace_store.plane_cache.hit") == 1
    assert counters.get("trace_store.plane_cache.evict", 0) >= 2
