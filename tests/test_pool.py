"""Tests for the persistent warm worker pool and shared-memory planes.

The pool promises: workers persist across ``run`` calls (the warmth the
whole design exists for), concurrent groups interleave fair-share
rather than head-of-line blocking, chunking is weighted by last-known
per-point cost, and plane descriptors round-trip an ExecutionResult
through shared memory bit-for-bit (with silent fallback once the bus is
gone).  That a pool-dispatched sweep is bit-identical to the in-process
serial path is ``tests/test_dse.py::test_parallel_sweep_matches_serial``.
"""

import json
import os
import threading
import time

import numpy as np
import pytest

from repro.compiler import compile_arm
from repro.dse import scheduler
from repro.dse.pool import WorkerPool, _context
from repro.dse.scheduler import _chunk_tasks
from repro.dse.space import preset
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


# ----------------------------------------------------------------------
# cost-weighted chunking


def test_chunk_tasks_weights_by_point_cost(monkeypatch):
    points = [p for p in preset("paper4")]
    pending = [("cheap", p) for p in points * 2] \
        + [("costly", p) for p in points * 2]     # 8 points per benchmark
    monkeypatch.setattr(scheduler, "_point_costs",
                        lambda benchmarks, scale: {"cheap": 1.0,
                                                   "costly": 4.0})
    payloads = _chunk_tasks(pending, "/tmp/store", "small", jobs=2)
    sizes = {}
    for payload in payloads:
        sizes.setdefault(payload["benchmark"], []).append(
            len(payload["points"]))
    # budget = (1*8 + 4*8) / 4 = 10 weighted units per chunk: the cheap
    # benchmark fits in one chunk, the costly one is split 3/3/2
    assert sizes["cheap"] == [8]
    assert sizes["costly"] == [3, 3, 2]
    assert sum(sizes["cheap"]) + sum(sizes["costly"]) == len(pending)


def test_chunk_tasks_uniform_costs_match_legacy_split(monkeypatch):
    points = [p for p in preset("paper4")]
    pending = [("crc32", p) for p in points] + [("sha", p) for p in points]
    monkeypatch.setattr(scheduler, "_point_costs",
                        lambda benchmarks, scale: {b: 1.0
                                                   for b in benchmarks})
    payloads = _chunk_tasks(pending, "/tmp/store", "small", jobs=2)
    # 8 points / (2 jobs * 2) = 2-point chunks, exactly the old uniform
    # ceil(len/target) split
    assert [len(p["points"]) for p in payloads] == [2, 2, 2, 2]
    assert all(len({pt["isa"] for pt in p["points"]}) >= 1
               and p["benchmark"] in ("crc32", "sha") for p in payloads)


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
    from repro.sim.functional import cached_run

    image = compile_arm(get_workload("crc32").build_module("small"))
    cached_run("arm", image, ArmSimulator(image).run,
               benchmark="crc32", scale="small")
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
