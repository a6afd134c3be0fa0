"""Persistent functional-trace store round trips and versioning."""

import json
import os

import numpy as np
import pytest

from repro.compiler import compile_arm
from repro.fingerprint import SIMULATOR, fingerprint
from repro.obs import core as obs
from repro.sim.functional import (
    ArmSimulator,
    TraceStore,
    cached_run,
    image_fingerprint,
)
from repro.sim.functional.store import PAGE, SCHEMA, clear_plane_cache
from repro.workloads import get_workload

#: final memories a stored trace must round-trip: the simulator's own,
#: and ones that differ from the initial image only in the first page,
#: only in the last page, or nowhere (an empty page list)
MEMORY_SHAPES = ("run", "first-page", "last-page", "unchanged")

#: stored memory-delta bytes per synthetic shape
_STORED_PAGE_BYTES = {"first-page": PAGE, "last-page": PAGE, "unchanged": 0}


def with_memory(result, shape):
    """``result`` with its final memory replaced according to ``shape``."""
    if shape != "run":
        memory = result.image.initial_memory()
        if shape == "first-page":
            memory[0] ^= 0xA5
        elif shape == "last-page":
            memory[-1] ^= 0xA5
        result.memory = memory
    return result


@pytest.fixture()
def trace_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "trace_cache"))
    return str(tmp_path / "trace_cache")


@pytest.fixture(scope="module")
def crc_image():
    wl = get_workload("crc32")
    return compile_arm(wl.build_module("small"))


def _assert_same_result(a, b):
    assert a.exit_code == b.exit_code
    assert np.array_equal(a.run_starts, b.run_starts)
    assert np.array_equal(a.run_ends, b.run_ends)
    assert np.array_equal(a.mem_addrs, b.mem_addrs)
    assert np.array_equal(a.mem_is_store, b.mem_is_store)
    assert bytes(a.console) == bytes(b.console)
    assert bytes(a.memory) == bytes(b.memory)


def _read_stored_manifest(store_root, image):
    with open(os.path.join(store_root,
                           image_fingerprint(image) + ".json")) as f:
        return json.load(f)


def _write_stored_manifest(store_root, image, manifest):
    with open(os.path.join(store_root,
                           image_fingerprint(image) + ".json"), "w") as f:
        json.dump(manifest, f)


def _assert_resimulated(store_root, image, first):
    """The next ``cached_run`` misses, re-simulates once and leaves a
    loadable entry equal to ``first``."""
    clear_plane_cache()
    calls = []

    def runner():
        calls.append(1)
        return ArmSimulator(image).run()

    again = cached_run("arm", image, runner)
    assert calls == [1]
    assert again.exit_code == get_workload("crc32").reference("small")
    clear_plane_cache()
    reloaded = TraceStore(store_root).load(image)
    assert reloaded is not None
    _assert_same_result(first, reloaded)


@pytest.mark.parametrize("shape", MEMORY_SHAPES)
def test_round_trip(trace_env, crc_image, shape, monkeypatch):
    """A loaded trace equals the fresh one, and builds its final memory
    (the one use of ``initial_memory`` on a load) only when ``.memory``
    is first read."""
    store = TraceStore(trace_env)
    fresh = with_memory(ArmSimulator(crc_image).run(), shape)
    assert store.load(crc_image) is None
    store.save(crc_image, fresh, kind="arm")
    clear_plane_cache()  # else load hands back ``fresh`` itself
    built = []
    initial_memory = type(crc_image).initial_memory

    def counted(image):
        built.append(image)
        return initial_memory(image)

    monkeypatch.setattr(type(crc_image), "initial_memory", counted)
    loaded = store.load(crc_image)
    assert loaded is not None and loaded is not fresh
    assert built == []
    memory = loaded.memory
    assert built == [crc_image] and loaded.memory is memory
    _assert_same_result(fresh, loaded)
    assert loaded.image is crc_image
    manifest = _read_stored_manifest(trace_env, crc_image)
    assert manifest["memory_bytes"] == len(fresh.memory)
    if shape in _STORED_PAGE_BYTES:
        assert manifest["lengths"][-1] == _STORED_PAGE_BYTES[shape]


def test_cached_run_hits_and_counters(trace_env, crc_image):
    was_enabled = obs.enabled
    obs.enable()
    mark = obs.mark()
    calls = []

    def runner():
        calls.append(1)
        return ArmSimulator(crc_image).run()

    first = cached_run("arm", crc_image, runner)
    second = cached_run("arm", crc_image, runner)
    counters = obs.since(mark)["counters"]
    if not was_enabled:
        obs.disable()
    assert len(calls) == 1  # second call served from the store
    _assert_same_result(first, second)
    assert counters.get("trace_store.miss") == 1
    assert counters.get("trace_store.hit") == 1


@pytest.mark.parametrize("save", ["written", "failed"])
def test_cached_run_miss_keeps_only_the_stored_pages(trace_env, crc_image,
                                                     monkeypatch, save):
    """Once a miss is stored, the returned result holds its final memory
    as the stored pages, like a loaded trace: it builds the memory (the
    one use of ``initial_memory``) on the first read, to the bytes an
    uncached run has.  A result whose save failed keeps its own."""
    uncached = ArmSimulator(crc_image).run()
    if save == "failed":
        def replace(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "replace", replace)
    result = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    monkeypatch.undo()
    built = []
    initial_memory = type(crc_image).initial_memory

    def counted(image):
        built.append(image)
        return initial_memory(image)

    monkeypatch.setattr(type(crc_image), "initial_memory", counted)
    memory = result.memory
    assert built == ([crc_image] if save == "written" else [])
    assert result.memory is memory
    assert isinstance(memory, bytearray)
    assert bytes(memory) == bytes(uncached.memory)


def test_cached_run_observes_save_only_when_cold(trace_env, crc_image):
    from repro.obs import metrics as obs_metrics

    def observed(name):
        hist = obs_metrics.histograms().get(name)
        return hist.count if hist is not None else 0

    was_enabled = obs.enabled
    obs.enable()
    mark = obs.mark()
    saves = observed("trace_store.save_seconds")
    loads = observed("trace_store.load_seconds")
    try:
        cached_run("arm", crc_image, ArmSimulator(crc_image).run)
        cold_saves = observed("trace_store.save_seconds") - saves
        cached_run("arm", crc_image, ArmSimulator(crc_image).run)
        warm_saves = observed("trace_store.save_seconds") - saves - cold_saves
        warm_loads = observed("trace_store.load_seconds") - loads
        spans = obs.since(mark)["spans"]
    finally:
        if not was_enabled:
            obs.disable()
    assert (cold_saves, warm_saves, warm_loads) == (1, 0, 1)
    assert spans["trace_store.encode"]["count"] == 1


def test_version_mismatch_skips_entry(trace_env, crc_image, capsys):
    store = TraceStore(trace_env)
    store.save(crc_image, ArmSimulator(crc_image).run(), kind="arm")
    manifest = _read_stored_manifest(trace_env, crc_image)
    manifest["code_hash"] = "deadbeef00000000"
    _write_stored_manifest(trace_env, crc_image, manifest)
    assert store.load(crc_image) is None
    assert "simulator code changed" in capsys.readouterr().err


def test_old_schema_entry_is_rewritten_in_place(trace_env, crc_image):
    """An entry of the previous schema is a miss: it is re-simulated and
    overwritten under the same key, leaving no orphan files."""
    first = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    manifest = _read_stored_manifest(trace_env, crc_image)
    manifest["schema"] = "repro.trace/v2"
    _write_stored_manifest(trace_env, crc_image, manifest)
    _assert_resimulated(trace_env, crc_image, first)
    key = image_fingerprint(crc_image)
    assert sorted(os.listdir(trace_env)) == [key + ".json", key + ".npz"]
    assert _read_stored_manifest(trace_env, crc_image)["schema"] == SCHEMA


@pytest.mark.parametrize("kept", [0.5, 0.0])
def test_torn_entry_resimulates(trace_env, crc_image, kept):
    """A truncated ``.npz`` (a write torn by a crash or a full disk) is a
    miss: the run re-simulates and rewrites a loadable entry."""
    first = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    npz_path = os.path.join(trace_env, image_fingerprint(crc_image) + ".npz")
    with open(npz_path, "r+b") as fh:
        fh.truncate(int(os.path.getsize(npz_path) * kept))
    _assert_resimulated(trace_env, crc_image, first)


@pytest.mark.parametrize("defect", ["swapped-lengths", "overlong-lengths",
                                    "page-outside-memory", "ragged-memory",
                                    "grown-memory"])
def test_manifest_disagreeing_with_payload_resimulates(trace_env, crc_image,
                                                       defect):
    """A manifest whose member lengths or memory size do not match its
    payload is a miss, not an exception out of ``load``: the run
    re-simulates and rewrites a loadable entry."""
    first = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    manifest = _read_stored_manifest(trace_env, crc_image)
    lengths = manifest["lengths"]
    if defect == "swapped-lengths":
        assert lengths[0] != lengths[-1]
        lengths[0], lengths[-1] = lengths[-1], lengths[0]
    elif defect == "overlong-lengths":
        lengths[-1] += PAGE
    elif defect == "page-outside-memory":
        # the run's stack lives in the last page, outside a one-page memory
        manifest["memory_bytes"] = PAGE
    else:
        # a delta that is not whole pages, or larger than the image's
        # memory: caught at load, not when the memory is first read
        manifest["memory_bytes"] += 1 if defect == "ragged-memory" else PAGE
    _write_stored_manifest(trace_env, crc_image, manifest)
    clear_plane_cache()
    assert TraceStore(trace_env).load(crc_image) is None
    _assert_resimulated(trace_env, crc_image, first)


@pytest.mark.parametrize("failing", [".npz", ".json"])
def test_failed_save_leaves_no_temp_file(trace_env, crc_image, monkeypatch,
                                         capsys, failing):
    """A write that fails (a full disk, a failed rename) is reported,
    leaves no ``*.tmp.*`` file behind and no loadable entry."""
    real_replace = os.replace

    def replace(src, dst):
        if dst.endswith(failing):
            raise OSError(28, "No space left on device")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    result = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    monkeypatch.undo()
    assert result.exit_code == get_workload("crc32").reference("small")
    assert "save failed" in capsys.readouterr().err
    assert [n for n in os.listdir(trace_env) if ".tmp." in n] == []
    clear_plane_cache()
    assert TraceStore(trace_env).load(crc_image) is None


def test_disable_via_env(tmp_path, crc_image, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    result = cached_run("arm", crc_image,
                        lambda: ArmSimulator(crc_image).run())
    assert result.exit_code is not None
    assert not os.path.exists(str(tmp_path / "trace_cache"))


def test_fingerprint_sensitive_to_code(crc_image):
    key = image_fingerprint(crc_image)
    assert key == image_fingerprint(crc_image)
    other = compile_arm(get_workload("sha").build_module("small"))
    assert image_fingerprint(other) != key
    assert len(fingerprint(SIMULATOR)) == 16
