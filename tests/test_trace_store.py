"""Persistent functional-trace store round trips and versioning."""

import json
import os

import numpy as np
import pytest

from repro.compiler import compile_arm
from repro.obs import core as obs
from repro.sim.functional import (
    ArmSimulator,
    TraceStore,
    cached_run,
    code_version_hash,
    image_fingerprint,
)
from repro.sim.functional.store import clear_plane_cache
from repro.workloads import get_workload


@pytest.fixture()
def trace_env(tmp_path):
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path / "trace_cache")
    try:
        yield str(tmp_path / "trace_cache")
    finally:
        os.environ.pop("REPRO_TRACE_CACHE", None)


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


def test_round_trip(trace_env, crc_image):
    store = TraceStore(trace_env)
    fresh = ArmSimulator(crc_image).run()
    assert store.load(crc_image) is None
    store.save(crc_image, fresh, kind="arm")
    loaded = store.load(crc_image)
    assert loaded is not None
    _assert_same_result(fresh, loaded)
    assert loaded.image is crc_image


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


def test_version_mismatch_skips_entry(trace_env, crc_image, capsys):
    store = TraceStore(trace_env)
    store.save(crc_image, ArmSimulator(crc_image).run(), kind="arm")
    man_path = os.path.join(trace_env, image_fingerprint(crc_image) + ".json")
    with open(man_path) as f:
        manifest = json.load(f)
    manifest["code_hash"] = "deadbeef00000000"
    with open(man_path, "w") as f:
        json.dump(manifest, f)
    assert store.load(crc_image) is None
    assert "simulator code changed" in capsys.readouterr().err


@pytest.mark.parametrize("kept", [0.5, 0.0])
def test_torn_entry_resimulates(trace_env, crc_image, kept):
    """A truncated ``.npz`` (a write torn by a crash or a full disk) is a
    miss: the run re-simulates and rewrites a loadable entry."""
    first = cached_run("arm", crc_image, ArmSimulator(crc_image).run)
    npz_path = os.path.join(trace_env, image_fingerprint(crc_image) + ".npz")
    with open(npz_path, "r+b") as fh:
        fh.truncate(int(os.path.getsize(npz_path) * kept))
    clear_plane_cache()
    calls = []

    def runner():
        calls.append(1)
        return ArmSimulator(crc_image).run()

    again = cached_run("arm", crc_image, runner)
    assert calls == [1]
    assert again.exit_code == get_workload("crc32").reference("small")
    clear_plane_cache()
    reloaded = TraceStore(trace_env).load(crc_image)
    assert reloaded is not None
    _assert_same_result(first, reloaded)


def test_disable_via_env(tmp_path, crc_image):
    os.environ["REPRO_TRACE_CACHE"] = "off"
    try:
        result = cached_run("arm", crc_image,
                            lambda: ArmSimulator(crc_image).run())
    finally:
        os.environ.pop("REPRO_TRACE_CACHE", None)
    assert result.exit_code is not None
    assert not os.path.exists(str(tmp_path / "trace_cache"))


def test_fingerprint_sensitive_to_code(crc_image):
    key = image_fingerprint(crc_image)
    assert key == image_fingerprint(crc_image)
    other = compile_arm(get_workload("sha").build_module("small"))
    assert image_fingerprint(other) != key
    assert len(code_version_hash()) == 16
