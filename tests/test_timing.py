"""Tests for the cache model and the dual-issue timing model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import CacheGeometry, SetAssociativeCache
from repro.sim.pipeline import TimingConfig, simulate_timing
from repro.compiler import compile_arm
from repro.sim.functional import ArmSimulator
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# cache model

def test_geometry_basics():
    g = CacheGeometry(16 * 1024, 32, 32)
    assert g.num_sets == 16
    assert g.num_blocks == 512
    assert g.line_of(0x1000) == 0x1000 // 32


def test_geometry_validation():
    with pytest.raises(ValueError):
        CacheGeometry(1000, 32, 32)
    with pytest.raises(ValueError):
        CacheGeometry(16 * 1024, 24, 32)


def test_cache_hits_after_first_access():
    c = SetAssociativeCache(CacheGeometry(1024, 32, 2))
    assert not c.access_line(5)
    assert c.access_line(5)
    assert c.misses == 1 and c.accesses == 2
    assert c.compulsory_misses == 1


def test_cache_lru_eviction():
    # 2-way, 16 sets: lines 0, 16, 32 map to set 0
    c = SetAssociativeCache(CacheGeometry(1024, 32, 2))
    c.access_line(0)
    c.access_line(16)
    c.access_line(0)     # refresh line 0
    c.access_line(32)    # evicts 16 (LRU)
    assert c.contains_line(0) and c.contains_line(32)
    assert not c.contains_line(16)
    assert not c.access_line(16)  # conflict miss, not compulsory
    assert c.compulsory_misses == 3 and c.misses == 4


def test_small_cache_thrashes_large_footprint():
    small = SetAssociativeCache(CacheGeometry(1024, 32, 32))
    big = SetAssociativeCache(CacheGeometry(4096, 32, 32))
    footprint = list(range(64))  # 2 KB of lines
    for _round in range(20):
        for line in footprint:
            small.access_line(line)
            big.access_line(line)
    assert big.misses == 64  # compulsory only
    assert small.misses > 500  # thrashes every round


@settings(max_examples=30)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
def test_cache_invariants(lines):
    c = SetAssociativeCache(CacheGeometry(2048, 32, 4))
    for line in lines:
        c.access_line(line)
    assert c.accesses == len(lines)
    assert c.compulsory_misses == len(set(lines))
    assert c.compulsory_misses <= c.misses <= c.accesses
    # every distinct recently-accessed line in a set must not exceed ways
    for ways in c._sets:
        assert len(ways) <= 4


# ----------------------------------------------------------------------
# timing model

def timing_for(name, icache_bytes=16 * 1024, scale="small"):
    wl = get_workload(name)
    image = compile_arm(wl.build_module(scale))
    result = ArmSimulator(image).run()
    return result, simulate_timing(result, icache_bytes)


def test_ipc_in_feasible_range():
    _res, report = timing_for("crc32")
    assert 0.3 < report.ipc <= 2.0  # dual issue caps at 2


def test_cycles_bounded_by_instructions():
    res, report = timing_for("bitcount")
    # cycles at least instructions/2 (dual issue), at most a small multiple
    assert report.instructions / 2 <= report.cycles <= report.instructions * 4


def test_smaller_icache_never_faster():
    res = None
    wl = get_workload("sha")
    image = compile_arm(wl.build_module("small"))
    res = ArmSimulator(image).run()
    big = simulate_timing(res, 16 * 1024)
    small = simulate_timing(res, 8 * 1024)
    tiny = simulate_timing(res, 1 * 1024)
    assert big.icache_misses <= small.icache_misses <= tiny.icache_misses
    assert big.cycles <= small.cycles <= tiny.cycles


def test_requests_proportional_to_instructions_arm():
    res, report = timing_for("crc32")
    # ARM: one 32-bit word per instruction, so requests ≈ instructions
    assert report.icache_requests == res.dynamic_instructions


def test_fits_requests_roughly_halved():
    from repro.core import ArmProfile, synthesize
    from repro.sim.functional.fits_sim import FitsSimulator

    wl = get_workload("crc32")
    image = compile_arm(wl.build_module("small"), fits_tuned=True)
    arm_res = ArmSimulator(image).run()
    profile = ArmProfile.from_execution(image, arm_res)
    synth = synthesize(profile)
    fits_res = FitsSimulator(synth.image).run()
    arm_rep = simulate_timing(arm_res, 16 * 1024)
    fits_rep = simulate_timing(fits_res, 16 * 1024)
    ratio = fits_rep.icache_requests / arm_rep.icache_requests
    assert 0.45 < ratio < 0.70, ratio
    # and the toggle activity drops roughly in proportion
    tratio = fits_rep.fetch_toggles / arm_rep.fetch_toggles
    assert tratio < 0.8, tratio


def test_fetch_toggles_positive_and_bounded():
    res, report = timing_for("qsort")
    assert 0 < report.fetch_toggles
    # cannot toggle more than 32 bits per fetched word
    assert report.fetch_toggles <= 32 * report.icache_requests
    assert 0 < report.max_fetch_toggles <= 32


def test_dcache_sees_memory_trace():
    res, report = timing_for("qsort")
    assert report.dcache_accesses == len(res.mem_addrs)
    assert report.dcache_misses >= 1


def test_timing_report_seconds():
    _res, report = timing_for("crc32")
    assert report.seconds == report.cycles / 200e6


def test_fetch_accounting_never_reaches_blas(monkeypatch):
    """Every ``np.dot`` of a unit's evaluation sees integer operands.

    A float operand runs BLAS, whose helper thread then spins in every
    pool worker; an int64 count dotted with a uint64 popcount is one,
    since numpy promotes that mix to float64."""
    from collections import OrderedDict

    from repro.dse import evaluate
    from repro.dse.space import ISAS, DesignPoint
    from repro.sim.functional import store as trace_store

    real_dot = np.dot

    def integer_dot(a, b, *args, **kwargs):
        for operand in (a, b):
            dtype = np.asarray(operand).dtype
            assert dtype.kind in "iub", "np.dot on a %s operand" % dtype
        return real_dot(a, b, *args, **kwargs)

    # fresh units and traces: no fetch geometry or precomp memoized yet
    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    monkeypatch.setattr(evaluate, "_FUNC_GROUPS", OrderedDict())
    monkeypatch.setattr(trace_store, "_PLANE_CACHE", OrderedDict())
    monkeypatch.setattr(np, "dot", integer_dot)
    points = [DesignPoint(isa, size, block_bytes=block, fetch_bits=fetch)
              for isa in ISAS
              for size, block, fetch in ((8192, 32, 32), (4096, 16, 64))]
    outcomes = list(evaluate.evaluate_points("crc32", points, scale="small"))
    assert len(outcomes) == len(points)
    for point, _blob, error in outcomes:
        assert error is None, (point.point_id, error)
