"""Stack-distance kernel vs the reference LRU model.

The one-pass Mattson analysis must be bit-identical to
:class:`SetAssociativeCache` for every geometry it claims to cover —
miss, compulsory-miss, and eviction counts alike.  These tests hold
the per-access oracle ``tests.oracles.profile_lines`` (which
``tests/test_trace_rle.py`` holds the kernel to) against the reference
model over ~20 geometries spanning direct-mapped through
fully-associative, on randomized and adversarial line traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.cache import CacheGeometry, SetAssociativeCache
from repro.sim.cache.stack import expand_line_spans, profile_spans_rle
from repro.sim.pipeline import TimingBatch, TimingConfig, simulate_timing
from repro.compiler import compile_arm
from repro.sim.functional import ArmSimulator
from repro.workloads import get_workload
from tests.oracles import profile_lines


# 20 geometries at a shared 32B block: sizes 1K..32K, direct-mapped (1)
# through fully-associative (size/block ways).
GEOMETRIES = []
for size in (1024, 2048, 4096, 8192, 16384, 32768):
    for assoc in (1, 2, 4, 8, size // 32):
        if size % (32 * assoc):
            continue
        geom = CacheGeometry(size, 32, assoc)
        if not any(g.size_bytes == geom.size_bytes
                   and g.associativity == geom.associativity
                   for g in GEOMETRIES):
            GEOMETRIES.append(geom)
GEOMETRIES = GEOMETRIES[:22]


def reference_stats(lines, geometry):
    cache = SetAssociativeCache(geometry)
    for line in lines:
        cache.access_line(line)
    return cache.stats()


def assert_profile_matches(lines, geometries):
    profile = profile_lines(lines, geometries)
    for geom in geometries:
        assert profile.covers(geom)
        assert profile.stats(geom) == reference_stats(lines, geom), geom


def test_geometry_pool_has_extremes():
    assocs = {g.associativity for g in GEOMETRIES}
    assert 1 in assocs                       # direct-mapped
    assert any(g.num_sets == 1 for g in GEOMETRIES)  # fully-associative
    assert len(GEOMETRIES) >= 20


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=0, max_size=400))
def test_stack_profile_bit_identical_random_traces(lines):
    assert_profile_matches(lines, GEOMETRIES)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=120),
    st.integers(min_value=2, max_value=5),
)
def test_stack_profile_bit_identical_looping_traces(body, repeats):
    # loop-like traces: the dominant I-cache pattern
    assert_profile_matches(body * repeats, GEOMETRIES)


def test_stack_profile_adversarial_patterns():
    cases = [
        [],                                   # empty trace
        [7] * 50,                             # pure repeats (fold path)
        list(range(2048)),                    # cold sweep, forces compaction
        list(range(256)) * 3,                 # cyclic thrash
        [0, 32, 64, 0, 32, 64, 96, 0],        # same-set conflicts (32 sets)
        [i * 1024 for i in range(40)] * 2,    # single-set pileup at many ks
    ]
    for lines in cases:
        assert_profile_matches(lines, GEOMETRIES)


def test_profile_rejects_mixed_block_sizes():
    with pytest.raises(ValueError):
        profile_spans_rle([1], [3], [0], [1],
                          [CacheGeometry(1024, 32, 2),
                           CacheGeometry(1024, 16, 2)])


def test_profile_rejects_uncovered_geometry():
    profile = profile_spans_rle([1], [3], [0], [1],
                                [CacheGeometry(1024, 32, 2)])
    with pytest.raises(ValueError):
        profile.stats(CacheGeometry(1024, 32, 4))  # assoc beyond amax


def test_expand_line_spans_matches_python_loop():
    rng = np.random.default_rng(7)
    starts = rng.integers(0, 100, size=200)
    lengths = rng.integers(0, 6, size=200)
    ends = starts + lengths
    expected = []
    for a, b in zip(starts.tolist(), ends.tolist()):
        expected.extend(range(a, b + 1))
    got = expand_line_spans(starts, ends)
    assert got.tolist() == expected
    # fast path: all spans a single line
    same = expand_line_spans(starts, starts)
    assert same.tolist() == starts.tolist()


# ----------------------------------------------------------------------
# end-to-end: the batch timing path equals per-point simulate_timing

@pytest.fixture(scope="module")
def arm_result():
    wl = get_workload("crc32")
    image = compile_arm(wl.build_module("small"))
    return ArmSimulator(image).run()


def test_timing_batch_bit_identical_to_per_point(arm_result):
    specs = [(size, TimingConfig(icache_assoc=assoc))
             for size in (1024, 4096, 16384)
             for assoc in (1, 2, 32)]
    batch = TimingBatch(arm_result, specs)
    for size, config in batch.specs:
        fast = batch.report(size, config)
        ref = simulate_timing(arm_result, size, config)
        for field in ("cycles", "icache_misses", "icache_compulsory",
                      "icache_line_accesses", "icache_requests",
                      "fetch_toggles", "dcache_misses", "base_cycles"):
            assert getattr(fast, field) == getattr(ref, field), (field, size)


def test_simulate_timing_reuses_precomputation(arm_result):
    # Two calls with different icache_bytes must share the
    # geometry-invariant precomputation (same core signature).
    arm_result.__dict__.pop("_timing_precomps", None)
    r1 = simulate_timing(arm_result, 4096)
    precomps = arm_result._timing_precomps
    assert len(precomps) == 1
    pre = next(iter(precomps.values()))
    r2 = simulate_timing(arm_result, 16384)
    assert arm_result._timing_precomps is precomps
    assert len(precomps) == 1
    assert next(iter(precomps.values())) is pre
    # geometry-invariant outputs agree; reports are still per-geometry
    assert r1.base_cycles == r2.base_cycles
    assert r1.fetch_toggles == r2.fetch_toggles
    assert r1.icache_misses >= r2.icache_misses
    # a different core signature gets its own entry
    simulate_timing(arm_result, 4096, TimingConfig(mispredict_penalty=5))
    assert len(arm_result._timing_precomps) == 2


def test_timing_batch_rejects_mixed_core_configs(arm_result):
    with pytest.raises(ValueError):
        TimingBatch(arm_result, [(4096, TimingConfig()),
                                 (4096, TimingConfig(issue_width=1))])
