"""Columnar run-length trace property tests (DESIGN.md §8).

The contract under test: the two-level columnar trace — superblock
table plus ``(superblock_id, iteration_count)`` stream — is exactly
equivalent to the flat per-boundary event stream.  Round-trips through
:func:`rle_encode_packed` are lossless (including the block engine's
batched backedge repeats and budget-truncated runs), compiled and
interpret-only engine runs produce identical columnar traces, and the
stack-distance / timing replay over the RLE form is bit-identical to a
walk of the flat per-run stream across ≥20 cache geometries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_arm, compile_thumb
from repro.ir import Cond, FunctionBuilder, Module
from repro.sim.cache import CacheGeometry, SetAssociativeCache
from repro.sim.cache import stack as stack_mod
from repro.sim.cache.stack import expand_line_spans, profile_spans_rle
from repro.sim.functional import ArmSimulator
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.functional.trace import PACK, rle_encode_packed
from repro.sim.pipeline.timing import (
    TimingConfig,
    _run_cycles,
    metadata_for,
    precompute_timing,
    simulate_timing_multi,
)
from repro.workloads import get_workload
from repro.workloads.runtime import runtime_module
from tests.oracles import interpreted, profile_lines

# ≥20 geometries at a shared 32B block: sizes 1K..32K, direct-mapped
# through fully-associative.
GEOMETRIES = []
for _size in (1024, 2048, 4096, 8192, 16384, 32768):
    for _assoc in (1, 2, 4, 8, _size // 32):
        if _size % (32 * _assoc):
            continue
        _geom = CacheGeometry(_size, 32, _assoc)
        if not any(g.size_bytes == _geom.size_bytes
                   and g.associativity == _geom.associativity
                   for g in GEOMETRIES):
            GEOMETRIES.append(_geom)


def test_geometry_pool_large_enough():
    assert len(GEOMETRIES) >= 20


# ----------------------------------------------------------------------
# rle_encode_packed round-trips: columnar -> per-boundary expansion is
# exact


def expand(block_starts, block_ends, seg_ids, seg_counts):
    rs = np.repeat(np.asarray(block_starts)[seg_ids], seg_counts)
    re = np.repeat(np.asarray(block_ends)[seg_ids], seg_counts)
    return rs, re


boundary_stream = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12),
              st.integers(1, 9)),
    min_size=0, max_size=60,
).map(lambda runs: [(s, s + w) for s, w, n in runs for _ in range(n)])


def packed(stream):
    return np.asarray([s * PACK + e for s, e in stream], dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(boundary_stream)
def test_rle_encode_roundtrip(stream):
    rs = np.asarray([s for s, _e in stream], dtype=np.int64)
    re = np.asarray([e for _s, e in stream], dtype=np.int64)
    bs, be, sid, cnt = rle_encode_packed(packed(stream))
    # table rows are distinct and the stream never repeats a block id
    # consecutively (maximal segments)
    assert len(np.unique(bs * 1000 + be)) == len(bs)
    assert not np.any(sid[1:] == sid[:-1])
    assert int(cnt.sum()) == len(rs)
    xs, xe = expand(bs, be, sid, cnt)
    assert np.array_equal(xs, rs)
    assert np.array_equal(xe, re)


@settings(max_examples=60, deadline=None)
@given(boundary_stream)
def test_rle_encode_packed_matches(stream):
    """The table is sorted by ``(start, end)`` and the segment stream is
    the maximal-run split of the flat stream — built here the slow way."""
    bs, be, sid, cnt = rle_encode_packed(packed(stream))
    segments = []
    for pair in stream:
        if segments and segments[-1][0] == pair:
            segments[-1][1] += 1
        else:
            segments.append([pair, 1])
    table = sorted({pair for pair, _n in segments})
    assert list(zip(bs.tolist(), be.tolist())) == table
    assert sid.tolist() == [table.index(pair) for pair, _n in segments]
    assert cnt.tolist() == [n for _pair, n in segments]


@settings(max_examples=40, deadline=None)
@given(boundary_stream, st.data())
def test_rle_encode_folds_batched_repeats(stream, data):
    """The block engine batches hot backedges as (boundary index, extra
    repeats); folding them must equal materializing them."""
    n = len(stream)
    reps = data.draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(1, 50)),
        min_size=0, max_size=5, unique_by=lambda t: t[0])) if n else []
    # materialized reference: boundary i repeated 1 + extra times
    extra_of = dict(reps)
    flat = []
    for i, pair in enumerate(stream):
        flat.extend([pair] * (1 + extra_of.get(i, 0)))
    ref = rle_encode_packed(packed(flat))
    idx = np.asarray(sorted(extra_of), dtype=np.int64)
    ext = np.asarray([extra_of[i] for i in sorted(extra_of)],
                     dtype=np.int64)
    folded = rle_encode_packed(packed(stream), rep_index=idx, rep_extra=ext)
    for a, b in zip(ref, folded):
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# compiled vs interpret-only engine runs: identical columnar traces,
# including self-backedge loops and budget-truncated (exact-budget) runs


def selfloop_module():
    """A tight self-backedge loop: one block repeating many times —
    the shape the block engine batches via ``flush_repeat``."""
    m = Module("selfloop")
    b = FunctionBuilder(m, "main", [])
    acc = b.li(0)
    x = b.li(4000)
    with b.loop_while(Cond.NE, x, 0):
        b.add(acc, 1, dst=acc)
        b.sub(x, 1, dst=x)
    b.ret(b.and_(acc, 0xFF))
    m.merge(runtime_module(), allow_duplicates=True)
    return m


RLE_FIELDS = ("block_starts", "block_ends", "seg_ids", "seg_counts")


def assert_same_columnar(a, b, label):
    for field in RLE_FIELDS:
        assert np.array_equal(getattr(a, field), getattr(b, field)), (
            "%s: %s differs" % (label, field))
    assert np.array_equal(a.run_starts, b.run_starts), label
    assert np.array_equal(a.run_ends, b.run_ends), label


@pytest.mark.parametrize("isa", ["arm", "thumb"])
def test_engines_columnar_identical_selfloop(isa):
    compiler = compile_arm if isa == "arm" else compile_thumb
    sim = ArmSimulator if isa == "arm" else ThumbSimulator
    image = compiler(selfloop_module())
    block = sim(image).run()
    oracle = interpreted(sim(image).run)
    assert block.num_runs > 1000          # the loop actually spun
    assert len(block.seg_ids) < block.num_runs // 100  # and collapsed
    assert_same_columnar(block, oracle, "selfloop/%s" % isa)


@pytest.mark.parametrize("bench", ["crc32", "sha"])
def test_engines_columnar_identical_workload(bench):
    wl = get_workload(bench)
    image = compile_arm(wl.build_module("small"))
    block = ArmSimulator(image).run()
    oracle = interpreted(ArmSimulator(image).run)
    assert block.exit_code == wl.reference("small")
    assert_same_columnar(block, oracle, bench)


def test_engines_columnar_identical_exact_budget():
    """A budget equal to the true dynamic count truncates the block
    engine's backedge batching mid-flight; the emitted columnar trace
    must still match the interpret-only run's exactly."""
    image = compile_arm(selfloop_module())
    dyn = ArmSimulator(image).run().dynamic_instructions
    block = ArmSimulator(image, max_instructions=dyn).run()
    oracle = interpreted(ArmSimulator(image, max_instructions=dyn).run)
    assert_same_columnar(block, oracle, "exact-budget")


# ----------------------------------------------------------------------
# stack-distance replay over RLE == event-stream reference, ≥20
# geometries, randomized span tables and streams


def assert_rle_profile_matches(sl, el, sid, cnt, geometries):
    rle = profile_spans_rle(sl, el, sid, cnt, geometries)
    run_sl = np.asarray(sl)[sid]
    run_el = np.asarray(el)[sid]
    lines = expand_line_spans(np.repeat(run_sl, cnt),
                              np.repeat(run_el, cnt))
    ref = profile_lines(lines, geometries)
    assert rle.accesses == ref.accesses
    # the RLE path reports distinct lines sorted; the event path in
    # first-touch order — same set, and stats() must agree exactly
    assert np.array_equal(np.sort(np.asarray(rle.distinct_lines)),
                          np.sort(np.asarray(ref.distinct_lines)))
    for geom in geometries:
        assert rle.stats(geom) == ref.stats(geom), geom


def chained_spans(rows):
    """Spans laid out left to right: ``(gap, width)`` puts a span
    ``gap`` lines after the previous one ends (a negative gap overlaps
    it) and ``width + 1`` lines long."""
    sl, el = [], []
    after = 0
    for gap, width in rows:
        start = max(0, after + gap)
        sl.append(start)
        el.append(start + width)
        after = start + width + 1
    return sl, el


#: A table of short, freely overlapping spans; or a wide one of 18-24
#: spans of 16-24 lines, each overlapping the previous by at most 4
#: lines, which the stream first visits in full, so that it touches at
#: least 16 + 17 * 12 = 220 distinct lines.
span_table = st.one_of(
    st.lists(st.tuples(st.integers(0, 120), st.integers(0, 6)),
             min_size=1, max_size=12).map(
        lambda rows: ([s for s, _w in rows], [s + w for s, w in rows],
                      False)),
    st.lists(st.tuples(st.integers(-4, 12), st.integers(15, 23)),
             min_size=18, max_size=24).map(
        lambda rows: chained_spans(rows) + (True,)),
)


@settings(max_examples=40, deadline=None)
@given(span_table, st.data())
def test_rle_stack_profile_random(table, data):
    sl, el, visit_all = table
    nb = len(sl)
    segs = []
    if visit_all:
        segs = [(b, data.draw(st.integers(1, 7)))
                for b in data.draw(st.permutations(range(nb)))]
    segs += data.draw(st.lists(
        st.tuples(st.integers(0, nb - 1), st.integers(1, 7)),
        min_size=0, max_size=40))
    sid = np.asarray([b for b, _n in segs], dtype=np.int64)
    cnt = np.asarray([n for _b, n in segs], dtype=np.int64)
    assert_rle_profile_matches(np.asarray(sl, dtype=np.int64),
                               np.asarray(el, dtype=np.int64),
                               sid, cnt, GEOMETRIES)


def test_rle_stack_profile_periodic_and_selfloop():
    """Adversarial shapes for the chunked DFA walk: long periodic
    regions (chunk reuse), a self-backedge block with huge counts
    (steady-repeat reduction), and chunk-boundary misalignment."""
    sl = np.asarray([0, 3, 5, 9, 0], dtype=np.int64)
    el = np.asarray([3, 5, 8, 9, 9], dtype=np.int64)
    sid = []
    cnt = []
    sid += [0, 1] * 40            # period 2
    cnt += [1, 2] * 40
    sid += [2] * 3                # misalign the next region
    cnt += [1, 100000, 7]         # self-repeat with a huge count
    sid += [0, 1, 2, 3] * 25      # period 4
    cnt += [1, 1, 2, 3] * 25
    sid += [4]                    # full-span block touches everything
    cnt += [2]
    assert_rle_profile_matches(
        sl, el, np.asarray(sid, dtype=np.int64),
        np.asarray(cnt, dtype=np.int64), GEOMETRIES)


def test_rle_stack_profile_self_conflicting_spans():
    """Spans wider than a tiny cache's set count conflict with
    themselves, so the repeated iterations of a segment miss too."""
    tiny = [CacheGeometry(size, 32, assoc)
            for size in (128, 256, 512) for assoc in (1, 2, 4)]
    sl = np.asarray([0, 10, 3], dtype=np.int64)
    el = np.asarray([19, 29, 40], dtype=np.int64)
    sid = np.asarray([0, 1, 0, 2, 1, 2], dtype=np.int64)
    cnt = np.asarray([3, 5, 1, 4, 2, 6], dtype=np.int64)
    assert_rle_profile_matches(sl, el, sid, cnt, tiny)


def test_rle_stack_profile_slab_boundaries(monkeypatch):
    """Scoring slabs of at most 3 (reuse, intervening line) pairs put
    nearly every transition in a slab of its own — still exact."""
    monkeypatch.setattr(stack_mod, "_SLAB", 3)
    sl = np.asarray([0, 2, 4, 6], dtype=np.int64)
    el = np.asarray([1, 3, 5, 7], dtype=np.int64)
    rng = np.random.RandomState(7)
    sid = rng.randint(0, 4, size=200).astype(np.int64)
    cnt = rng.randint(1, 5, size=200).astype(np.int64)
    assert_rle_profile_matches(sl, el, sid, cnt, GEOMETRIES)


@pytest.mark.parametrize("bench", ["crc32", "sha"])
def test_rle_stack_profile_real_trace(bench):
    wl = get_workload(bench)
    image = compile_arm(wl.build_module("small"))
    result = ArmSimulator(image).run()
    pre = precompute_timing(result, TimingConfig())
    sl, el = pre.line_spans_for(32)
    assert_rle_profile_matches(sl, el, result.seg_ids,
                               result.seg_counts, GEOMETRIES)


def sweep_geometries(block):
    """The served sweep's cache grid at one block size."""
    return [CacheGeometry(size, block, assoc)
            for size in (4096, 8192, 16384, 32768)
            for assoc in (1, 2, 4, 32)]


@pytest.mark.parametrize("bench,isa", [
    ("jpeg", "arm"),   # the roster's deepest stacks: 505 lines at 16 B
    ("gsm", "thumb"),  # its longest stream: 37,476 segments
])
def test_rle_stack_profile_sweep_shapes(bench, isa):
    compiler, sim = ((compile_arm, ArmSimulator) if isa == "arm"
                     else (compile_thumb, ThumbSimulator))
    result = sim(compiler(get_workload(bench).build_module("small"))).run()
    pre = precompute_timing(result, TimingConfig())
    for block in (16, 32, 64):
        sl, el = pre.line_spans_for(block)
        assert_rle_profile_matches(sl, el, result.seg_ids,
                                   result.seg_counts,
                                   sweep_geometries(block))


# ----------------------------------------------------------------------
# timing replay: full reports over the RLE path == a walk of the flat
# per-run stream


def _flat_stream_reports(result, specs):
    """Every :class:`TimingReport` field, derived from the flat per-run
    stream (``np.repeat`` of the segments) one run at a time, with
    per-access reference caches — no superblock table, no run-length
    weighting, no stack kernel."""
    config = specs[0][1]
    meta = metadata_for(result.image)
    fetch = precompute_timing(result, config).fetch  # the image's words
    words = fetch.words.tolist()
    starts = np.repeat(result.block_starts[result.seg_ids],
                       result.seg_counts).tolist()
    ends = np.repeat(result.block_ends[result.seg_ids],
                     result.seg_counts).tolist()

    def word(i):
        return (i * fetch.instr_bytes) // 4

    def toggles(a, b):
        return bin(words[a] ^ words[b]).count("1")

    base = penalty = requests = fetch_toggles = max_boundary = 0
    executed = np.zeros(len(meta) + 1, dtype=np.int64)
    taken = np.zeros(len(meta), dtype=np.int64)
    prev_last = None
    for s, e in zip(starts, ends):
        base += _run_cycles(s, e, meta, config.issue_width)
        m = meta[e]
        if m.is_cond_branch:
            penalty += (config.taken_redirect_penalty if m.is_backward
                        else config.mispredict_penalty)
        elif m.is_control:
            penalty += config.indirect_penalty
        ws, we = word(s), word(e)
        requests += we - ws + 1
        fetch_toggles += sum(toggles(j, j - 1) for j in range(ws + 1, we + 1))
        if prev_last is not None:
            t = toggles(prev_last, ws)
            fetch_toggles += t
            max_boundary = max(max_boundary, t)
        prev_last = we
        executed[s] += 1
        executed[e + 1] -= 1
        taken[e] += 1
    executed = np.cumsum(executed[:-1])
    backward = [i for i, m in enumerate(meta)
                if m.is_cond_branch and m.is_backward]
    not_taken = int(sum(executed[i] - taken[i] for i in backward))

    dcache = SetAssociativeCache(config.dcache_geometry())
    dshift = config.dcache_block.bit_length() - 1
    for addr in result.mem_addrs.tolist():
        dcache.access_line(addr >> dshift)
    dstats = dcache.stats()

    reports = []
    for size, cfg in specs:
        icache = SetAssociativeCache(cfg.icache_geometry(size))
        shift = cfg.icache_block.bit_length() - 1
        for s, e in zip(starts, ends):
            first = (s * fetch.instr_bytes + fetch.code_base) >> shift
            last = (e * fetch.instr_bytes + fetch.code_base) >> shift
            for line in range(first, last + 1):
                icache.access_line(line)
        istats = icache.stats()
        reports.append({
            "image": result.image,
            "config": cfg,
            "icache_bytes": size,
            "instructions": sum(e - s + 1 for s, e in zip(starts, ends)),
            "cycles": (base + penalty
                       + not_taken * cfg.mispredict_penalty
                       + istats["misses"] * cfg.icache_miss_penalty
                       + dstats["misses"] * cfg.dcache_miss_penalty),
            "base_cycles": base,
            "frequency_hz": cfg.frequency_hz,
            "icache_requests": requests,
            "icache_line_accesses": istats["accesses"],
            "icache_misses": istats["misses"],
            "icache_compulsory": istats["compulsory_misses"],
            "dcache_accesses": dstats["accesses"],
            "dcache_misses": dstats["misses"],
            "fetch_toggles": fetch_toggles,
            "max_fetch_toggles": max(fetch.max_word_toggles, max_boundary),
            "taken_transfers": len(starts),
            "fetch_word_bits": 32,
            "max_words_per_cycle": max(
                1, (cfg.issue_width * fetch.instr_bytes) // 4),
            "instr_bytes": fetch.instr_bytes,
            "code_lines": ((len(words) * 4 + cfg.icache_block - 1)
                           // cfg.icache_block),
        })
    return reports


@pytest.mark.parametrize("core,evicts", [
    ({}, False),                                     # every set counted
    ({"dcache_bytes": 256, "dcache_assoc": 2}, True),  # sets walked
], ids=["dcache-counted", "dcache-evicting"])
def test_timing_replay_event_vs_rle(core, evicts):
    specs = [(size, TimingConfig(icache_assoc=assoc, **core))
             for size in (1024, 4096, 32768) for assoc in (1, 4)]
    wl = get_workload("crc32")
    image = compile_arm(wl.build_module("small"))
    result = ArmSimulator(image).run()

    rle = simulate_timing_multi(result, specs)
    flat = _flat_stream_reports(result, specs)
    assert [r.__dict__ for r in rle] == flat
    config = specs[0][1]
    dcache = SetAssociativeCache(config.dcache_geometry())
    for addr in result.mem_addrs.tolist():
        dcache.access_line(addr >> dcache.geometry.block_shift)
    dstats = precompute_timing(result, config).dcache_stats
    assert dstats == dcache.stats()
    assert (dstats["evictions"] > 0) == evicts
