"""Differential fuzzing of the entire tool chain.

Hypothesis generates random (but well-formed) IR programs; every program
is executed four ways — the IR interpreter (golden), the compiled ARM
binary, the compiled Thumb binary, and the synthesized/translated FITS
binary — and all must agree on the exit checksum.  This is the strongest
single test in the repository: any divergence in instruction selection,
register allocation, encoding, linking, translation or simulation for
any ISA shows up as a checksum mismatch with a shrunken reproducer.

Every ARM program additionally goes through each fast path against its
reference: the block engine forced to compile every entry against the
engine forced to interpret every run, the one-pass multi-geometry timing
replay against per-point LRU simulation at hypothesis-drawn cache
geometries, and a trace-store save/load round trip.  The FITS flow's
register-budget profiles, projected from one ARM run, are checked
against simulating every budget image.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st, HealthCheck

from repro.ir import Cond, FunctionBuilder, Global, IRInterpreter, Module, Op, Width
from repro.workloads.runtime import runtime_module
from repro.compiler import compile_arm, compile_thumb
from repro.sim.functional import ArmSimulator, TraceStore
from repro.sim.functional.store import clear_plane_cache
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.pipeline.timing import (
    TimingConfig,
    simulate_timing,
    simulate_timing_multi,
)
from tests.oracles import compiled, interpreted
from tests.test_flow_projection import assert_counts_match_oracle, flow_counts

OPS = [Op.ADD, Op.SUB, Op.RSB, Op.AND, Op.ORR, Op.EOR, Op.MUL]
SHIFTS = [Op.LSL, Op.LSR, Op.ASR]
CONDS = list(Cond)

# one generated "step" manipulates the value pool; kept data-driven so
# hypothesis can shrink programs
step_strategy = st.one_of(
    st.tuples(st.just("bin"), st.sampled_from(OPS), st.integers(0, 7),
              st.integers(0, 7), st.one_of(st.none(), st.integers(0, 0xFFFFFFFF))),
    st.tuples(st.just("shift"), st.sampled_from(SHIFTS), st.integers(0, 7),
              st.integers(0, 7), st.integers(0, 31)),
    st.tuples(st.just("select"), st.sampled_from(CONDS), st.integers(0, 7),
              st.integers(0, 7), st.integers(0, 7)),
    st.tuples(st.just("store"), st.integers(0, 7), st.integers(0, 15),
              st.sampled_from([Width.BYTE, Width.HALF, Width.WORD]),
              st.just(0)),
    st.tuples(st.just("load"), st.integers(0, 7), st.integers(0, 15),
              st.sampled_from([Width.BYTE, Width.HALF, Width.WORD]),
              st.booleans()),
    st.tuples(st.just("divmod"), st.integers(0, 7), st.integers(0, 7),
              st.booleans(), st.just(0)),
)

program_strategy = st.tuples(
    st.lists(st.integers(0, 0xFFFFFFFF), min_size=8, max_size=8),  # initial pool
    st.lists(step_strategy, min_size=1, max_size=25),              # straight-line body
    st.integers(1, 6),                                             # loop trip count
    st.lists(step_strategy, min_size=0, max_size=8),               # loop body
)


def build_program(spec):
    inits, body, trips, loop_body = spec
    m = Module("fuzz")
    m.add_global(Global("scratch", size=128))

    b = FunctionBuilder(m, "main", [])
    scratch = b.ga("scratch")
    pool = [b.li(v) for v in inits]

    def emit(step):
        kind = step[0]
        if kind == "bin":
            _k, op, dst, lhs, imm = step
            rhs = imm if imm is not None else pool[(lhs + 1) % len(pool)]
            b.bin(op, pool[lhs], rhs, dst=pool[dst])
        elif kind == "shift":
            _k, op, dst, lhs, amount = step
            b.bin(op, pool[lhs], amount, dst=pool[dst])
        elif kind == "select":
            _k, cond, dst, lhs, rhs = step
            v = b.select(cond, pool[lhs], pool[rhs], pool[lhs], pool[rhs])
            b.mov(v, dst=pool[dst])
        elif kind == "store":
            _k, src, slot, width, _ = step
            b.store(pool[src], scratch, slot * 4, width)
        elif kind == "load":
            _k, dst, slot, width, signed = step
            if width is Width.WORD:
                signed = False
            b.load(scratch, slot * 4, width, signed=signed, dst=pool[dst])
        elif kind == "divmod":
            _k, dst, lhs, want_div, _ = step
            other = pool[(lhs + 3) % len(pool)]
            if want_div:
                b.udiv(pool[lhs], other, dst=pool[dst])
            else:
                b.urem(pool[lhs], other, dst=pool[dst])

    for step in body:
        emit(step)
    with b.for_range(0, trips):
        for step in loop_body:
            emit(step)
        # loop must make progress on the pool to be interesting
        b.add(pool[0], 1, dst=pool[0])
    acc = b.li(0)
    for v in pool:
        b.mul(acc, 31, dst=acc)
        b.eor(acc, v, dst=acc)
    b.ret(acc)
    m.merge(runtime_module(), allow_duplicates=True)
    return m


def fresh_modules(spec, count):
    return [build_program(spec) for _ in range(count)]


#: I-cache geometries as (block bytes, associativity, set count) — the
#: size is their product, so every drawn geometry is valid.
geometry_strategy = st.lists(
    st.tuples(st.sampled_from([16, 32, 64]),
              st.sampled_from([1, 2, 4, 8, 32]),
              st.sampled_from([1, 2, 8, 32, 64])),
    min_size=1, max_size=4)


EXECUTION_FIELDS = ("exit_code", "dynamic_instructions", "block_starts",
                    "block_ends", "seg_ids", "seg_counts", "mem_packed",
                    "console")


def assert_same_execution(a, b, label):
    for field in EXECUTION_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), "%s: %s differs" % (label, field)
        else:
            assert x == y, "%s: %s differs" % (label, field)
    assert bytes(a.memory) == bytes(b.memory), "%s: memory differs" % label


def check_fast_paths(image, result, geometries):
    run = ArmSimulator(image).run
    oracle = interpreted(run)
    assert_same_execution(compiled(run), oracle, "compile-every-entry")
    assert_same_execution(result, oracle, "default engine")

    specs = [(block * assoc * sets,
              TimingConfig(icache_block=block, icache_assoc=assoc))
             for block, assoc, sets in geometries]
    multi = simulate_timing_multi(result, specs)
    for (size, config), report in zip(specs, multi):
        assert report.__dict__ == simulate_timing(result, size, config).__dict__

    with tempfile.TemporaryDirectory() as root:
        store = TraceStore(root)
        store.save(image, result, kind="arm")
        clear_plane_cache()  # else load hands back ``result`` itself
        loaded = store.load(image)
        assert loaded is not None, "trace store: saved entry did not load"
        assert_same_execution(loaded, result, "trace store")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(program_strategy, geometry_strategy)
def test_arm_matches_interpreter(spec, geometries):
    m1, m2 = fresh_modules(spec, 2)
    golden = IRInterpreter(m1, max_steps=5_000_000).call("main")
    image = compile_arm(m2)
    result = ArmSimulator(image).run()
    assert result.exit_code == golden
    check_fast_paths(image, result, geometries)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(program_strategy)
def test_thumb_matches_interpreter(spec):
    m1, m2 = fresh_modules(spec, 2)
    golden = IRInterpreter(m1, max_steps=5_000_000).call("main")
    result = ThumbSimulator(compile_thumb(m2)).run()
    assert result.exit_code == golden


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(program_strategy)
def test_fits_matches_interpreter(spec):
    m1, m2 = fresh_modules(spec, 2)
    golden = IRInterpreter(m1, max_steps=5_000_000).call("main")
    flow, seen, _simulated = flow_counts(m2)  # internally asserts FITS == ARM
    assert flow.fits_result.exit_code == golden
    # every budget's projected profile equals simulating that budget
    assert_counts_match_oracle(flow, seen)
