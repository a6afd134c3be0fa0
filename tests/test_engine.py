"""Block-compiled engine property tests.

The contract under test (DESIGN.md §8): a default engine run produces an
:class:`ExecutionResult` **bit-identical** to the interpret-only oracle
(the same engine with every run interpreted through the per-instruction
closures, see ``tests/oracles.py``) — same exit code, run boundaries,
memory-access trace, console bytes, final memory, and dynamic
instruction count — on every (workload, ISA, scale) combination,
including branch-heavy adversarial control flow, forced closure
fallback, and instruction-budget exhaustion.  Bad control flow raises
:class:`SimulationError` on both paths.
"""

from array import array

import numpy as np
import pytest

from repro import obs
from repro.compiler import compile_arm, compile_thumb
from repro.compiler.link import CODE_BASE, Image
from repro.core.flow import fits_flow
from repro.ir import Cond, FunctionBuilder, Global, Module
from repro.isa.arm import DataProc, DPOp, Operand2Imm, Operand2Reg, ShiftType, Swi
from repro.sim.functional import ArmSimulator, SimulationError
from repro.sim.functional import arm_sim, fits_sim, semantics, thumb_sim
from repro.sim.functional import engine as engine_mod
from repro.sim.functional.fits_sim import FitsSimulator
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.functional.trace import TraceBuilder
from repro.workloads import get_workload
from repro.workloads.runtime import runtime_module
from tests.oracles import compiled, interpreted

SAMPLE = ["crc32", "sha", "qsort", "gsm", "rijndael"]

#: full-scale combos cheap enough for tier-1 (sub-second per run)
FULL_WHERE_CHEAP = [("crc32", "arm"), ("crc32", "thumb"), ("sha", "arm")]

FIELDS = ("exit_code", "run_starts", "run_ends", "mem_addrs",
          "mem_is_store", "console", "dynamic_instructions")


def assert_identical(a, b, label):
    for field in FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        if isinstance(x, np.ndarray):
            assert len(x) == len(y) and np.array_equal(x, y), \
                "%s: %s differs" % (label, field)
        else:
            assert x == y, "%s: %s differs" % (label, field)
    assert bytes(a.memory) == bytes(b.memory), "%s: memory differs" % label


def _images(name, scale):
    wl = get_workload(name)
    return {
        "arm": compile_arm(wl.build_module(scale)),
        "thumb": compile_thumb(wl.build_module(scale)),
        "fits": fits_flow(wl.build_module(scale)).fits_image,
    }


def _run(image, isa, **kwargs):
    sim = {"arm": ArmSimulator, "thumb": ThumbSimulator,
           "fits": FitsSimulator}[isa]
    return sim(image, **kwargs).run()


def _run_both(image, isa, **kwargs):
    """``(default run, interpret-only oracle run)``."""
    return (_run(image, isa, **kwargs),
            interpreted(lambda: _run(image, isa, **kwargs)))


@pytest.fixture(scope="module", params=SAMPLE)
def small_images(request):
    return request.param, _images(request.param, "small")


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_engines_bit_identical_small(small_images, isa):
    name, images = small_images
    block, oracle = _run_both(images[isa], isa)
    assert_identical(block, oracle, "%s/%s/small" % (name, isa))


@pytest.mark.parametrize("name,isa", FULL_WHERE_CHEAP)
def test_engines_bit_identical_full(name, isa):
    wl = get_workload(name)
    compiler = compile_arm if isa == "arm" else compile_thumb
    image = compiler(wl.build_module("full"))
    block, oracle = _run_both(image, isa)
    assert block.exit_code == wl.reference("full")
    assert_identical(block, oracle, "%s/%s/full" % (name, isa))


# ----------------------------------------------------------------------
# branch-heavy adversarial workload: dense conditional control flow with
# data-dependent branch directions, nested loops, and early exits —
# worst case for superblock discovery (guarded exits taken often, many
# short overlapping blocks).


def branchy_module():
    m = Module("branchy")
    m.add_global(Global("scratch", size=256))
    b = FunctionBuilder(m, "main", [])
    scratch = b.ga("scratch")
    acc = b.li(0x12345678)
    x = b.li(0)
    with b.for_range(0, 97) as i:
        v = b.eor(acc, i)
        with b.if_else(Cond.NE, b.and_(v, 1), 0) as otherwise:
            b.add(acc, 0x1003, dst=acc)
            with b.if_then(Cond.LTU, b.and_(v, 7), 3):
                b.eor(acc, 0x5A5A, dst=acc)
            with otherwise:
                b.sub(acc, 0x421, dst=acc)
                with b.if_then(Cond.EQ, b.and_(v, 3), 0):
                    b.mul(acc, 17, dst=acc)
        b.store(acc, scratch, 0)
        b.load(scratch, 0, dst=x)
        b.and_(x, 255, dst=x)
        with b.loop_while(Cond.NE, x, 0):
            b.lsr(x, 1, dst=x)
            b.add(acc, 1, dst=acc)
        b.store(acc, scratch, b.and_(i, 31))
    b.ret(acc)
    m.merge(runtime_module(), allow_duplicates=True)
    return m


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_engines_bit_identical_branch_heavy(isa):
    images = {
        "arm": compile_arm(branchy_module()),
        "thumb": compile_thumb(branchy_module()),
        "fits": fits_flow(branchy_module()).fits_image,
    }
    block, oracle = _run_both(images[isa], isa)
    assert block.dynamic_instructions > 1000  # actually exercised loops
    assert_identical(block, oracle, "branchy/%s" % isa)


# ----------------------------------------------------------------------
# instruction-budget enforcement: compiled and interpreted runs check at
# run boundaries with identical accounting, so raise/complete must agree
# at every budget — including exactly at and just below the true dynamic
# count.


def _budget_outcome(image, isa, limit):
    try:
        res = _run(image, isa, max_instructions=limit)
        return ("done", res.dynamic_instructions)
    except SimulationError as exc:
        assert "budget" in str(exc)
        return ("raised", str(exc))


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_budget_raises_identically(isa):
    images = _images("crc32", "small")
    dyn = _run(images[isa], isa).dynamic_instructions
    for limit in (1, 7, 100, 1000, dyn - 1, dyn, dyn + 1):
        block = _budget_outcome(images[isa], isa, limit)
        oracle = interpreted(lambda: _budget_outcome(images[isa], isa, limit))
        assert block == oracle, "limit=%d diverged: %r vs %r" % (
            limit, block, oracle)
    assert _budget_outcome(images[isa], isa, dyn)[0] == "done"
    assert _budget_outcome(images[isa], isa, dyn - 1)[0] == "raised"


# ----------------------------------------------------------------------
# forced fallback: with every codegen template withheld the block engine
# must run entirely through the operations' closures and still match.

BUILD = {"arm": arm_sim.build_program, "thumb": thumb_sim.build_program,
         "fits": fits_sim.build_program}


class ClosureOnly:
    """An operation with its template withheld: compiled blocks end at
    its closure."""

    def __init__(self, op):
        self.op = op

    def closure(self, p, idx, nxt):
        return self.op.closure(p, idx, nxt)

    def template(self, idx):
        return None


def _closure_only_run(image, isa):
    program = BUILD[isa](image)
    program.ops = [ClosureOnly(op) for op in program.ops]
    return engine_mod.execute(program, 400_000_000)


@pytest.fixture(scope="module")
def crc32_small():
    return _images("crc32", "small")


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_forced_fallback_bit_identical(crc32_small, isa):
    image = crc32_small[isa]
    oracle = interpreted(lambda: _run(image, isa))
    block = _closure_only_run(image, isa)
    assert_identical(block, oracle, "crc32/%s/forced-fallback" % isa)


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_fallback_counter_reported(crc32_small, isa):
    obs.enable(sink=None)
    try:
        marker = obs.mark()
        _closure_only_run(crc32_small[isa], isa)
        counters = obs.since(marker)["counters"]
        assert counters.get("sim.engine.fallback_instrs", 0) > 0
        assert counters.get("sim.engine.blocks_compiled", 0) > 0
        assert counters.get("sim.engine.runs.block", 0) == 1
    finally:
        obs.disable()


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_block_engine_counters(crc32_small, isa):
    obs.enable(sink=None)
    try:
        marker = obs.mark()
        _run(crc32_small[isa], isa)
        counters = obs.since(marker)["counters"]
        assert counters.get("sim.engine.blocks_compiled", 0) > 0
        assert counters.get("sim.engine.units_compiled", 0) > 0
        # full template coverage: no fallback closures on this workload
        assert counters.get("sim.engine.fallback_instrs", 0) == 0
        gauges = obs.since(marker)["gauges"]
        assert any(k.startswith("sim.engine.avg_block_len") for k in gauges)
    finally:
        obs.disable()


# ----------------------------------------------------------------------
# observability never feeds the simulation: a run with obs on and opcode
# sampling (the heaviest obs path in the simulators) matches one with
# obs off in every ExecutionResult field.  repro.obs is left out of the
# source fingerprints on the strength of this test.


def assert_results_equal(a, b, label):
    assert a.exit_code == b.exit_code, label
    assert a.dynamic_instructions == b.dynamic_instructions, label
    for field in ("block_starts", "block_ends", "seg_ids", "seg_counts",
                  "mem_packed"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), \
            "%s: %s differs" % (label, field)
    assert a.console == b.console, label
    assert bytes(a.memory) == bytes(b.memory), "%s: memory differs" % label


@pytest.mark.parametrize("isa", ["arm", "thumb", "fits"])
def test_obs_on_off_bit_identical(crc32_small, isa):
    image = crc32_small[isa]
    assert not obs.enabled
    off = _run(image, isa)
    obs.enable(sink=None, opcode_sampling=True)
    try:
        marker = obs.mark()
        on = _run(image, isa)
        assert obs.since(marker)["counters"]["sim.%s.executions" % isa] == 1
    finally:
        obs.disable()
        obs.reset()
    assert_results_equal(off, on, "crc32/%s obs on vs off" % isa)


# ----------------------------------------------------------------------
# bad control flow raises SimulationError, naming the ISA, the index and
# its function, on every ISA and on both engine paths: a computed jump
# to an address outside the code, and a branch to an index control must
# never reach (a Thumb BL's second halfword, a halfword inside a FITS
# atom).  Operation 0 of a decoded crc32 program is replaced by the bad
# transfer.


def _bad_target(program):
    return next(i for i, op in enumerate(program.ops)
                if isinstance(op, semantics.Invalid))


BAD_FLOW = [("arm", "jump"), ("thumb", "jump"), ("fits", "jump"),
            ("thumb", "branch"), ("fits", "branch")]


@pytest.mark.parametrize("mode", ["interpreted", "compiled"])
@pytest.mark.parametrize("isa,case", BAD_FLOW)
def test_bad_control_flow_raises(crc32_small, isa, case, mode):
    program = BUILD[isa](crc32_small[isa])
    if case == "jump":
        program.ops[0] = semantics.Jump(semantics.Imm(0x40))
        bad = 0
    else:
        bad = _bad_target(program)
        program.ops[0] = semantics.Branch(bad)
    oracle = {"interpreted": interpreted, "compiled": compiled}[mode]
    with pytest.raises(SimulationError) as info:
        oracle(lambda: engine_mod.execute(program, 200_000_000))
    message = str(info.value)
    assert message.startswith("bad control flow at %s instruction index %d ("
                              % (isa, bad)), message
    if case == "jump":
        assert "0x40 is not a" in message and "code address" in message


# ----------------------------------------------------------------------
# decoding is eager: an image the simulator cannot run fails when its
# program is built, before any instruction executes.


def _arm_image(instrs):
    return Image(name="unsupported", words=[i.encode() for i in instrs],
                 instrs=instrs, symbols={"_start": CODE_BASE},
                 func_of_index=["_start"] * len(instrs), global_addr={},
                 data_bytes=b"", data_base=CODE_BASE + 4 * len(instrs),
                 entry="_start")


@pytest.mark.parametrize("ins,error", [
    (DataProc(DPOp.MOV, 0, 0, Operand2Reg(1, ShiftType.ROR, 0)),
     NotImplementedError),                                   # RRX
    (DataProc(DPOp.ADD, 0, 0, Operand2Imm(0, 1), s=True),
     NotImplementedError),                                   # S-bit ADD
    (DataProc(DPOp.ADD, 15, 0, Operand2Imm(0, 1)),
     NotImplementedError),                                   # ADD to pc
    (Swi(7), SimulationError),                               # unknown SWI
], ids=["rrx", "s-bit", "add-pc", "swi"])
def test_unsupported_arm_instruction_fails_at_build(ins, error):
    image = _arm_image([ins, Swi(0)])
    with pytest.raises(error):
        arm_sim.build_program(image)


# ----------------------------------------------------------------------
# TraceBuilder storage: compact array buffers, stable ExecutionResult
# dtypes (the trace-store .npz layout depends on them)


def test_trace_builder_array_backed():
    tb = TraceBuilder()
    assert isinstance(tb.bounds, array) and tb.bounds.typecode == "q"
    assert isinstance(tb.mem, array) and tb.mem.typecode == "q"
    assert isinstance(tb.console, bytearray)
    # the handler-side binding writes packed addr*2|is_store records
    tb.add_mem(0x1000 << 1)
    tb.add_mem((0x2004 << 1) | 1)
    assert list(tb.mem) == [0x1000 << 1, (0x2004 << 1) | 1]


def test_execution_result_dtypes_stable():
    image = compile_arm(get_workload("crc32").build_module("small"))
    res = ArmSimulator(image).run()
    assert res.run_starts.dtype == np.int64
    assert res.run_ends.dtype == np.int64
    assert res.mem_addrs.dtype == np.uint32
    assert res.mem_is_store.dtype == np.uint8
