"""Targeted translator tests: expansion mechanics, dictionaries, fix-points."""

import pytest

from repro.ir import Cond, FunctionBuilder, Global, Module, Width
from repro.workloads.runtime import runtime_module
from repro.compiler import compile_arm
from repro.compiler.link import link_arm
from repro.sim.functional import ArmSimulator
from repro.sim.functional.fits_sim import FitsSimulator
from repro.core import ArmProfile, synthesize, translate, SynthesisConfig
from repro.core import synthesizer
from repro.core.signatures import classify, UnsupportedInstruction
from repro.core.flow import fits_flow
from repro.core.translator import _Planner
from repro.isa.fits.codec import encode_fits
from repro.workloads import get_workload


def pipeline(build, budgets=((4, 5),)):
    m = Module("t")
    build(m)
    m.merge(runtime_module(), allow_duplicates=True)
    return fits_flow(m, budgets=budgets)


def test_big_immediates_use_ext_chains():
    def build(m):
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        # many distinct large immediates so the dictionary overflows and
        # some must go through ext chains
        for i in range(80):
            acc = b.eor(acc, b.li(0x10000 + i * 0x01010101))
        b.ret(acc)

    flow = pipeline(build)
    hist = flow.fits_image.expansion_histogram()
    assert any(n >= 2 for n in hist if hist[n] > 0)
    # correctness through the chains is already asserted by the flow
    expected = 0
    for i in range(80):
        expected ^= (0x10000 + i * 0x01010101) & 0xFFFFFFFF
    assert flow.fits_result.exit_code == expected


def test_dictionary_absorbs_hot_immediate():
    def build(m):
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        poly = 0xEDB88320
        with b.for_range(0, 50):
            b.eor(acc, poly, dst=acc)
            b.add(acc, 1, dst=acc)
        b.ret(acc)

    flow = pipeline(build)
    # the hot in-loop immediate must translate 1:1 (dict or wide field)
    assert flow.dynamic_mapping > 0.97


def test_branch_fixpoint_with_far_targets():
    def build(m):
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        with b.if_then(Cond.EQ, acc, 0):
            for i in range(700):  # force branch displacement > wide field
                b.add(acc, i & 3, dst=acc)
        b.ret(acc)

    flow = pipeline(build)
    assert flow.fits_result.exit_code == sum(i & 3 for i in range(700))


def test_ldm_stm_decomposition_and_ais():
    """Calls create push/pop pairs; synthesized ldm/stm lists keep them 1:1."""

    def build(m):
        f = FunctionBuilder(m, "leafy", ["x"])
        inner = f.call("__udiv", [f.arg("x"), f.li(3)])  # forces lr save
        f.ret(inner)
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        with b.for_range(0, 30) as i:
            b.add(acc, b.call("leafy", [i]), dst=acc)
        b.ret(acc)

    flow = pipeline(build)
    kinds = {spec.kind for spec in flow.isa.opcode_table.values()}
    assert "ldm" in kinds or "stm" in kinds  # hot lists got AIS opcodes
    expected = sum(i // 3 for i in range(30))
    assert flow.fits_result.exit_code == expected


def test_memsp_is_synthesized_under_spill_pressure():
    def build(m):
        b = FunctionBuilder(m, "main", [])
        vals = [b.li(3 * i + 1) for i in range(20)]  # forces spills
        acc = b.li(0)
        for v in vals:
            b.add(acc, v, dst=acc)
        for v in vals:
            b.eor(acc, v, dst=acc)
        b.ret(acc)

    flow = pipeline(build)
    kinds = {spec.kind for spec in flow.isa.opcode_table.values()}
    assert "memsp" in kinds


def test_unsupported_instruction_classification():
    from repro.isa.arm import DataProc, DPOp, Operand2Reg, ShiftType, Multiply

    shifted = DataProc(DPOp.ADD, 1, 2, Operand2Reg(3, ShiftType.LSL, 4))
    with pytest.raises(UnsupportedInstruction):
        classify(shifted)
    with pytest.raises(UnsupportedInstruction):
        classify(Multiply(rd=1, rm=2, rs=3, rn=4, accumulate=True))


def test_translate_is_deterministic():
    def build(m):
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        with b.for_range(0, 10) as i:
            b.add(acc, i, dst=acc)
        b.ret(acc)

    m = Module("t")
    build(m)
    m.merge(runtime_module(), allow_duplicates=True)
    image = link_arm(m, callee_saved=(4, 5))
    result = ArmSimulator(image).run()
    profile = ArmProfile.from_execution(image, result)
    synth = synthesize(profile)
    again = translate(image, synth.isa, uses=profile.uses)
    assert again.halfwords == synth.image.halfwords


def test_static_only_profile_also_works():
    """The paper mentions exploring static (no-execution) heuristics."""

    def build(m):
        b = FunctionBuilder(m, "main", [])
        acc = b.li(0)
        with b.for_range(0, 20) as i:
            b.add(acc, b.mul(i, 3), dst=acc)
        b.ret(acc)

    m = Module("t")
    build(m)
    m.merge(runtime_module(), allow_duplicates=True)
    image = link_arm(m, callee_saved=(4, 5))
    profile = ArmProfile.static_only(image)
    synth = synthesize(profile)
    fits_result = FitsSimulator(synth.image).run()
    arm_result = ArmSimulator(image).run()
    assert fits_result.exit_code == arm_result.exit_code


def test_fits_memory_trace_matches_arm_shape():
    def build(m):
        m.add_global(Global("buf", size=256))
        b = FunctionBuilder(m, "main", [])
        buf = b.ga("buf")
        with b.for_range(0, 64) as i:
            b.store(i, buf, b.lsl(i, 2))
        acc = b.li(0)
        with b.for_range(0, 64) as i:
            b.add(acc, b.load(buf, b.lsl(i, 2)), dst=acc)
        b.ret(acc)

    flow = pipeline(build)
    arm_loads = int((flow.arm_result.mem_is_store == 0).sum())
    fits_loads = int((flow.fits_result.mem_is_store == 0).sum())
    # FITS executes the same data accesses (plus/minus spill traffic)
    assert fits_loads >= arm_loads * 0.9
    assert fits_loads <= arm_loads * 1.6


@pytest.mark.parametrize("name", ["crc32", "sha", "jpeg"])
def test_memoized_translation_equals_fresh_planning(name, monkeypatch):
    """Every candidate the flow translates: each non-branch instruction's
    records equal a fresh plan of its use, and the lazily encoded
    halfwords equal encoding those records."""
    made = []

    def spy(arm_image, isa, uses=None):
        image = translate(arm_image, isa, uses)
        made.append((uses, image))
        return image

    monkeypatch.setattr(synthesizer, "translate", spy)
    fits_flow(get_workload(name).build_module("small"))
    assert made
    for uses, image in made:
        planner = _Planner(image.isa)
        for i, use in enumerate(uses):
            if use.sig[0] in ("b", "bl"):
                continue
            start = image.unit_start[i]
            got = image.records[start:start + image.unit_size[i]]
            want = planner.plan(use)
            assert [(r.opcode, r.spec, r.fields) for r in got] == \
                [(r.opcode, r.spec, r.fields) for r in want], (name, i, use)
        assert image.halfwords == [encode_fits(image.isa, r) for r in image.records]
