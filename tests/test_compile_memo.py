"""The compiler's per-function memos give the code a fresh compile gives.

Register allocation is memoized per IR function and pools (a spill-free
allocation also serving other pools, and every scan starting from the
function's memoized intervals), instruction selection per allocation
and back end, and every workload module shares one runtime library
module.  These tests hold each memo to a compile with the memos
cleared: every roster kernel under every register budget the flow uses,
hypothesis-drawn functions under pools filled in any order, and the
counters a memo hit publishes.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import obs
from repro.compiler import arm_backend, regalloc, thumb_backend
from repro.compiler.link import link_arm
from repro.compiler.pipeline import FITS_CALLEE_SAVED
from repro.compiler.regalloc import CALLEE_SAVED, allocate_registers
from repro.compiler.thumb_backend import T_CALLEE, T_CALLER, link_thumb
from repro.core.flow import DEFAULT_BUDGETS
from repro.workloads import CODE_SIZE_BENCHMARKS, get_workload
from tests.test_differential_fuzz import build_program, program_strategy

#: every ARM register budget the paper flow links a kernel under
ARM_BUDGETS = list(dict.fromkeys([None, *DEFAULT_BUDGETS, FITS_CALLEE_SAVED]))
LINKS = [("arm", budget) for budget in ARM_BUDGETS] + [("thumb", None)]


def clear_memos():
    regalloc._MEMO.clear()
    regalloc._INTERVALS.clear()
    arm_backend._SELECTED.clear()
    thumb_backend._SELECTED.clear()


def linked(module, isa, budget):
    """What a link emits: ARM words and origins, or Thumb halfwords."""
    if isa == "thumb":
        return link_thumb(module).halfwords
    image = link_arm(module, callee_saved=budget)
    return image.words, image.origin_of_index


@pytest.mark.parametrize("name", CODE_SIZE_BENCHMARKS)
def test_roster_links_match_fresh_compiles(name):
    module = get_workload(name).build_module("small")
    fresh = {}
    for isa, budget in LINKS:
        clear_memos()
        fresh[isa, budget] = linked(module, isa, budget)
    # warm: each link's memos filled by the links before it, in both
    # orders, so each budget is served after tighter and looser ones
    for order in (LINKS, LINKS[::-1]):
        clear_memos()
        for isa, budget in order:
            assert linked(module, isa, budget) == fresh[isa, budget], \
                (name, isa, budget)


def test_link_relocates_a_copy_of_the_shared_code():
    module = get_workload("crc32").build_module("small")
    codes = {name: arm_backend.compile_function_arm(func)
             for name, func in module.functions.items()}
    before = {name: [ins.encode() for ins in code.instrs]
              for name, code in codes.items()}
    assert any(code.relocs for code in codes.values())
    link_arm(module)
    for name, code in codes.items():
        assert arm_backend.compile_function_arm(module.functions[name]) is code
        assert [ins.encode() for ins in code.instrs] == before[name], name


def layout(alloc):
    """Everything a back end reads off an allocation."""
    return ({vid: (iv.reg, iv.slot) for vid, iv in alloc.intervals.items()},
            alloc.num_slots, alloc.used_callee_saved)


#: caller/callee pools: the ARM budgets, Thumb's, and pools tight
#: enough to spill, one of them not a prefix of r4-r11
POOLS = [(regalloc.CALLER_SAVED, CALLEE_SAVED), (T_CALLER, T_CALLEE),
         (regalloc.CALLER_SAVED, (4, 5, 6)), (regalloc.CALLER_SAVED, (4, 5, 6, 7)),
         (regalloc.CALLER_SAVED, (4,)), (regalloc.CALLER_SAVED, ()),
         (regalloc.CALLER_SAVED, (4, 6)), ((0, 1), (4, 5, 6))]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(program_strategy, st.permutations(POOLS))
def test_memoized_allocation_equals_fresh_for_any_fill_order(spec, order):
    module = build_program(spec)
    clear_memos()  # the runtime library's functions are shared
    for func in module.functions.values():
        fresh = {pools: layout(regalloc._linear_scan(func, *pools))
                 for pools in POOLS}
        # the scans started from the memoized intervals: hold them to
        # build_intervals
        intervals, _calls, hints, _by_vid = regalloc.build_intervals(func)
        assert regalloc._INTERVALS[func] == (
            [(iv.vid, iv.start, iv.end, iv.crosses_call, iv.weight)
             for iv in intervals], hints)
        for pools in order:
            alloc = allocate_registers(func, *pools)
            assert layout(alloc) == fresh[pools], (func.name, pools, order)


@pytest.fixture()
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def test_memo_hit_publishes_what_a_fresh_allocation_does(clean_obs):
    module = get_workload("sha").build_module("small")
    funcs = list(module.functions.values())

    def published():
        obs.reset()
        obs.enable(sink=None)
        for func in funcs:
            allocate_registers(func, callee_saved=(4, 5))
        snap = obs.snapshot()
        return snap["counters"], snap["histograms"]["regalloc.spills_per_function"]

    clear_memos()
    fresh_counters, fresh_spills = published()
    hit_counters, hit_spills = published()
    assert "regalloc.memo_hits" not in fresh_counters
    assert hit_counters.pop("regalloc.memo_hits") == len(funcs)
    assert hit_counters == fresh_counters
    assert hit_spills == fresh_spills
    assert fresh_counters["regalloc.spills"] > 0
