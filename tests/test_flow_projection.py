"""The FITS flow simulates one ARM compile per kernel.

Every register budget's execution counts are read off the baseline
(unrestricted) run through instruction origins, the IR block each
instruction was lowered from.  These tests hold every budget's counts
equal to simulating that budget image (``tests.oracles.budget_counts``):
the projection itself for every budget of every roster kernel, and the
counts ``fits_flow`` profiles for a constructed fallback case.  The
differential fuzz applies the flow-level check to generated programs.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.compiler.link import link_arm
from repro.core.flow import DEFAULT_BUDGETS, fits_flow, origin_counts, project_counts
from repro.core.profiler import ArmProfile
from repro.ir import FunctionBuilder, IRInterpreter, Module
from repro.workloads import get_workload
from repro.workloads.registry import CODE_SIZE_BENCHMARKS
from tests.oracles import budget_counts


def flow_counts(module, **kwargs):
    """Run the flow; returns it, the ``(image, counts)`` of every budget
    it profiled, and how many budget images it had to simulate."""
    seen = []
    profile = ArmProfile.from_execution.__func__

    def spy(cls, image, counts):
        seen.append((image, counts))
        return profile(cls, image, counts)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ArmProfile, "from_execution", classmethod(spy))
        obs.enable()
        obs.reset()
        try:
            flow = fits_flow(module, **kwargs)
            simulated = obs.snapshot()["counters"].get("flow.budget_simulations", 0)
        finally:
            obs.disable()
            obs.reset()
    return flow, seen, simulated


def assert_counts_match_oracle(flow, seen):
    for image, counts in seen:
        if counts is flow.arm_result.exec_counts():
            continue  # the unrestricted budget is the baseline run itself
        assert np.array_equal(counts, budget_counts(image)), image.name


@pytest.mark.parametrize("name", CODE_SIZE_BENCHMARKS)
def test_roster_budget_counts_match_simulation(name):
    """What ``fits_flow`` does for each budget, minus the synthesis:
    every roster budget image projects, and to its simulated counts."""
    module = get_workload(name).build_module("small")
    baseline = link_arm(module)
    by_origin = origin_counts(baseline, budget_counts(baseline))
    for budget in DEFAULT_BUDGETS:
        if budget is None:
            continue  # the baseline run itself
        image = link_arm(module, callee_saved=budget)
        counts = project_counts(image, by_origin)
        assert counts is not None, budget
        assert np.array_equal(counts, budget_counts(image)), budget


def move_only_block_module():
    """Seven values are live; the first dies in a block that holds only
    a move of it and a fall-through branch.  The baseline coalesces the
    move away, so that block lowers to nothing; under the (4, 5) budget
    the value was spilled, so the block reloads it."""
    m = Module("moveonly")
    b = FunctionBuilder(m, "main", [])
    values = [b.li(3 * k + 1) for k in range(7)]
    acc = values[1]
    for v in values[2:]:
        acc = b.add(acc, v)
    mid = b.new_block("mid")
    b.br(mid)
    b.at(mid)
    moved = b.mov(values[0])
    tail = b.new_block("tail")
    b.br(tail)
    b.at(tail)
    b.ret(b.add(acc, moved))
    return m


def test_origin_missing_at_baseline_falls_back_to_simulation():
    module = move_only_block_module()
    baseline = link_arm(module)
    tight = link_arm(module, callee_saved=(4, 5))
    assert ("main", "mid0") in tight.origin_of_index
    assert ("main", "mid0") not in baseline.origin_of_index
    flow, seen, simulated = flow_counts(module)
    assert simulated == 1
    assert_counts_match_oracle(flow, seen)
    golden = IRInterpreter(move_only_block_module()).call("main")
    assert flow.fits_result.exit_code == flow.arm_result.exit_code == golden


def test_frameless_prologue_takes_its_epilogue_count():
    """A function with no prologue instruction at the baseline runs its
    prologue once per call, as often as its epilogue.  No roster compile
    needs this today (a frameless leaf stays frameless under every
    budget); the rule keeps the projection total if one gains a frame."""
    baseline = SimpleNamespace(origin_of_index=[
        ("_start", "prologue"), ("_start", "prologue"),
        ("leaf", "bb0"), ("leaf", "epilogue")])
    counts = origin_counts(baseline, np.array([1, 1, 9, 3]))
    framed = SimpleNamespace(origin_of_index=[
        ("_start", "prologue"), ("_start", "prologue"), ("leaf", "prologue"),
        ("leaf", "bb0"), ("leaf", "epilogue"), ("leaf", "epilogue")])
    assert project_counts(framed, counts).tolist() == [1, 1, 3, 9, 3, 3]
