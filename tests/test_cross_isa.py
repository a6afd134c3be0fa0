"""Cross-ISA integration: all three executions of every workload agree
beyond the exit code — final data memory, trace accounting, footprints."""

import numpy as np
import pytest

from repro.compiler import compile_arm, compile_thumb
from repro.sim.functional import ArmSimulator
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.core.flow import fits_flow
from repro.workloads import get_workload

SAMPLE = ["crc32", "sha", "qsort", "gsm", "rijndael"]


@pytest.fixture(scope="module", params=SAMPLE)
def triple(request):
    name = request.param
    wl = get_workload(name)
    arm = compile_arm(wl.build_module("small"))
    arm_res = ArmSimulator(arm).run()
    thumb = compile_thumb(wl.build_module("small"))
    thumb_res = ThumbSimulator(thumb).run()
    flow = fits_flow(wl.build_module("small"))
    return wl, arm, arm_res, thumb, thumb_res, flow


def test_exit_codes_agree(triple):
    wl, _arm, arm_res, _thumb, thumb_res, flow = triple
    expected = wl.reference("small")
    assert arm_res.exit_code == expected
    assert thumb_res.exit_code == expected
    assert flow.fits_result.exit_code == expected


def test_final_data_memory_agrees(triple):
    """After the baseline ARM run and the FITS run every global must be
    byte-identical.  The FITS image keeps its budget compile's data
    layout, which need not be the baseline's, so each global is read
    through its own image's address."""
    wl, _arm, _arm_res, _thumb, _thumb_res, flow = triple
    sizes = {g.name: g.size for g in wl.build_module("small").globals.values()}
    arm_addr = flow.arm_result.image.global_addr
    assert set(arm_addr) == set(flow.fits_image.global_addr)
    for name, addr in flow.fits_image.global_addr.items():
        size = sizes[name]
        a = flow.arm_result.read_bytes(arm_addr[name], size)
        f = flow.fits_result.read_bytes(addr, size)
        assert a == f, "global %s differs between ARM and FITS" % name


def test_dynamic_instruction_ordering(triple):
    """Thumb executes more instructions than ARM; FITS lands near ARM."""
    _wl, _arm, arm_res, _thumb, thumb_res, flow = triple
    arm_n = arm_res.dynamic_instructions
    assert thumb_res.dynamic_instructions > arm_n * 0.95
    fits_n = flow.fits_result.dynamic_instructions
    assert arm_n * 0.95 < fits_n < arm_n * 1.6


def test_run_traces_are_well_formed(triple):
    _wl, _arm, arm_res, _thumb, thumb_res, flow = triple
    for res in (arm_res, thumb_res, flow.fits_result):
        assert (res.run_ends >= res.run_starts).all()
        # runs are gapless in time: each starts where control went
        assert res.exec_counts().sum() == res.dynamic_instructions
        assert res.run_starts[0] == 0  # execution starts at _start


def test_store_load_balance(triple):
    _wl, _arm, arm_res, _thumb, _thumb_res, flow = triple
    for res in (arm_res, flow.fits_result):
        assert len(res.mem_addrs) == len(res.mem_is_store)
        stores = int(res.mem_is_store.sum())
        assert 0 < stores < len(res.mem_addrs)


def test_code_footprint_ordering(triple):
    _wl, arm, _arm_res, thumb, _thumb_res, flow = triple
    assert flow.fits_image.code_size < thumb.code_size < arm.code_size
