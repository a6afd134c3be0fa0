"""Reference implementations for tests only.

The engine interprets a superblock entry through the per-instruction
closures until the entry is hot, then runs it as generated code.  The
interpreter and the generated code must record identical traces, so the
engine with every entry interpreted is the oracle its compiled paths
are compared against, and the engine with every entry compiled on its
first visit is the most aggressive codegen path.

:func:`paper_configs` is the oracle for the harness's four paper
configurations: it rebuilds them without the DSE evaluation path.

:func:`budget_counts` is the oracle for the FITS flow's projected
register-budget profiles: it simulates the budget image instead.
"""

import sys

import pytest

from repro.compiler import compile_arm
from repro.core.flow import fits_flow
from repro.power import CachePowerModel, ChipPowerModel
from repro.sim.cache import CacheGeometry
from repro.sim.functional import engine as engine_mod
from repro.sim.functional.arm_sim import ArmSimulator
from repro.sim.functional.fits_sim import FitsSimulator
from repro.sim.pipeline import simulate_timing
from repro.workloads import get_workload


def interpreted(run):
    """``run()`` with every run interpreted through the closures."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "COMPILE_THRESHOLD", sys.maxsize)
        return run()


def compiled(run):
    """``run()`` with every entry compiled on its first visit, the
    codegen throttle off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine_mod, "COMPILE_THRESHOLD", 1)
        mp.setattr(engine_mod, "COMPILE_FREE_UNITS", sys.maxsize)
        return run()


def budget_counts(image):
    """Execution counts of one ARM budget image, by simulating it."""
    return ArmSimulator(image).run().exec_counts()


#: The paper's four configurations, spelled out here rather than read
#: from the harness: (label, isa, I-cache bytes).
PAPER_CONFIGS = (
    ("ARM16", "arm", 16 * 1024),
    ("ARM8", "arm", 8 * 1024),
    ("FITS16", "fits", 16 * 1024),
    ("FITS8", "fits", 8 * 1024),
)


def paper_configs(name, scale):
    """The four paper configs of one benchmark, rebuilt the long way.

    Fresh functional runs of the ARM image and the FITS flow's image,
    one per-access LRU ``simulate_timing`` per configuration, the cache
    power model at the paper geometry, and the chip model calibrated on
    the ARM16 report objects.  Returns label → config dict in the
    harness summary's field names.
    """
    wl = get_workload(name)
    arm_image = compile_arm(wl.build_module(scale))
    fits_image = fits_flow(wl.build_module(scale)).fits_image
    runs = {"arm": (arm_image, ArmSimulator(arm_image).run()),
            "fits": (fits_image, FitsSimulator(fits_image).run())}
    reports = {}
    for label, isa, size in PAPER_CONFIGS:
        image, result = runs[isa]
        timing = simulate_timing(result, size)
        power = CachePowerModel(CacheGeometry(size)).evaluate(timing)
        reports[label] = image, timing, power
    _image, base_timing, base_power = reports["ARM16"]
    chip = ChipPowerModel(base_power, base_timing)

    configs = {}
    for label, (image, timing, power) in reports.items():
        sw, internal, leak = power.breakdown()
        chip_w = chip.evaluate(power, timing).total_w
        configs[label] = {
            "code_size": image.code_size,
            "instructions": timing.instructions,
            "cycles": timing.cycles,
            "ipc": timing.ipc,
            "seconds": timing.seconds,
            "icache_requests": timing.icache_requests,
            "icache_line_accesses": timing.icache_line_accesses,
            "icache_misses": timing.icache_misses,
            "mpm": timing.icache_misses_per_million,
            "dcache_accesses": timing.dcache_accesses,
            "dcache_misses": timing.dcache_misses,
            "switching_w": power.switching_w,
            "internal_w": power.internal_w,
            "leakage_w": power.leakage_w,
            "total_w": power.total_w,
            "peak_w": power.peak_w,
            "switching_j": power.switching_j,
            "internal_j": power.internal_j,
            "leakage_j": power.leakage_j,
            "icache_energy_j": power.energy_j,
            "frac_switching": sw,
            "frac_internal": internal,
            "frac_leakage": leak,
            "chip_w": chip_w,
            "chip_j": chip_w * timing.seconds,
        }
    return configs
