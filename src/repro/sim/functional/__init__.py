"""Functional (architectural) simulators.

:class:`~repro.sim.functional.arm_sim.ArmSimulator` executes linked ARM
images to completion, capturing a run-compressed instruction trace and a
memory-access trace that the timing and power models consume.  The FITS
functional simulator lives in :mod:`repro.sim.functional.fits_sim` and
executes translated binaries through the programmable-decoder
configuration.
"""

from repro.sim.functional.trace import ExecutionResult
from repro.sim.functional.arm_sim import ArmSimulator, SimulationError
from repro.sim.functional.store import (
    TraceStore,
    cached_run,
    code_version_hash,
    get_store,
    image_fingerprint,
)

__all__ = [
    "ExecutionResult",
    "ArmSimulator",
    "SimulationError",
    "TraceStore",
    "cached_run",
    "code_version_hash",
    "get_store",
    "image_fingerprint",
]
