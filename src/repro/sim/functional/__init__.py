"""Functional (architectural) simulators.

:class:`~repro.sim.functional.arm_sim.ArmSimulator` executes linked ARM
images to completion, capturing a run-compressed instruction trace and a
memory-access trace that the timing and power models consume.  The
Thumb and FITS simulators (:mod:`~repro.sim.functional.thumb_sim`,
:mod:`~repro.sim.functional.fits_sim`, the latter through the
programmable-decoder configuration) decode onto the same operation set,
:mod:`~repro.sim.functional.semantics`, and run on the same engine,
:mod:`~repro.sim.functional.engine`.
"""

from repro.sim.functional.trace import ExecutionResult
from repro.sim.functional.arm_sim import ArmSimulator, SimulationError
from repro.sim.functional.store import (
    TraceStore,
    cached_run,
    get_store,
    image_fingerprint,
)

__all__ = [
    "ExecutionResult",
    "ArmSimulator",
    "SimulationError",
    "TraceStore",
    "cached_run",
    "get_store",
    "image_fingerprint",
]
