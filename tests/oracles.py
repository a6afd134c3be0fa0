"""Reference execution modes of the block engine, for tests only.

The engine interprets a superblock entry through the per-instruction
closures until the entry is hot, then runs it as generated code.  The
interpreter and the generated code must record identical traces, so the
engine with every entry interpreted is the oracle its compiled paths
are compared against, and the engine with every entry compiled on its
first visit is the most aggressive codegen path.
"""

import sys

import pytest

from repro.sim.functional import engine as engine_mod


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
