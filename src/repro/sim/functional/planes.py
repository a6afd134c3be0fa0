"""A stand-in for the removed shared-memory trace-plane bus.

Nothing in the program calls it.  Sweep workers load their unit's
trace from the trace store like any other process
(:meth:`repro.sim.functional.store.TraceStore.load`).  The module
exists only because the repository benchmark's layer timer
(``perfbench/layers.py``) binds ``PlaneBus.export_for`` by name; it
goes when that binding does.
"""


class PlaneBus:
    """Exports nothing."""

    def export_for(self, store, benchmark, scale):
        return []

    def close(self):
        pass
