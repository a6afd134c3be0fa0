"""Workload abstraction: build an IR module, know its golden answer."""

from repro.ir import Module, verify_module
from repro.obs import core as obs
from repro.workloads.runtime import runtime_module


class WorkloadError(Exception):
    """Raised when a workload is asked for an unsupported configuration."""


class Workload:
    """One benchmark: a module builder plus its reference model.

    Args:
        name: benchmark name (MiBench-style, e.g. ``"crc32"``).
        category: MiBench category (``"telecomm"``, ``"security"``, ...).
        build: ``f(builder_module, scale)`` that populates a fresh module
            with the kernel's functions and globals (entry ``main``).
        reference: ``f(scale) -> int`` returning the expected exit
            checksum (32-bit).
        description: one line about what the kernel models.
    """

    SCALES = ("small", "full")

    def __init__(self, name, category, build, reference, description=""):
        self.name = name
        self.category = category
        self._build = build
        self._reference = reference
        self._checksums = {}  # scale → reference checksum
        self.description = description

    def build_module(self, scale="full"):
        """Fresh verified IR module (kernel + runtime library).

        The kernel's functions and globals are new; the runtime
        library's are the process's shared ones
        (:func:`~repro.workloads.runtime.runtime_module`).
        """
        if scale not in self.SCALES:
            raise WorkloadError("unknown scale %r (use one of %s)" % (scale, self.SCALES))
        module = Module(self.name)
        self._build(module, scale)
        module.merge(runtime_module(), allow_duplicates=True)
        verify_module(module, entry="main")
        obs.counter("workloads.builds")
        return module

    def reference(self, scale="full"):
        """Expected 32-bit exit checksum for the given scale.

        Computed once per scale, since every simulated ISA of the
        benchmark is checked against it.
        """
        if scale not in self.SCALES:
            raise WorkloadError("unknown scale %r (use one of %s)" % (scale, self.SCALES))
        if scale not in self._checksums:
            self._checksums[scale] = self._reference(scale) & 0xFFFFFFFF
        return self._checksums[scale]

    def __repr__(self):
        return "<Workload %s (%s)>" % (self.name, self.category)
