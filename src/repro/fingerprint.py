"""Content fingerprints of the package's own source.

Every persistent cache invalidates by what produced its entries: a
fingerprint is a hash over the source text of a declared set of package
roots, and an entry written under another fingerprint is a miss.  No
version number has to be remembered and bumped.

Three sets are declared, each containing the one before it:

* :data:`SIMULATOR` — the functional simulators and the ISA models they
  decode with.  It keys the trace store's traces.
* :data:`FLOW` — the simulator set plus the front end: IR, compiler,
  FITS profiling, synthesis and translation, and the workloads.  It
  keys the trace store's unit records (one workload's built image for
  one ISA, with the FITS flow's kept budget): the flow's choice depends
  on simulated execution counts, so the simulators are part of it, and
  every class a record holds is defined under it.
* :data:`RESULT` — everything between a workload and a metrics dict:
  the flow set, timing/cache/power, the DSE evaluation and the harness
  runner.  It keys result stores (the serve cache and DSE sweeps) and
  harness summaries.

``tests/test_fingerprint.py`` walks the static import closure of each
set's entry modules and checks that the set covers it.
"""

import functools
import hashlib
import os

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))

#: Sources that decide what a functional simulation produces.
SIMULATOR = ("repro.sim.functional", "repro.isa")

#: Sources that decide what a workload's unit builds, for any ISA.
FLOW = SIMULATOR + (
    "repro.ir", "repro.compiler", "repro.core", "repro.workloads",
)

#: Sources that decide a design point's metrics.
RESULT = FLOW + (
    "repro.sim.pipeline", "repro.sim.cache", "repro.power",
    "repro.dse.evaluate", "repro.dse.space", "repro.harness.runner",
)


def _source_files(root):
    """Sorted ``.py`` paths of one dotted root: a package or a module."""
    path = os.path.join(_PACKAGE_DIR, *root.split(".")[1:])
    if not os.path.isdir(path):
        return [path + ".py"]
    files = []
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        files.extend(os.path.join(dirpath, name)
                     for name in sorted(filenames) if name.endswith(".py"))
    return files


@functools.lru_cache(maxsize=None)
def fingerprint(roots):
    """Hash of the source of ``roots`` (16 hex chars), once per process."""
    h = hashlib.sha256()
    for root in roots:
        for path in _source_files(root):
            h.update(os.path.relpath(path, _PACKAGE_DIR).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()[:16]
