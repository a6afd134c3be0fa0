"""Each source fingerprint covers the code behind the cache it keys.

A cache keyed by :func:`repro.fingerprint.fingerprint` serves stale
numbers when an edited module is missing from its set.  These tests walk
the static ``import`` / ``from`` closure inside ``repro`` from each set's
entry modules and check that the set hashes every module reached.

A module is reached when an import statement names it, or takes a name
from it (``from repro.compiler import compile_arm`` reaches the
``repro.compiler`` package; ``from repro.sim.functional import engine``
reaches the ``engine`` submodule).  Imports inside functions count.
"""

import ast
import os
import shutil

import pytest

import repro
from repro import fingerprint as fp
from repro.fingerprint import FLOW, RESULT, SIMULATOR, fingerprint
from repro.sim.functional.store import UNIT_MODULES

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: Modules (and their submodules) the walk does not enter, and why a
#: fingerprint may leave them out.
EXCLUDED = {
    "repro.obs": "instrumentation only: spans and counters never feed a "
                 "metric, and simulation is bit-identical with it on and "
                 "off (test_engine::test_obs_on_off_bit_identical)",
    "repro.fingerprint": "computes the fingerprints; a change to what it "
                         "hashes changes them all",
    "repro.dse.store": "stores result blobs and checks their fingerprint; "
                       "computes no metric",
    "repro.dse.scheduler": "dispatch: decides where a point runs, never "
                           "what it computes (test_pool holds the pool "
                           "bit-identical to serial runs)",
}

#: Modules that import others by name at run time, which no static walk
#: can follow, and what the walk reaches from each instead: every
#: submodule of a package (``<package>.*``), or the named modules.
DYNAMIC = {
    "repro.workloads.registry": ("repro.workloads.mibench.*",),
    # a unit record's unpickler imports the modules its classes live in
    "repro.sim.functional.store": tuple(sorted(UNIT_MODULES)),
}

SETS = {
    "simulator": (SIMULATOR, ("repro.sim.functional.arm_sim",
                              "repro.sim.functional.thumb_sim",
                              "repro.sim.functional.fits_sim")),
    "flow": (FLOW, ("repro.core.flow",)),
    "result": (RESULT, ("repro.dse.evaluate", "repro.harness.runner")),
}


def _path(module):
    """Source file of a ``repro`` module, or None when it is not one."""
    base = os.path.join(SRC, *module.split(".")[1:])
    for path in (os.path.join(base, "__init__.py"), base + ".py"):
        if os.path.isfile(path):
            return path
    return None


def _modules_under(package):
    base = os.path.dirname(_path(package))
    return [package + "." + name[:-3] for name in sorted(os.listdir(base))
            if name.endswith(".py") and name != "__init__.py"]


def _imports(module):
    """The ``repro`` modules one module's import statements reach."""
    with open(_path(module)) as fh:
        tree = ast.parse(fh.read())
    found = []
    for name in DYNAMIC.get(module, ()):
        found.extend(_modules_under(name[:-2]) if name.endswith(".*")
                     else [name])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in %s" % module
            for alias in node.names:
                sub = "%s.%s" % (node.module, alias.name)
                found.append(sub if _path(sub) else node.module)
        elif (isinstance(node, ast.Attribute) and node.attr == "import_module"
              and module not in DYNAMIC):
            pytest.fail("%s imports by name; declare it in DYNAMIC" % module)
    return [m for m in found if m.split(".")[0] == "repro" and _path(m)]


def _within(module, roots):
    return any(module == root or module.startswith(root + ".")
               for root in roots)


def _closure(entries):
    seen, todo = set(), list(entries)
    while todo:
        module = todo.pop()
        if module in seen or _within(module, EXCLUDED):
            continue
        seen.add(module)
        todo.extend(_imports(module))
    return seen


@pytest.mark.parametrize("name", sorted(SETS))
def test_fingerprint_covers_the_import_closure(name):
    roots, entries = SETS[name]
    reached = _closure(entries)
    assert set(entries) <= reached
    missing = sorted(m for m in reached if not _within(m, roots))
    assert missing == [], "%s fingerprint misses %s" % (name, missing)


def test_unit_record_classes_lie_under_the_flow_fingerprint():
    """A unit record holds objects of the classes in ``UNIT_MODULES`` and
    is keyed by ``fingerprint(FLOW)``: a module outside ``FLOW`` could
    change those classes without moving the key, and stale records
    would load."""
    assert all(_path(module) for module in UNIT_MODULES)
    outside = sorted(m for m in UNIT_MODULES if not _within(m, FLOW))
    assert outside == [], "unit records name classes outside FLOW: %s" % outside


def test_editing_a_front_end_source_changes_the_result_fingerprint(
        tmp_path, monkeypatch):
    """A scratch copy of the package, one constant edited in the FITS
    flow: the result fingerprint moves, the simulator one does not."""
    copy = str(tmp_path / "repro")
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    flow = os.path.join(copy, "core", "flow.py")
    with open(flow) as fh:
        text = fh.read()
    edited = text.replace("DEFAULT_BUDGETS = ((4, 5),",
                          "DEFAULT_BUDGETS = ((4,),")
    assert edited != text
    before = fingerprint(RESULT), fingerprint(SIMULATOR)
    monkeypatch.setattr(fp, "_PACKAGE_DIR", copy)
    fingerprint.cache_clear()
    try:
        assert (fingerprint(RESULT), fingerprint(SIMULATOR)) == before
        with open(flow, "w") as fh:
            fh.write(edited)
        fingerprint.cache_clear()
        assert fingerprint(RESULT) != before[0]
        assert fingerprint(SIMULATOR) == before[1]
    finally:
        monkeypatch.undo()
        fingerprint.cache_clear()
    assert (fingerprint(RESULT), fingerprint(SIMULATOR)) == before


@pytest.mark.parametrize("relpath, moved", [
    ("core/flow.py", ("flow", "result")),
    ("core/translator.py", ("flow", "result")),
    ("sim/functional/semantics.py", ("simulator", "flow", "result")),
    ("sim/pipeline/timing.py", ("result",)),
])
def test_an_edit_moves_exactly_the_fingerprints_covering_it(
        relpath, moved, tmp_path, monkeypatch):
    """Stored unit records are keyed by the flow fingerprint: an edit
    to the front end or the simulators invalidates them, an edit to the
    timing model does not."""
    copy = str(tmp_path / "repro")
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    sets = {"simulator": SIMULATOR, "flow": FLOW, "result": RESULT}
    monkeypatch.setattr(fp, "_PACKAGE_DIR", copy)
    fingerprint.cache_clear()
    try:
        before = {name: fingerprint(roots) for name, roots in sets.items()}
        with open(os.path.join(copy, relpath), "a") as fh:
            fh.write("\n# edited\n")
        fingerprint.cache_clear()
        after = {name: fingerprint(roots) for name, roots in sets.items()}
    finally:
        monkeypatch.undo()
        fingerprint.cache_clear()
    assert sorted(n for n in sets if after[n] != before[n]) == sorted(moved)
