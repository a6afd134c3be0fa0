"""A stored unit record loads its image instead of building it.

``dse.evaluate._functional`` saves the image of every (workload, scale,
ISA) unit it builds, with the FITS flow's extras (kept budget, dynamic
mapping), in the trace store's ``units/`` directory, keyed by
``fingerprint(FLOW)``; a later unit loads it and compiles nothing.
These tests hold every roster unit's loaded image to a fresh build,
refuse records that name anything but the classes an image is made of,
rebuild torn and mismatched records, and hold a warm sweep to the cold
one's metrics.  They also cover the trace store attributing a hit to
the benchmark of its run context.
"""

import os
import pickle
import sys
from collections import OrderedDict

import pytest

from repro.compiler import compile_arm, compile_thumb
from repro.compiler.link import link_arm
from repro.core import flow as flow_mod
from repro.core.profiler import ArmProfile
from repro.core.synthesizer import synthesize
from repro.core.translator import translate
from repro.dse import evaluate
from repro.dse.scheduler import sweep
from repro.dse.space import preset
from repro.dse.store import ResultStore
from repro.fingerprint import FLOW, fingerprint
from repro.sim.functional import store as trace_store
from repro.sim.functional.store import image_fingerprint
from repro.sim.pipeline.timing import metadata_for
from repro.workloads import Workload, get_workload
from repro.workloads.registry import CODE_SIZE_BENCHMARKS


@pytest.fixture()
def cold_memo(monkeypatch):
    """An empty in-process functional memo for the test."""
    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    monkeypatch.setattr(evaluate, "_FUNC_GROUPS", OrderedDict())


def _forget(name):
    """Drop the memo entries of ``name`` (the next call rebuilds them)."""
    for key in [k for k in evaluate._FUNC_CACHE if k[0] == name]:
        del evaluate._FUNC_CACHE[key]


def _record_path(name, isa, scale="small"):
    store = trace_store.get_store()
    return os.path.join(store.root, trace_store.UNITS, "%s-%s-%s-%s.pkl"
                        % (name, scale, isa, fingerprint(FLOW)))


def _no_build(monkeypatch):
    """Make building the IR, compiling, linking, translating or
    synthesizing fail the test, wherever the entry point is bound."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("a stored unit was built")

    monkeypatch.setattr(Workload, "build_module", forbidden)
    originals = {id(f) for f in (compile_arm, compile_thumb, link_arm,
                                 translate, synthesize)}
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    monkeypatch.setattr(module, attr, forbidden)


def _fresh_image(name, isa, loaded):
    """``name``'s image for ``isa`` compiled afresh; a FITS image is
    compiled at the loaded extras' budget and translated through the
    loaded ISA, with the static operand uses synthesis translates with."""
    module = get_workload(name).build_module("small")
    if isa == "arm":
        return compile_arm(module)
    if isa == "thumb":
        return compile_thumb(module)
    budget = loaded[2]["budget"]
    arm = link_arm(module, callee_saved=budget)
    return translate(arm, loaded[0].isa,
                     uses=ArmProfile.static_only(arm).uses)


def _check_unit_loads_as_built(name, isa, monkeypatch):
    path = _record_path(name, isa)
    stored = os.path.exists(path)
    image, result, extras = evaluate._functional(name, "small", isa)
    assert os.path.exists(path)
    if stored:  # an earlier test's build: hold it to a fresh one
        fresh = _fresh_image(name, isa, (image, result, extras))
        assert image_fingerprint(fresh) == image_fingerprint(image)

    _forget(name)
    with monkeypatch.context() as patch:
        _no_build(patch)
        loaded, loaded_result, loaded_extras = evaluate._functional(
            name, "small", isa)
    assert image_fingerprint(loaded) == image_fingerprint(image)
    assert loaded_extras == extras
    assert loaded_result.exit_code == result.exit_code
    assert result.exit_code == get_workload(name).reference("small")


@pytest.mark.parametrize("name", CODE_SIZE_BENCHMARKS)
def test_roster_fits_unit_replays_to_the_flow_image(name, cold_memo,
                                                    monkeypatch):
    """Every roster FITS unit loads the image, budget and dynamic
    mapping its flow kept, and no flow or compile runs on the load."""
    _check_unit_loads_as_built(name, "fits", monkeypatch)


@pytest.mark.parametrize("isa", ["arm", "thumb"])
@pytest.mark.parametrize("name", CODE_SIZE_BENCHMARKS)
def test_roster_unit_loads_as_built(name, isa, cold_memo, monkeypatch):
    _check_unit_loads_as_built(name, isa, monkeypatch)


def _calling(module, name, arg):
    """A pickle (protocol 4) that calls ``module.name(arg)`` on load."""
    return b"\x80\x04c%s\n%s\n(V%s\ntR." % (module.encode(), name.encode(),
                                            arg.encode())


@pytest.mark.parametrize("module, name", [
    ("os", "system"),
    # an undotted-only rule matters: plain pickle resolves this path
    # through ``link``'s ``obs`` module to ``os.system``
    ("repro.compiler.link", "obs.os.system"),
])
def test_record_naming_a_callable_is_refused_never_run_and_rebuilt(
        module, name, tmp_path, cold_memo, capsys):
    evaluate._functional("crc32", "small", "arm")
    path = _record_path("crc32", "arm")
    ran = tmp_path / "ran"
    command = "touch %s" % (tmp_path / "control")
    # the control: unrestricted, the record runs its command
    pickle.loads(_calling(module, name, command))
    assert (tmp_path / "control").exists()
    bad = _calling(module, name, "touch %s" % ran)
    with open(path, "wb") as fh:
        fh.write(bad)
    _forget("crc32")
    image, _result, _extras = evaluate._functional("crc32", "small", "arm")
    assert not ran.exists()
    err = capsys.readouterr().err
    assert err.count("rebuilding it") == 1
    assert "%s.%s is not an image class" % (module, name) in err
    _assert_rewritten(path, bad, image)


def test_record_naming_a_timing_class_is_refused_and_rebuilt(
        cold_memo, capsys):
    """An image saved after a timing memo attached to it names
    ``repro.sim.pipeline.meta.InstrMeta``: not an image class."""
    image, _result, extras = evaluate._functional("crc32", "small", "arm")
    path = _record_path("crc32", "arm")
    timed = compile_arm(get_workload("crc32").build_module("small"))
    metadata_for(timed)
    bad = pickle.dumps((image_fingerprint(timed), timed, extras))
    with open(path, "wb") as fh:
        fh.write(bad)
    _forget("crc32")
    again, _result, _extras = evaluate._functional("crc32", "small", "arm")
    err = capsys.readouterr().err
    assert err.count("rebuilding it") == 1
    assert "repro.sim.pipeline.meta.InstrMeta is not an image class" in err
    assert image_fingerprint(again) == image_fingerprint(image)
    _assert_rewritten(path, bad, image)


def _assert_rewritten(path, bad, image):
    with open(path, "rb") as fh:
        assert fh.read() != bad
    key = os.path.basename(path)[:-len(".pkl")]
    stored, _extras = trace_store.get_store().load_unit(key)
    assert image_fingerprint(stored) == image_fingerprint(image)


@pytest.mark.parametrize("damage", ["image_hash", "garbage"])
def test_record_that_does_not_rebuild_falls_back_and_is_rewritten(
        damage, cold_memo, capsys):
    """A record whose image does not hash to its stored hash, and a
    torn record, each warn once and are rebuilt and rewritten."""
    image, _result, extras = evaluate._functional("crc32", "small", "fits")
    path = _record_path("crc32", "fits")
    with open(path, "rb") as fh:
        good = fh.read()
    if damage == "image_hash":
        bad = pickle.dumps(("0" * 24, image, extras))
    else:
        bad = good[:len(good) // 2]
    with open(path, "wb") as fh:
        fh.write(bad)
    _forget("crc32")
    again, _result, again_extras = evaluate._functional("crc32", "small",
                                                        "fits")
    assert capsys.readouterr().err.count("rebuilding it") == 1
    assert image_fingerprint(again) == image_fingerprint(image)
    assert again_extras == extras
    _assert_rewritten(path, bad, image)


def test_warm_smoke_sweep_is_bit_identical_and_searches_nothing(
        tmp_path, cold_memo, monkeypatch):
    """A sweep over a warm trace store loads every unit: no IR build,
    no compile, no synthesis, no ARM simulation, and the same metrics
    as the cold sweep that filled the store."""
    from repro.sim.functional.arm_sim import ArmSimulator

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    space, names = preset("smoke"), ["crc32", "sha"]
    cold = sweep(space, names, scale="small", jobs=1,
                 store=str(tmp_path / "cold"))
    assert cold["evaluated"] == 8
    assert len(os.listdir(tmp_path / "traces" / trace_store.UNITS)) == 4

    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    _no_build(monkeypatch)

    def no_arm_run(*_args, **_kwargs):
        raise AssertionError("a warm sweep simulated ARM")

    monkeypatch.setattr(ArmSimulator, "run", no_arm_run)
    warm = sweep(space, names, scale="small", jobs=1,
                 store=str(tmp_path / "warm"))
    assert warm["evaluated"] == 8 and not warm["failed"]

    def blobs(root):
        return {(b["benchmark"], b["point"]["id"]): b
                for b in ResultStore(root).iter_results()}

    cold_blobs, warm_blobs = blobs(cold["store"]), blobs(warm["store"])
    assert set(cold_blobs) == set(warm_blobs)
    for key, blob in cold_blobs.items():
        assert warm_blobs[key]["metrics"] == blob["metrics"], key

    def runs(found, counter):
        return sum(b["manifest"]["counters"].get(counter, 0)
                   for b in found.values())

    assert runs(cold_blobs, "synthesize.runs") == 8    # 4 budgets x 2
    assert runs(cold_blobs, "compile.arm.images") > 0
    for counter in ("synthesize.runs", "compile.arm.images",
                    "translate.runs", "trace_store.miss"):
        assert runs(warm_blobs, counter) == 0, counter


def test_trace_store_hit_attributes_an_unattributed_manifest(
        tmp_path, cold_memo, monkeypatch):
    """Traces first stored outside a run context name no benchmark; the
    first hit inside one fills it in, so the sweep's shared-memory
    exporter ships them.  A manifest that names one is never rewritten."""
    from repro.sim.functional import ArmSimulator, cached_run, planes
    from repro.sim.functional.thumb_sim import ThumbSimulator

    if not planes.available():
        pytest.skip("no shared memory on this platform")
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    store = trace_store.get_store()
    module = get_workload("crc32").build_module("small")
    arm, thumb = compile_arm(module), compile_thumb(module)
    cached_run("arm", arm, ArmSimulator(arm).run)
    cached_run("thumb", thumb, ThumbSimulator(thumb).run)
    flow_mod.fits_flow(module)

    def exported():
        bus = planes.PlaneBus()
        try:
            return len(bus.export_for(store, "crc32", "small"))
        finally:
            bus.close()

    assert exported() == 0
    for isa in ("arm", "thumb", "fits"):
        evaluate._functional("crc32", "small", isa)
    assert exported() == 3

    manifests = [os.path.join(store.root, n) for n in os.listdir(store.root)
                 if n.endswith(".json")]
    mtimes = [os.stat(path).st_mtime_ns for path in manifests]
    _forget("crc32")
    for isa in ("arm", "thumb", "fits"):
        evaluate._functional("crc32", "small", isa)
    assert [os.stat(path).st_mtime_ns for path in manifests] == mtimes
