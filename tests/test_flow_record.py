"""A stored FITS flow record rebuilds the flow's image without the search.

``dse.evaluate._functional`` saves the FITS flow's outcome (kept budget,
synthesized ISA, dynamic mapping, image hash) in the trace store, keyed
by workload, scale and ``fingerprint(FLOW)``; a later FITS unit replays
one compile and one translation instead of four profiles and four
syntheses.  These tests hold the replay to the flow's image on every
roster kernel, the ISA codec to a lossless round trip, a record that no
longer rebuilds its image to a fallback, and a warm sweep to the cold
one's metrics.  They also cover the trace store attributing a hit to
the benchmark of its run context.
"""

import json
import os
from collections import OrderedDict

import pytest

from repro.core import flow as flow_mod
from repro.core.profiler import ArmProfile
from repro.dse import evaluate
from repro.dse.scheduler import sweep
from repro.dse.space import preset
from repro.dse.store import ResultStore
from repro.fingerprint import FLOW, fingerprint
from repro.isa.fits.spec import FitsIsa
from repro.sim.functional import store as trace_store
from repro.sim.functional.store import image_fingerprint
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


def _record_path(name, scale="small"):
    store = trace_store.get_store()
    return os.path.join(store.root, trace_store.FLOWS, "%s-%s-%s.json"
                        % (name, scale, fingerprint(FLOW)))


def _no_search(monkeypatch):
    """Make any synthesis or profile from execution fail the test."""
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the replay ran the flow's search")

    monkeypatch.setattr(flow_mod, "synthesize", forbidden)
    monkeypatch.setattr(ArmProfile, "from_execution", classmethod(forbidden))


def _isa_shape(isa):
    """Everything a decoder configuration holds, with parameter types."""
    return (isa.k_op, isa.k_reg, list(isa.regmap.items()), isa.dicts,
            [(num, spec.key(), spec.name,
              [(k, type(v)) for k, v in spec.params.items()])
             for num, spec in isa.opcode_table.items()])


@pytest.mark.parametrize("name", CODE_SIZE_BENCHMARKS)
def test_roster_fits_unit_replays_to_the_flow_image(name, cold_memo,
                                                    monkeypatch):
    # the flow, or the replay of a record an earlier test's flow stored:
    # either way the image hash below is the one a fits_flow produced
    image, result, extras = evaluate._functional(name, "small", "fits")
    path = _record_path(name)
    with open(path) as fh:
        assert json.load(fh)["image_hash"] == image_fingerprint(image)

    # the synthesized ISA survives JSON unchanged
    data = json.loads(json.dumps(image.isa.to_dict()))
    rebuilt = FitsIsa.from_dict(data)
    assert _isa_shape(rebuilt) == _isa_shape(image.isa)
    assert rebuilt.to_dict() == data

    _forget(name)
    _no_search(monkeypatch)
    replayed, replayed_result, replayed_extras = evaluate._functional(
        name, "small", "fits")
    assert image_fingerprint(replayed) == image_fingerprint(image)
    assert replayed_extras == extras
    assert replayed_result.exit_code == result.exit_code


@pytest.mark.parametrize("damage", ["image_hash", "garbage"])
def test_record_that_does_not_rebuild_falls_back_and_is_rewritten(
        damage, cold_memo, capsys):
    image, _result, extras = evaluate._functional("crc32", "small", "fits")
    path = _record_path("crc32")
    with open(path) as fh:
        good = json.load(fh)
    if damage == "image_hash":
        bad = dict(good, image_hash="0" * 24)
    else:
        bad = {"isa": {}}
    with open(path, "w") as fh:
        json.dump(bad, fh)
    _forget("crc32")
    again, _result, again_extras = evaluate._functional("crc32", "small",
                                                        "fits")
    assert "re-running the flow" in capsys.readouterr().err
    assert image_fingerprint(again) == image_fingerprint(image)
    assert again_extras == extras
    with open(path) as fh:
        assert json.load(fh) == good


def test_warm_smoke_sweep_is_bit_identical_and_searches_nothing(
        tmp_path, cold_memo, monkeypatch):
    """A sweep over a warm trace store replays every FITS unit: no
    synthesis, no profile from execution, no ARM simulation, and the
    same metrics as the cold sweep that filled the store."""
    from repro.sim.functional.arm_sim import ArmSimulator

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    space, names = preset("smoke"), ["crc32", "sha"]
    cold = sweep(space, names, scale="small", jobs=1,
                 store=str(tmp_path / "cold"))
    assert cold["evaluated"] == 8

    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    _no_search(monkeypatch)

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
    assert runs(warm_blobs, "synthesize.runs") == 0
    assert runs(warm_blobs, "trace_store.miss") == 0


def test_trace_store_hit_attributes_an_unattributed_manifest(
        tmp_path, cold_memo, monkeypatch):
    """Traces first stored outside a run context name no benchmark; the
    first hit inside one fills it in, so the sweep's shared-memory
    exporter ships them.  A manifest that names one is never rewritten."""
    from repro.compiler import compile_arm, compile_thumb
    from repro.sim.functional import ArmSimulator, cached_run, planes
    from repro.sim.functional.thumb_sim import ThumbSimulator
    from repro.workloads import get_workload

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
