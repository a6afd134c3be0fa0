"""Observability tests: spans, counters, sinks, manifests, report CLI."""

import json
import os

import pytest

from repro import obs
from repro.obs.report import main as report_main, render_manifests
from repro.sim.cache import CacheGeometry, SetAssociativeCache


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled, traceless, with empty aggregates."""
    obs.disable()
    obs.reset()
    obs.core._TRACE_CTX.set(None)  # adopt_trace_context persists by design
    yield
    obs.disable()
    obs.reset()
    obs.core._TRACE_CTX.set(None)


# ----------------------------------------------------------------------
# spans


def test_span_nesting_records_depth_and_aggregates():
    sink = obs.MemorySink()
    obs.enable(sink)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
        with obs.span("inner"):
            pass
    spans = obs.snapshot()["spans"]
    assert spans["outer"]["count"] == 1
    assert spans["inner"]["count"] == 2
    assert spans["outer"]["seconds"] >= spans["inner"]["seconds"]
    assert spans["inner"]["max_seconds"] <= spans["inner"]["seconds"]
    # events: inner exits first (depth 1), outer last (depth 0)
    names = [(e["name"], e["depth"]) for e in sink.events]
    assert names == [("inner", 1), ("inner", 1), ("outer", 0)]


def test_span_exception_safety():
    sink = obs.MemorySink()
    obs.enable(sink)
    with pytest.raises(ValueError):
        with obs.span("outer"):
            with obs.span("failing"):
                raise ValueError("boom")
    spans = obs.snapshot()["spans"]
    # both spans closed and aggregated despite the exception
    assert spans["failing"]["count"] == 1
    assert spans["outer"]["count"] == 1
    failing = [e for e in sink.events if e["name"] == "failing"][0]
    assert failing["error"] == "ValueError"
    # depth collapsed back to zero: a fresh span starts at depth 0
    with obs.span("after"):
        pass
    after = [e for e in sink.events if e["name"] == "after"][0]
    assert after["depth"] == 0


def test_timed_decorator():
    obs.enable(obs.MemorySink())

    @obs.timed("work")
    def work(x):
        return x + 1

    assert work(1) == 2
    assert work(2) == 3
    assert obs.snapshot()["spans"]["work"]["count"] == 2


def test_span_attrs_reach_sink():
    sink = obs.MemorySink()
    obs.enable(sink)
    with obs.span("stage.compile", isa="arm", module="m"):
        pass
    event = sink.events[0]
    assert event["attrs"] == {"isa": "arm", "module": "m"}


# ----------------------------------------------------------------------
# counters / gauges / distributions


def test_counter_aggregation():
    obs.enable(obs.MemorySink())
    obs.counter("hits")
    obs.counter("hits", 4)
    obs.counter("misses", 2)
    obs.gauge("budget", [4, 5])
    obs.observe("latency", 3.0)
    obs.observe("latency", 1.0)
    obs.observe("latency", 2.0)
    snap = obs.snapshot()
    assert snap["counters"] == {"hits": 5, "misses": 2}
    assert snap["gauges"] == {"budget": [4, 5]}
    dist = snap["distributions"]["latency"]
    assert dist == {"count": 3, "total": 6.0, "min": 1.0, "max": 3.0}


def test_mark_since_window_deltas():
    obs.enable(obs.MemorySink())
    obs.counter("n", 10)
    with obs.span("s"):
        pass
    marker = obs.mark()
    obs.counter("n", 5)
    obs.counter("fresh", 1)
    with obs.span("s"):
        pass
    delta = obs.since(marker)
    assert delta["counters"] == {"n": 5, "fresh": 1}
    assert delta["spans"]["s"]["count"] == 1
    assert delta["schema"] == obs.SCHEMA_VERSION


def test_noop_fast_path_adds_no_entries():
    assert not obs.core.enabled
    obs.counter("nope")
    obs.gauge("nope", 1)
    obs.observe("nope", 1.0)
    with obs.span("nope"):
        pass
    snap = obs.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["distributions"] == {}
    assert snap["spans"] == {}
    # the disabled span is a shared singleton — no allocation per call
    assert obs.span("a") is obs.span("b")


# ----------------------------------------------------------------------
# sinks and env configuration


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    obs.enable(obs.JsonlSink(str(path)))
    with obs.span("stage.compile", isa="arm"):
        pass
    obs.counter("hits", 3)
    obs.emit({"kind": "manifest", "benchmark": "crc32",
              "manifest": {"counters": obs.snapshot()["counters"]}})
    obs.disable()
    events = [json.loads(line) for line in path.read_text().splitlines()]
    # the stream opens with a clock anchor for cross-process alignment
    assert [e["kind"] for e in events] == ["meta", "span", "manifest"]
    assert events[0]["pid"] == os.getpid() and "wall0" in events[0]
    assert events[1]["name"] == "stage.compile"
    assert events[1]["seconds"] >= 0
    assert events[2]["manifest"]["counters"] == {"hits": 3}


def test_configure_from_env_jsonl(tmp_path):
    path = tmp_path / "obs.jsonl"
    assert obs.configure_from_env({"REPRO_OBS": "jsonl:%s" % path})
    assert obs.core.enabled and not obs.opcode_sampling()
    with obs.span("x"):
        pass
    obs.disable()
    assert path.exists() and "x" in path.read_text()


def test_configure_from_env_memory_and_sampling():
    assert obs.configure_from_env({"REPRO_OBS": "memory", "REPRO_OBS_OPCODES": "1"})
    assert obs.core.enabled and obs.opcode_sampling()


def test_configure_from_env_off_and_bad():
    assert not obs.configure_from_env({})
    assert not obs.configure_from_env({"REPRO_OBS": "0"})
    with pytest.raises(ValueError):
        obs.configure_from_env({"REPRO_OBS": "bogus-spec"})


# ----------------------------------------------------------------------
# cache model statistics surface


def test_cache_stats_and_publish():
    cache = SetAssociativeCache(CacheGeometry(1024, block_bytes=32, associativity=2))
    for line in (0, 1, 0, 2):
        cache.access_line(line)
    stats = cache.stats()
    assert stats["accesses"] == 4
    assert stats["misses"] == 3
    assert stats["hits"] == 1
    assert stats["fills"] == stats["misses"]
    assert stats["compulsory_misses"] == 3
    obs.enable(obs.MemorySink())
    cache.publish("cache.test")
    counters = obs.snapshot()["counters"]
    assert counters["cache.test.accesses"] == 4
    assert counters["cache.test.misses"] == 3


# ----------------------------------------------------------------------
# runner integration: manifests, provenance, aggregation


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    """An empty summary cache, a cold in-process functional memo and no
    stored FITS flow records, so a run's manifest covers every stage
    whatever ran before it (a replayed flow record skips synthesis)."""
    from collections import OrderedDict

    from repro.dse import evaluate
    from repro.sim.functional.store import TraceStore

    monkeypatch.setattr(evaluate, "_FUNC_CACHE", {})
    monkeypatch.setattr(evaluate, "_FUNC_GROUPS", OrderedDict())
    monkeypatch.setattr(TraceStore, "load_flow", lambda self, key: None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def test_manifest_matches_cache_model_totals(cache_env):
    from repro.fingerprint import RESULT, fingerprint
    from repro.harness import collect, CONFIGS

    data = collect(scale="small", names=["crc32"])
    summary = data["crc32"]
    manifest = summary.manifest
    assert manifest["fingerprint"] == fingerprint(RESULT)
    assert manifest["schema"] == obs.SCHEMA_VERSION
    assert manifest["wall_seconds"] > 0

    # all five pipeline stages timed
    assert set(manifest["stages"]) == set(obs.STAGES)
    for row in manifest["stages"].values():
        assert row["count"] > 0 and row["seconds"] > 0

    # the manifest's cache counters equal the CacheGeometry model totals
    # recorded per configuration (4 simulate_timing calls per run)
    counters = manifest["counters"]
    line_accesses = sum(
        summary.config(label)["icache_line_accesses"] for label, _i, _s in CONFIGS
    )
    misses = sum(summary.config(label)["icache_misses"] for label, _i, _s in CONFIGS)
    assert counters["cache.icache.accesses"] == line_accesses
    assert counters["cache.icache.misses"] == misses
    assert counters["cache.icache.hits"] == line_accesses - misses

    # ... and the power model consumed exactly the cache model's numbers
    assert counters["power.icache.line_accesses"] == line_accesses
    assert counters["power.icache.misses"] == misses

    # instruction counters present from every simulator
    assert counters["sim.arm.instructions"] > 0
    assert counters["sim.thumb.instructions"] > 0
    assert counters["sim.fits.instructions"] > 0
    assert counters["translate.one_to_one"] > counters["translate.one_to_n"]


def test_stale_cache_blob_recomputed(cache_env):
    """A summary computed by other code (another result fingerprint) is
    a miss: it is recomputed and rewritten, never served."""
    from repro.fingerprint import RESULT, fingerprint
    from repro.harness import collect

    first = collect(scale="small", names=["crc32"])
    path = cache_env / "crc32-small.json"
    assert path.exists()

    blob = json.loads(path.read_text())
    blob["manifest"]["fingerprint"] = "0" * 16
    blob["static_mapping"] = 0.0  # poison: must not survive the reload
    path.write_text(json.dumps(blob))

    second = collect(scale="small", names=["crc32"])
    assert second["crc32"]["static_mapping"] == first["crc32"]["static_mapping"]
    # the recomputed blob was rewritten with current provenance
    refreshed = json.loads(path.read_text())
    assert refreshed["manifest"]["fingerprint"] == fingerprint(RESULT)


def test_cache_dir_independent_of_cwd(tmp_path, monkeypatch):
    from repro.harness.runner import _cache_dir

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    resolved = _cache_dir()
    assert not resolved.startswith(str(tmp_path))
    # expanduser applied to the env override
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DIR", "~/bench")
    assert _cache_dir() == str(tmp_path / "bench")


def test_aggregate_manifests(cache_env):
    from repro.harness import collect
    from repro.harness.runner import aggregate_manifests

    data = collect(scale="small", names=["crc32", "sha"])
    agg = aggregate_manifests(data.values())
    assert set(agg["benchmarks"]) == {"crc32", "sha"}
    assert set(agg["stages"]) == set(obs.STAGES)
    assert agg["wall_seconds"] > 0
    assert agg["counters"]["sim.arm.instructions"] > 0


def test_report_cli_renders_all_stages(cache_env, capsys):
    from repro.harness import collect

    collect(scale="small", names=["crc32"])
    assert report_main(["--cache-dir", str(cache_env)]) == 0
    out = capsys.readouterr().out
    for stage in obs.STAGES:
        assert stage in out
    assert "crc32" in out
    assert "per-stage totals" in out
    assert "top counters" in out


def test_report_render_empty():
    assert "benchmark" in render_manifests({})


def test_opcode_sampling_histogram(cache_env):
    from repro.workloads import get_workload
    from repro.compiler import compile_arm
    from repro.sim.functional import ArmSimulator

    obs.enable(obs.MemorySink(), opcode_sampling=True)
    wl = get_workload("crc32")
    image = compile_arm(wl.build_module("small"))
    ArmSimulator(image).run()
    counters = obs.snapshot()["counters"]
    opcode_keys = [k for k in counters if k.startswith("sim.arm.opcode.")]
    assert opcode_keys, "sampling knob on -> per-opcode histogram collected"
    assert sum(counters[k] for k in opcode_keys) == counters["sim.arm.instructions"]

    # knob off -> no histogram
    obs.disable()
    obs.reset()
    obs.enable(obs.MemorySink(), opcode_sampling=False)
    ArmSimulator(image).run()
    counters = obs.snapshot()["counters"]
    assert not any(k.startswith("sim.arm.opcode.") for k in counters)


# ----------------------------------------------------------------------
# sink lifecycle (context manager, atexit) and spec propagation


def test_jsonl_sink_context_manager(tmp_path):
    path = tmp_path / "cm.jsonl"
    with obs.JsonlSink(str(path)) as sink:
        sink.emit({"kind": "span", "name": "x", "seconds": 0.1})
    assert sink._fh.closed
    # emit after close is a silent no-op, not a crash
    sink.emit({"kind": "span", "name": "y", "seconds": 0.1})
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["name"] for e in events] == ["x"]


def test_enable_registers_atexit_close(tmp_path):
    import atexit

    from repro.obs import core

    path = tmp_path / "atexit.jsonl"
    obs.enable(obs.JsonlSink(str(path)))
    assert core._atexit_registered
    with obs.span("tail"):
        pass
    # simulate interpreter shutdown: the hook flushes and closes the
    # live sink so trailing events are on disk
    core._close_sink_at_exit()
    assert "tail" in path.read_text()
    # double-close (hook then disable) is safe
    obs.disable()
    atexit.unregister(core._close_sink_at_exit)
    core._atexit_registered = False


def test_span_events_carry_ts_and_pid(tmp_path):
    sink = obs.MemorySink()
    obs.enable(sink)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    inner, outer = sink.events
    assert inner["pid"] == outer["pid"] == os.getpid()
    assert outer["ts"] <= inner["ts"]  # outer started first
    assert inner["ts"] + inner["seconds"] <= outer["ts"] + outer["seconds"] + 1e-3


def test_export_apply_spec_round_trip(tmp_path):
    assert obs.export_spec() is None  # disabled

    obs.enable(obs.JsonlSink(str(tmp_path / "s.jsonl")), opcode_sampling=True)
    spec = obs.export_spec()
    assert spec == {"kind": "jsonl", "path": str(tmp_path / "s.jsonl"),
                    "opcodes": True, "max_bytes": 0}
    obs.disable()
    obs.apply_spec(spec)
    assert obs.core.enabled and obs.opcode_sampling()
    assert isinstance(obs.core.sink(), obs.JsonlSink)
    obs.disable()

    obs.enable(sink=None)
    assert obs.export_spec() == {"kind": "aggregate", "path": None,
                                 "opcodes": False, "max_bytes": 0}
    obs.apply_spec(obs.export_spec())
    assert obs.core.enabled and obs.core.sink() is None

    obs.apply_spec(None)
    assert not obs.core.enabled


# ----------------------------------------------------------------------
# report CLI failure modes


def test_report_cli_jsonl_missing_and_empty(tmp_path, capsys):
    assert report_main(["--jsonl", str(tmp_path / "missing.jsonl")]) == 1
    assert "error" in capsys.readouterr().err
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert report_main(["--jsonl", str(empty)]) == 1
    assert "no span or manifest events" in capsys.readouterr().err


def test_report_cli_empty_cache_and_dse(tmp_path, capsys):
    assert report_main(["--cache-dir", str(tmp_path)]) == 1
    assert "no cached run manifests" in capsys.readouterr().err
    assert report_main(["--dse", str(tmp_path / "nostore")]) == 1
    assert "no DSE results" in capsys.readouterr().err


def test_report_cli_dse_warns_on_failed_points(tmp_path, capsys):
    from repro.dse.space import DesignPoint
    from repro.dse.store import RESULT_SCHEMA, ResultStore

    store = ResultStore(str(tmp_path / "dse"))
    point = DesignPoint("arm", 8192)
    store.save({
        "schema": RESULT_SCHEMA, "benchmark": "crc32", "scale": "small",
        "point": point.to_dict(),
        "metrics": {"ipc": 0.9},
        "manifest": {"label": point.label, "wall_seconds": 0.4,
                     "stages": {"simulate": {"count": 1, "seconds": 0.2}}},
    })
    store.save_failure("sha", "feedbeefcafe", "ValueError: boom")
    assert report_main(["--dse", store.root]) == 0
    out = capsys.readouterr().out
    assert "warning: skipping failed point sha feedbeefcafe" in out
    assert "crc32" in out


# ----------------------------------------------------------------------
# span hierarchy (trace_id / span_id / parent_id), thread lanes


def test_span_hierarchy_ids_nest():
    import contextvars

    sink = obs.MemorySink()
    obs.enable(sink)
    with obs.span("outer"):
        with obs.span("inner"):
            pass
    with obs.span("second_root"):
        pass
    inner, outer, second = sink.events
    assert inner["trace_id"] == outer["trace_id"]
    assert inner["parent_id"] == outer["span_id"]
    assert "parent_id" not in outer  # a root span
    assert outer["span_id"] != inner["span_id"]
    assert inner["tid"] == outer["tid"] >= 1
    # a sibling root starts a fresh trace
    assert second["trace_id"] != outer["trace_id"]
    assert "parent_id" not in second
    assert contextvars.copy_context().get(obs.core._TRACE_CTX) is None


def test_trace_context_visible_inside_span():
    obs.enable(obs.MemorySink())
    assert obs.trace_context() is None
    with obs.span("root"):
        ctx = obs.trace_context()
        assert ctx is not None
        trace_id, span_id = ctx
        with obs.span("child"):
            inner_trace, inner_span = obs.trace_context()
            assert inner_trace == trace_id
            assert inner_span != span_id
    assert obs.trace_context() is None


def test_adopt_trace_context_parents_spans():
    sink = obs.MemorySink()
    obs.enable(sink)
    obs.adopt_trace_context("feedface00000000", "dead-1")
    with obs.span("worker_root"):
        pass
    event = sink.events[-1]
    assert event["trace_id"] == "feedface00000000"
    assert event["parent_id"] == "dead-1"


def test_apply_spec_carries_trace_context(tmp_path):
    """A worker applying an exported spec parents under the exporter."""
    import contextvars

    stream = str(tmp_path / "linked.jsonl")
    obs.enable(obs.JsonlSink(stream))
    with obs.span("coordinator"):
        spec = obs.export_spec()
        assert spec["trace"]["trace_id"]
        assert spec["trace"]["parent_id"]

        def worker():
            obs.apply_spec(spec)
            with obs.span("worker_root"):
                pass

        contextvars.copy_context().run(worker)
    obs.disable()

    events = {}
    with open(stream) as fh:
        for line in fh:
            event = json.loads(line)
            if event.get("kind") == "span":
                events[event["name"]] = event
    worker_root = events["worker_root"]
    coordinator = events["coordinator"]
    assert worker_root["parent_id"] == coordinator["span_id"]
    assert worker_root["trace_id"] == coordinator["trace_id"]


def test_span_ids_not_minted_without_sink():
    obs.enable(sink=None)  # aggregate-only
    with obs.span("quiet"):
        assert obs.trace_context() is None


# ----------------------------------------------------------------------
# JSONL rotation (REPRO_OBS_MAX_BYTES)


def test_jsonl_rotation_caps_size_and_warns_once(tmp_path, capsys):
    stream = tmp_path / "rot.jsonl"
    sink = obs.JsonlSink(str(stream), max_bytes=2048)
    obs.enable(sink)
    for i in range(100):
        with obs.span("spin", i=i):
            pass
    obs.disable()

    assert sink.rotations >= 1
    assert (tmp_path / "rot.jsonl.1").exists()
    assert stream.stat().st_size <= 2048 + 512  # cap plus one event of slack
    err = capsys.readouterr().err
    assert err.count("REPRO_OBS_MAX_BYTES") == 1  # warned exactly once
    # the fresh generation re-anchors the process clock for trace export
    with open(str(stream)) as fh:
        first = json.loads(fh.readline())
    assert first["kind"] == "meta" and "wall0" in first


def test_jsonl_max_bytes_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS_MAX_BYTES", "4096")
    sink = obs.JsonlSink(str(tmp_path / "env.jsonl"))
    assert sink.max_bytes == 4096
    sink.close()
    monkeypatch.delenv("REPRO_OBS_MAX_BYTES")
    sink = obs.JsonlSink(str(tmp_path / "env2.jsonl"))
    assert sink.max_bytes == 0  # unbounded by default
    sink.close()


def test_export_spec_propagates_max_bytes(tmp_path):
    obs.enable(obs.JsonlSink(str(tmp_path / "m.jsonl"), max_bytes=9000))
    spec = obs.export_spec()
    assert spec["max_bytes"] == 9000
    obs.disable()
    obs.apply_spec(spec)
    assert obs.core.sink().max_bytes == 9000


# ----------------------------------------------------------------------
# trace export: lanes, flow events, clock alignment, link checking


def _write_stream(path, events):
    with open(str(path), "w") as fh:
        for event in events:
            fh.write(json.dumps(event) + "\n")


def test_trace_export_flow_events_and_labels(tmp_path):
    from repro.obs import trace_export

    stream = tmp_path / "multi.jsonl"
    # two processes with different private epochs: anchors say pid 10's
    # clock started 1.0 wall-second before pid 20's
    _write_stream(stream, [
        {"kind": "meta", "pid": 10, "wall0": 1000.0, "ts0": 0.0},
        {"kind": "meta", "pid": 20, "wall0": 1001.0, "ts0": 0.0},
        {"kind": "span", "name": "root", "pid": 10, "tid": 1,
         "ts": 0.0, "seconds": 3.0,
         "trace_id": "t1", "span_id": "a-1"},
        {"kind": "span", "name": "work", "pid": 20, "tid": 1,
         "ts": 0.5, "seconds": 1.0,
         "trace_id": "t1", "span_id": "b-1", "parent_id": "a-1"},
    ])
    trace = trace_export.export_trace(str(stream))
    assert trace_export.validate_trace(trace)
    by_ph = {}
    for event in trace["traceEvents"]:
        by_ph.setdefault(event["ph"], []).append(event)

    root = next(e for e in by_ph["X"] if e["name"] == "root")
    work = next(e for e in by_ph["X"] if e["name"] == "work")
    assert root["tid"] == 1 and work["tid"] == 1
    assert root["ts"] == 0.0
    # pid 20's clock is 1.0s behind: 0.5s local offset lands at 1.5s
    assert abs(work["ts"] - 1.5e6) < 1.0
    # one flow pair stitches the cross-process parent link
    (start,) = [e for e in by_ph["s"]]
    (finish,) = [e for e in by_ph["f"]]
    assert start["id"] == finish["id"]
    assert start["pid"] == 10 and finish["pid"] == 20
    assert finish.get("bp") == "e"
    assert start["ts"] <= finish["ts"]
    labels = {e["pid"]: e["args"]["name"] for e in by_ph["M"]}
    assert "coordinator" in labels[10]
    assert "worker" in labels[20]


def test_trace_export_legacy_stream_without_anchors(tmp_path):
    from repro.obs import trace_export

    stream = tmp_path / "legacy.jsonl"
    _write_stream(stream, [
        {"kind": "span", "name": "old", "pid": 7, "seconds": 0.25},
        {"kind": "span", "name": "older", "pid": 7, "seconds": 0.5},
        {"kind": "manifest", "benchmark": "crc32", "pid": 7},
    ])
    trace = trace_export.export_trace(str(stream))
    assert trace_export.validate_trace(trace)
    xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    # no ts: laid out sequentially per process, lane falls back to pid
    assert xs[0]["ts"] == 0.0 and xs[1]["ts"] == 0.25e6
    assert all(e["tid"] == 7 for e in xs)
    marks = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert marks and marks[0]["name"] == "manifest crc32"


def test_check_parent_links_good_and_orphaned(tmp_path):
    from repro.obs import trace_export

    good = tmp_path / "good.jsonl"
    _write_stream(good, [
        {"kind": "span", "name": "root", "pid": 1, "ts": 0.0, "seconds": 1.0,
         "trace_id": "t", "span_id": "a-1"},
        {"kind": "span", "name": "child", "pid": 2, "ts": 0.1, "seconds": 0.5,
         "trace_id": "t", "span_id": "b-1", "parent_id": "a-1"},
    ])
    stats = trace_export.check_parent_links(str(good))
    assert stats["spans"] == 2
    assert stats["cross_process_links"] == 1
    assert stats["roots"] == ["a-1"]
    assert stats["traces"] == ["t"]
    assert stats["processes"] == {1: 1, 2: 1}

    orphan = tmp_path / "orphan.jsonl"
    _write_stream(orphan, [
        {"kind": "span", "name": "lost", "pid": 3, "ts": 0.0, "seconds": 0.1,
         "trace_id": "t", "span_id": "c-1", "parent_id": "nowhere-9"},
    ])
    with pytest.raises(ValueError, match="unresolvable parent_id"):
        trace_export.check_parent_links(str(orphan))

    crossed = tmp_path / "crossed.jsonl"
    _write_stream(crossed, [
        {"kind": "span", "name": "root", "pid": 1, "ts": 0.0, "seconds": 1.0,
         "trace_id": "t1", "span_id": "a-1"},
        {"kind": "span", "name": "child", "pid": 1, "ts": 0.1, "seconds": 0.5,
         "trace_id": "t2", "span_id": "b-1", "parent_id": "a-1"},
    ])
    with pytest.raises(ValueError, match="links across traces"):
        trace_export.check_parent_links(str(crossed))


def test_validate_trace_rejects_unpaired_flow():
    from repro.obs import trace_export

    with pytest.raises(ValueError, match="unpaired flow"):
        trace_export.validate_trace({"traceEvents": [
            {"name": "span-link", "ph": "s", "id": 1, "pid": 1, "ts": 0.0},
        ]})


# ----------------------------------------------------------------------
# report --top-spans percentiles


def test_report_top_spans_percentiles(tmp_path, capsys):
    stream = tmp_path / "lat.jsonl"
    events = [{"kind": "span", "name": "hot", "pid": 1,
               "seconds": 0.01 * (i + 1)} for i in range(100)]
    events.append({"kind": "span", "name": "cold", "pid": 1, "seconds": 0.001})
    _write_stream(stream, events)

    assert report_main(["--jsonl", str(stream), "--top-spans", "1"]) == 0
    out = capsys.readouterr().out
    assert "p50" in out and "p95" in out and "p99" in out
    assert "hot" in out
    assert "cold" not in out  # cut by the top-1 limit
    assert "1 more span names" in out
    # p50 of 10ms..1000ms uniform = 505ms; p95 = 950.5ms (interpolated)
    assert "505.00 ms" in out
    assert "950.50 ms" in out


def test_report_top_spans_requires_jsonl(capsys):
    assert report_main(["--top-spans", "5"]) == 2
    assert "--top-spans needs --jsonl" in capsys.readouterr().err


def test_report_jsonl_metrics_section(tmp_path, capsys):
    from repro.obs import metrics as metrics_mod

    stream = str(tmp_path / "run.jsonl")
    obs.enable(obs.JsonlSink(stream))
    metrics_mod.observe("dse.point.seconds", 0.02)
    metrics_mod.observe("dse.point.seconds", 0.04)
    with obs.span("stage.x"):
        pass
    metrics_mod.flush()
    obs.disable()

    assert report_main(["--jsonl", stream, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "stage.x" in out                  # span section still there
    assert "metric histograms" in out
    assert "dse.point.seconds" in out and "p95" in out

    # a stream carrying only metric snapshots still renders the section
    only = str(tmp_path / "only.jsonl")
    obs.enable(obs.JsonlSink(only))
    metrics_mod.observe("serve.request.seconds", 0.001)
    metrics_mod.flush()
    obs.disable()
    assert report_main(["--jsonl", only, "--metrics"]) == 0
    assert "serve.request.seconds" in capsys.readouterr().out


def test_report_metrics_requires_jsonl(capsys):
    assert report_main(["--metrics"]) == 2
    assert "--metrics needs --jsonl" in capsys.readouterr().err


def test_percentile_edges():
    from repro.obs.report import _percentile

    assert _percentile([], 50) == 0.0
    assert _percentile([4.0], 99) == 4.0
    assert _percentile([1.0, 2.0], 50) == 1.5
    assert _percentile([1.0, 2.0, 3.0], 0) == 1.0
    assert _percentile([1.0, 2.0, 3.0], 100) == 3.0


def test_report_folds_rotated_jsonl_generation(tmp_path):
    from repro.obs.report import render_jsonl, span_durations

    stream = tmp_path / "gen.jsonl"
    # a rotation mid-run: the early spans live only in the .1 generation
    _write_stream(stream.with_name("gen.jsonl.1"), [
        {"kind": "span", "name": "early", "seconds": 1.0},
        {"kind": "span", "name": "both", "seconds": 2.0},
        {"kind": "manifest", "benchmark": "old",
         "manifest": {"benchmark": "old", "scale": "small",
                      "wall_seconds": 1.0, "stages": {},
                      "counters": {"c.old": 7}}},
    ])
    _write_stream(stream, [
        {"kind": "span", "name": "both", "seconds": 3.0},
        {"kind": "span", "name": "late", "seconds": 0.5},
    ])

    durations = span_durations(str(stream))
    assert durations == {"early": [1.0], "both": [2.0, 3.0], "late": [0.5]}

    text = render_jsonl(str(stream))
    assert "early" in text and "late" in text
    assert "+%s" % stream.with_name("gen.jsonl.1") in text
    assert "c.old" in text      # manifest from the rotated generation
    # a stream with no rotated sibling behaves exactly as before
    solo = tmp_path / "solo.jsonl"
    _write_stream(solo, [{"kind": "span", "name": "only", "seconds": 1.0}])
    assert span_durations(str(solo)) == {"only": [1.0]}
    assert "(+" not in render_jsonl(str(solo)).splitlines()[0]


def test_rotated_run_report_sees_prerotation_spans(tmp_path):
    """End-to-end: spans emitted before a REPRO_OBS_MAX_BYTES rotation
    still appear in the report totals."""
    from repro.obs.report import render_jsonl

    stream = tmp_path / "rotrep.jsonl"
    sink = obs.JsonlSink(str(stream), max_bytes=2048)
    obs.enable(sink)
    for i in range(100):
        with obs.span("spin", i=i):
            pass
    obs.disable()
    assert sink.rotations >= 1
    with open(str(stream)) as fh:
        live = sum(1 for line in fh if '"kind": "span"' in line)
    text = render_jsonl(str(stream))
    n = int(text.split("n=")[1].split()[0])
    # the report folds the kept .1 generation on top of the live file
    # (only one generation is kept, so with several rotations n < 100)
    assert n > live
    with open(str(stream) + ".1") as fh:
        kept = sum(1 for line in fh if '"kind": "span"' in line)
    assert n == live + kept
