"""Trajectory store, golden gates, regression detector, trace export."""

import json
import os

import pytest

from repro import obs
from repro.dse.space import DesignPoint
from repro.dse.store import RESULT_SCHEMA, ResultStore
from repro.obs import golden
from repro.obs.regress import (
    TRAJECTORY_SCHEMA,
    TrajectoryStore,
    detect,
    main as regress_main,
    make_record,
    records_from_dse_store,
    records_from_summary,
    robust_z,
)
from repro.obs.trace_export import export_trace, validate_trace


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


POINT_IDS = {
    "ARM16": DesignPoint("arm", 16 * 1024).point_id,
    "ARM8": DesignPoint("arm", 8 * 1024).point_id,
    "FITS16": DesignPoint("fits", 16 * 1024).point_id,
    "FITS8": DesignPoint("fits", 8 * 1024).point_id,
}

#: Synthetic per-config metrics that sit exactly on every golden
#: target's ``expect`` value (ARM16 is the unit baseline).
GOLDEN_METRICS = {
    "ARM16": {"switching_w": 1.0, "internal_w": 1.0, "leakage_w": 1.0,
              "peak_w": 1.0, "icache_energy_j": 1.0, "mpm": 100.0,
              "ipc": 1.0, "frac_internal": 0.53, "code_size": 1000,
              "instructions": 5000},
    "ARM8": {"switching_w": 1.0, "internal_w": 0.64, "leakage_w": 0.52,
             "peak_w": 0.832, "icache_energy_j": 0.75, "mpm": 100.0,
             "ipc": 1.0, "frac_internal": 0.53, "code_size": 1000,
             "instructions": 5000},
    "FITS16": {"switching_w": 0.58, "internal_w": 0.9, "leakage_w": 1.0,
               "peak_w": 0.663, "icache_energy_j": 0.9, "mpm": 100.0,
               "ipc": 0.97, "frac_internal": 0.53, "code_size": 570,
               "instructions": 5600},
    "FITS8": {"switching_w": 0.58, "internal_w": 0.54, "leakage_w": 0.54,
              "peak_w": 0.49, "icache_energy_j": 0.64, "mpm": 100.0,
              "ipc": 0.97, "frac_internal": 0.53, "code_size": 570,
              "instructions": 5600},
}
HARNESS_EXTRAS = {"arm_code_size": 1000, "thumb_code_size": 670,
                  "fits_code_size": 570, "static_mapping": 0.96,
                  "dynamic_mapping": 0.96}


def paper_records(commit, benchmark="synth", source="harness",
                  override=None, wall=1.0):
    """Four trajectory records (one per paper config) for one commit."""
    records = []
    for label, pid in POINT_IDS.items():
        metrics = dict(GOLDEN_METRICS[label])
        if source == "harness":
            metrics.update(HARNESS_EXTRAS)
        if override and label in override:
            metrics.update(override[label])
        records.append(make_record(
            commit, benchmark, "small", pid, label, metrics,
            stages={"simulate": 0.5}, wall_seconds=wall, source=source))
    return records


# ----------------------------------------------------------------------
# trajectory store


def test_store_round_trip_and_dedupe(tmp_path):
    path = str(tmp_path / "hist" / "trajectory.jsonl")
    store = TrajectoryStore(path)
    assert store.records() == []
    records = paper_records("c1")
    added, skipped = store.append(records)
    assert (added, skipped) == (4, 0)
    # identical keys are deduped, both within a batch and across batches
    added, skipped = store.append(records + paper_records("c2"))
    assert (added, skipped) == (4, 4)
    loaded = store.records()
    assert len(loaded) == 8
    assert loaded[0]["schema"] == TRAJECTORY_SCHEMA
    assert [r["commit"] for r in loaded] == ["c1"] * 4 + ["c2"] * 4
    assert loaded[0]["metrics"] == records[0]["metrics"]
    assert loaded[0]["stages"] == {"simulate": 0.5}


def test_store_skips_garbage_and_stale_schema(tmp_path, capsys):
    path = str(tmp_path / "trajectory.jsonl")
    store = TrajectoryStore(path)
    store.append(paper_records("c1"))
    with open(path, "a") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"schema": 999, "commit": "x"}) + "\n")
    records = store.records()
    assert len(records) == 4
    assert "schema" in capsys.readouterr().err
    # appending over a file with garbage keeps the valid lines
    added, _skipped = store.append(paper_records("c2"))
    assert added == 4
    assert len(store.records()) == 8


def test_records_from_summary_maps_canonical_names():
    summary = {
        "name": "crc32", "scale": "small",
        "arm_code_size": 1000, "thumb_code_size": 670, "fits_code_size": 570,
        "static_mapping": 0.96, "dynamic_mapping": 0.97,
        "manifest": {"wall_seconds": 1.5,
                     "stages": {"simulate": {"count": 4, "seconds": 1.0}}},
        "configs": {label: {"icache_energy_j": 2.0, "ipc": 0.9,
                            "switching_w": 1.0,
                            "code_size": 1000 if label.startswith("ARM")
                            else 570}
                    for label in POINT_IDS},
    }
    records = records_from_summary(summary, "c1")
    assert len(records) == 4
    by_label = {r["label"]: r for r in records}
    assert set(by_label) == set(POINT_IDS)
    arm16 = by_label["ARM16"]
    assert arm16["point_id"] == POINT_IDS["ARM16"]
    assert arm16["metrics"]["icache_energy_j"] == 2.0
    assert arm16["metrics"]["code_size"] == 1000
    assert by_label["FITS8"]["metrics"]["code_size"] == 570
    assert arm16["metrics"]["thumb_code_size"] == 670
    assert arm16["stages"] == {"simulate": 1.0}
    assert arm16["wall_seconds"] == 1.5
    assert arm16["source"] == "harness"


def test_dse_bridge(tmp_path):
    store = ResultStore(str(tmp_path / "dse"))
    point = DesignPoint("fits", 16 * 1024)
    store.save({
        "schema": RESULT_SCHEMA, "benchmark": "crc32", "scale": "small",
        "point": point.to_dict(),
        "metrics": {"ipc": 0.9, "switching_w": 0.5},
        "manifest": {"label": point.label, "wall_seconds": 0.7,
                     "stages": {"simulate": {"count": 1, "seconds": 0.4}}},
    })
    records = records_from_dse_store(store, "c9")
    assert len(records) == 1
    rec = records[0]
    assert rec["source"] == "dse"
    assert rec["point_id"] == point.point_id
    assert rec["metrics"]["switching_w"] == 0.5
    assert rec["stages"] == {"simulate": 0.4}
    # the ResultStore method is the same bridge
    via_method = store.to_trajectory_records(commit="c9")
    assert via_method[0]["metrics"] == rec["metrics"]


# ----------------------------------------------------------------------
# golden gates


def test_golden_all_pass_on_calibrated_records():
    rows = golden.check_golden(paper_records("c1"), commit="c1")
    statuses = {r["metric"]: r["status"] for r in rows}
    assert set(statuses.values()) == {"pass"}
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["switching_saving_fits16"]["figure"] == "Figure 7"
    assert by_metric["switching_saving_fits16"]["paper"] == 0.494
    assert by_metric["switching_saving_fits16"]["abs_err"] == pytest.approx(0.0)


def test_golden_tolerance_edges():
    # ipc_ratio_fits8: expect 0.97, tol 0.05 — just inside the edge passes
    edge = {"FITS8": {"ipc": 0.97 + 0.05 - 1e-9}}
    rows = golden.check_golden(paper_records("c1", override=edge), "c1")
    row = [r for r in rows if r["metric"] == "ipc_ratio_fits8"][0]
    assert row["status"] == "pass"
    beyond = {"FITS8": {"ipc": 0.97 + 0.05 + 1e-6}}
    rows = golden.check_golden(paper_records("c1", override=beyond), "c1")
    row = [r for r in rows if r["metric"] == "ipc_ratio_fits8"][0]
    assert row["status"] == "fail"
    assert row["rel_err"] > 0


def test_golden_skips_without_inputs():
    # DSE records carry no Thumb build / mapping rates
    rows = golden.check_golden(paper_records("c1", source="dse"), "c1")
    by_metric = {r["metric"]: r for r in rows}
    for key in ("static_mapping", "dynamic_mapping", "code_size_fits_vs_thumb"):
        assert by_metric[key]["status"] == "skip"
    assert by_metric["switching_saving_fits8"]["status"] == "pass"
    # an incomplete configuration set skips everything
    rows = golden.check_golden(paper_records("c1")[:3], "c1")
    assert {r["status"] for r in rows} == {"skip"}


def test_golden_commit_filter_and_harness_preference():
    records = paper_records("c1") + paper_records(
        "c2", override={"FITS8": {"ipc": 0.5}})
    rows = golden.check_golden(records, commit="c1")
    assert {r["status"] for r in rows} == {"pass"}
    rows = golden.check_golden(records, commit="c2")
    assert [r for r in rows if r["metric"] == "ipc_ratio_fits8"
            ][0]["status"] == "fail"
    # harness records win over dse duplicates of the same (bench, label)
    mixed = paper_records("c3", source="dse",
                          override={"FITS8": {"ipc": 0.5}})
    mixed += paper_records("c3", source="harness")
    rows = golden.check_golden(mixed, commit="c3")
    assert [r for r in rows if r["metric"] == "ipc_ratio_fits8"
            ][0]["status"] == "pass"


# ----------------------------------------------------------------------
# robust statistics / detector


def test_robust_z():
    history = [10.0, 10.5, 9.5, 10.2, 9.8]
    assert robust_z(history, 10.0) == pytest.approx(0.0)
    assert abs(robust_z(history, 20.0)) > 10
    # bit-identical history: zero spread
    assert robust_z([5.0, 5.0, 5.0], 5.0) == 0.0
    assert robust_z([5.0, 5.0, 5.0], 5.1) == float("inf")


def _history(values, metric="instructions", wall=None, commits=None):
    """One single-point series: one record per value, in order."""
    records = []
    for i, value in enumerate(values):
        records.append(make_record(
            commits[i] if commits else "c%d" % i, "bench", "small",
            "p0", "ARM16", {metric: value},
            wall_seconds=(wall[i] if wall else 1.0), source="harness"))
    return records


def test_detect_flat_history_is_quiet():
    records = _history([5000] * 8, wall=[1.0, 1.1, 0.9, 1.05, 0.95,
                                         1.0, 1.02, 0.98])
    assert detect(records) == []


def test_detect_determinism_break_on_any_change():
    records = _history([5000] * 6 + [5001])
    findings = detect(records)
    assert len(findings) == 1
    f = findings[0]
    assert f["kind"] == "determinism"
    assert f["metric"] == "instructions"
    assert f["value"] == 5001 and f["baseline"] == 5000
    assert f["z"] == float("inf")
    # simulated seconds are deterministic too
    records = _history([2.0] * 4 + [2.5], metric="seconds")
    assert detect(records, min_history=2)[0]["kind"] == "determinism"


def test_detect_wall_clock_step_is_drift_not_determinism():
    wall = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 3.0]
    records = _history([5000] * 7, wall=wall)
    findings = detect(records, threshold=3.5, min_history=5)
    assert len(findings) == 1
    assert findings[0]["kind"] == "drift"
    assert findings[0]["metric"] == "wall_seconds"
    assert findings[0]["baseline"] == pytest.approx(1.0, abs=0.02)


def test_detect_noisy_but_stable_wall_is_quiet():
    wall = [1.0, 1.3, 0.8, 1.15, 0.9, 1.1, 0.95, 1.25]
    records = _history([5000] * 8, wall=wall)
    assert detect(records) == []


def test_detect_min_history_guard_and_rel_floor():
    # two samples: wall doubled, but below min_history — no drift call
    records = _history([5000, 5000], wall=[1.0, 2.0])
    assert detect(records, min_history=5) == []
    # tiny relative excursion on a zero-MAD history is not drift
    wall = [1.0] * 6 + [1.004]
    records = _history([5000] * 7, wall=wall)
    assert detect(records, min_history=5) == []


def test_detect_separates_series_by_source_and_scale():
    a = _history([5000] * 3)
    b = _history([6000] * 3)
    for r in b:
        r["source"] = "dse"
    findings = detect(a + b)
    assert findings == []  # differing sources never cross-contaminate


# ----------------------------------------------------------------------
# CLI


def test_cli_record_check_diff_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    summary = {
        "name": "synth", "scale": "small",
        "arm_code_size": 1000, "thumb_code_size": 670, "fits_code_size": 570,
        "static_mapping": 0.96, "dynamic_mapping": 0.96,
        "manifest": {"wall_seconds": 1.0,
                     "stages": {"simulate": {"count": 4, "seconds": 0.5}}},
        "configs": {label: dict(GOLDEN_METRICS[label]) for label in POINT_IDS},
    }
    with open(str(cache / "synth-small.json"), "w") as fh:
        json.dump(summary, fh)
    hist = str(tmp_path / "trajectory.jsonl")

    assert regress_main(["record", "--cache-dir", str(cache),
                         "--store", hist, "--commit", "c1"]) == 0
    assert "recorded 4 new" in capsys.readouterr().out
    assert regress_main(["check", "--store", hist]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    # unchanged re-record: all duplicates, diff stays clean
    assert regress_main(["record", "--cache-dir", str(cache),
                         "--store", hist, "--commit", "c1"]) == 0
    assert "0 new" in capsys.readouterr().out
    assert regress_main(["diff", "--store", hist]) == 0
    assert "0 regressions" in capsys.readouterr().out
    # a second commit with identical metrics is also clean
    assert regress_main(["record", "--cache-dir", str(cache),
                         "--store", hist, "--commit", "c2"]) == 0
    assert regress_main(["diff", "--store", hist]) == 0
    capsys.readouterr()
    # ... until a simulated metric changes: determinism break, exit 1
    summary["configs"]["ARM16"]["instructions"] = 5001
    with open(str(cache / "synth-small.json"), "w") as fh:
        json.dump(summary, fh)
    assert regress_main(["record", "--cache-dir", str(cache),
                         "--store", hist, "--commit", "c3"]) == 0
    assert regress_main(["diff", "--store", hist]) == 1
    assert "determinism" in capsys.readouterr().out


def test_cli_errors_on_empty_inputs(tmp_path, capsys):
    hist = str(tmp_path / "none.jsonl")
    assert regress_main(["check", "--store", hist]) == 1
    assert "empty trajectory store" in capsys.readouterr().err
    assert regress_main(["diff", "--store", hist]) == 1
    assert regress_main(["record", "--cache-dir", str(tmp_path),
                         "--store", hist]) == 1
    assert "nothing to record" in capsys.readouterr().err
    # records exist but none at the checked commit / no paper points
    TrajectoryStore(hist).append(_history([1] * 2))
    assert regress_main(["check", "--store", hist]) == 1
    assert "no golden gate had inputs" in capsys.readouterr().err


def test_cli_check_json_and_fail_exit(tmp_path, capsys):
    hist = str(tmp_path / "t.jsonl")
    TrajectoryStore(hist).append(
        paper_records("c1", override={"FITS8": {"ipc": 0.5}}))
    assert regress_main(["check", "--store", hist, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    gates = {g["metric"]: g for g in payload["gates"]}
    assert gates["ipc_ratio_fits8"]["status"] == "fail"
    assert payload["commit"] == "c1"


# ----------------------------------------------------------------------
# trace export


def test_export_trace_from_live_stream(tmp_path):
    stream = str(tmp_path / "obs.jsonl")
    obs.enable(obs.JsonlSink(stream))
    with obs.span("stage.compile", isa="arm"):
        with obs.span("linker.link"):
            pass
    with obs.span("stage.simulate"):
        pass
    obs.emit({"kind": "manifest", "benchmark": "crc32", "manifest": {}})
    obs.disable()

    trace = export_trace(stream)
    assert validate_trace(trace)
    events = trace["traceEvents"]
    kinds = [e["ph"] for e in events]
    assert kinds.count("X") == 3 and kinds.count("i") == 1
    by_name = {e["name"]: e for e in events}
    outer = by_name["stage.compile"]
    inner = by_name["linker.link"]
    # the child nests inside its parent on the real timeline
    assert outer["ts"] <= inner["ts"]
    assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1e-3
    assert outer["args"]["isa"] == "arm"
    # JSON output parses back
    assert json.loads(json.dumps(trace))["traceEvents"]


def test_export_trace_legacy_events_without_ts(tmp_path):
    stream = str(tmp_path / "legacy.jsonl")
    with open(stream, "w") as fh:
        fh.write(json.dumps({"kind": "span", "name": "a", "seconds": 1.0,
                             "depth": 0}) + "\n")
        fh.write(json.dumps({"kind": "span", "name": "b", "seconds": 2.0,
                             "depth": 0}) + "\n")
        fh.write("garbage\n")
    trace = export_trace(stream)
    assert validate_trace(trace)
    a, b = trace["traceEvents"]
    assert a["ts"] == 0.0 and b["ts"] == pytest.approx(1e6)


def test_validate_trace_rejects_malformed():
    with pytest.raises(ValueError):
        validate_trace({"notTraceEvents": []})
    with pytest.raises(ValueError):
        validate_trace({"traceEvents": [{"ph": "X", "pid": 1, "ts": 0}]})
    with pytest.raises(ValueError):
        validate_trace({"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "ts": 0, "dur": -5}]})


def test_cli_export_trace(tmp_path, capsys):
    stream = str(tmp_path / "obs.jsonl")
    obs.enable(obs.JsonlSink(stream))
    with obs.span("stage.compile"):
        pass
    obs.disable()
    out = str(tmp_path / "trace.json")
    assert regress_main(["export-trace", "--jsonl", stream, "--out", out]) == 0
    with open(out) as fh:
        assert validate_trace(json.load(fh))
    # empty stream and missing file are clear non-zero failures
    empty = str(tmp_path / "empty.jsonl")
    open(empty, "w").close()
    assert regress_main(["export-trace", "--jsonl", empty]) == 1
    assert regress_main(["export-trace", "--jsonl",
                         str(tmp_path / "missing.jsonl")]) == 1


# ----------------------------------------------------------------------
# runner hook


def test_run_benchmark_record_trajectory_hook(tmp_path, monkeypatch):
    from repro.harness.runner import run_benchmark

    hist = str(tmp_path / "trajectory.jsonl")
    monkeypatch.setenv("REPRO_COMMIT", "hook-commit")
    run_benchmark("crc32", scale="small", record_trajectory=hist)
    records = TrajectoryStore(hist).records()
    assert len(records) == 4
    assert {r["label"] for r in records} == set(POINT_IDS)
    assert records[0]["commit"] == "hook-commit"
    assert records[0]["benchmark"] == "crc32"
    assert records[0]["metrics"]["icache_energy_j"] > 0
    assert records[0]["metrics"]["thumb_code_size"] > 0
    # the recorded metrics clear every golden gate
    rows = golden.check_golden(records, commit="hook-commit")
    assert "fail" not in {r["status"] for r in rows}
    # re-recording the same commit adds nothing
    run_benchmark("crc32", scale="small", record_trajectory=hist)
    assert len(TrajectoryStore(hist).records()) == 4


def test_collect_record_trajectory_hook(tmp_path, monkeypatch):
    from repro.harness.runner import collect

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_COMMIT", "collect-commit")
    hist = str(tmp_path / "trajectory.jsonl")
    collect(scale="small", names=["crc32"], record_trajectory=hist)
    records = TrajectoryStore(hist).records()
    assert len(records) == 4
    # cached re-collect records under a new commit without recompute
    monkeypatch.setenv("REPRO_COMMIT", "collect-commit-2")
    collect(scale="small", names=["crc32"], record_trajectory=hist)
    records = TrajectoryStore(hist).records()
    assert len(records) == 8
    assert detect(records) == []
