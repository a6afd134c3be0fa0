"""Metrics registry tests: histograms, merge, exposition, plumbing.

The histogram properties are the load-bearing guarantees: every value
lands in the bucket its index formula promises, merging is *exact* on
bucket counts (so cross-process aggregation loses nothing), and every
quantile estimate is within one bucket width (``BASE`` ~ +19%) of the
exact sample quantile.  The exposition tests round-trip
``render_openmetrics`` through ``validate_openmetrics`` and check that
the validator actually rejects malformed documents.
"""

import io
import json
import math
import os
import random
import re

import pytest

from repro import obs
from repro.obs import metrics
from repro.obs.core import BASE, Histogram, JsonlSink


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    metrics.set_snapshot_dir(None)
    yield
    obs.disable()
    obs.reset()
    metrics.set_snapshot_dir(None)


# ----------------------------------------------------------------------
# histogram properties


def test_bucket_index_invariant():
    """v > 0 lands in bucket i with BASE**(i-1) < v <= BASE**i."""
    rng = random.Random(7)
    for _ in range(2000):
        v = 10.0 ** rng.uniform(-7, 3)
        h = Histogram()
        h.observe(v)
        (idx,) = h.buckets
        assert v <= BASE ** idx * (1 + 1e-12)
        assert v > BASE ** (idx - 1) * (1 - 1e-12)


def test_bucket_boundaries_exact_powers():
    # exact powers of BASE must land in their own bucket, not the next
    for i in (-40, -3, 0, 1, 17):
        h = Histogram()
        h.observe(BASE ** i)
        assert list(h.buckets) == [i]


def test_zero_and_negative_share_zero_bucket():
    h = Histogram()
    h.observe(0.0)
    h.observe(-1.5)
    assert h.zero == 2 and not h.buckets
    assert h.count == 2
    assert h.min == -1.5 and h.max == 0.0


def test_quantile_error_bound_random():
    """estimate e of quantile q satisfies exact <= e <= exact * BASE."""
    rng = random.Random(42)
    for trial in range(20):
        samples = [10.0 ** rng.uniform(-6, 2) for _ in range(rng.randint(1, 500))]
        h = Histogram()
        for v in samples:
            h.observe(v)
        ordered = sorted(samples)
        for q in (50, 95, 99):
            rank = max(1, int(math.ceil(q / 100.0 * len(ordered))))
            exact = ordered[rank - 1]
            est = h.quantile(q)
            assert exact * (1 - 1e-9) <= est, (trial, q, exact, est)
            assert est <= exact * BASE * (1 + 1e-9), (trial, q, exact, est)


def test_quantile_empty_and_zero_heavy():
    assert Histogram().quantile(50) == 0.0
    h = Histogram()
    for _ in range(99):
        h.observe(0.0)
    h.observe(5.0)
    assert h.quantile(50) <= 0.0         # median inside the zero bucket
    assert h.quantile(99.9) >= 5.0 / BASE


def test_merge_equals_single_pass():
    """Merging split histograms == one histogram over all samples
    (bucket counts exactly; sum up to float-addition order)."""
    rng = random.Random(3)
    samples = [10.0 ** rng.uniform(-5, 1) for _ in range(400)]
    samples += [0.0, -2.0]
    whole = Histogram()
    for v in samples:
        whole.observe(v)
    parts = [Histogram() for _ in range(5)]
    for i, v in enumerate(samples):
        parts[i % 5].observe(v)
    merged = Histogram()
    for part in parts:
        merged.merge(part.to_dict())     # dict form, as cross-process merge
    assert merged.buckets == whole.buckets
    assert merged.count == whole.count
    assert merged.zero == whole.zero
    assert merged.min == whole.min and merged.max == whole.max
    assert abs(merged.sum - whole.sum) <= 1e-9 * abs(whole.sum)
    for q in (50, 95, 99):
        assert merged.quantile(q) == whole.quantile(q)


def test_dict_roundtrip_and_base_mismatch():
    h = Histogram()
    for v in (0.001, 0.5, 0.0, 3.0):
        h.observe(v)
    again = Histogram.from_dict(json.loads(json.dumps(h.to_dict())))
    assert again.to_dict() == h.to_dict()
    bad = h.to_dict()
    bad["base"] = 2.0
    with pytest.raises(ValueError):
        Histogram.from_dict(bad)


def test_summarize_fields():
    h = Histogram()
    for v in (1.0, 2.0, 3.0, 4.0):
        h.observe(v)
    row = metrics.summarize(h.to_dict())
    assert row["count"] == 4
    assert row["sum"] == 10.0
    assert row["mean"] == 2.5
    assert row["min"] == 1.0 and row["max"] == 4.0
    assert 2.0 * (1 - 1e-9) <= row["p50"] <= 2.0 * BASE
    assert 4.0 * (1 - 1e-9) <= row["p99"] <= 4.0  # clamped to observed max


# ----------------------------------------------------------------------
# histogram rows: one formatter, the unit from the family name


def _unit_histograms():
    secs, runs = Histogram(), Histogram()
    for v in (0.002, 0.004, 1.5):
        secs.observe(v)
    for v in (1700, 1800):
        runs.observe(v)
    return {"dse.point.seconds": secs.to_dict(),
            "timing.runs_per_simulation": runs.to_dict()}


def _cells(text, family):
    """The ``stat=value`` cells of ``family``'s row in a rendered view."""
    (line,) = [l for l in text.splitlines() if l.split()[:1] == [family]]
    return dict(cell.split("=", 1) for cell in line.split()[1:])


def _assert_units(text):
    seconds = _cells(text, "dse.point.seconds")
    plain = _cells(text, "timing.runs_per_simulation")
    assert seconds["n"] == "3" and plain["n"] == "2"
    assert seconds["p50"].endswith("ms") and seconds["max"] == "1.50s"
    for stat, value in seconds.items():
        assert stat == "n" or re.fullmatch(r"\d+\.\d+(ms|s)", value), value
    for stat, value in plain.items():
        assert re.fullmatch(r"\d+(\.\d+)?", value), value
    assert plain["max"] == "1800"


def test_histogram_rows_pick_the_unit_from_the_name(tmp_path):
    from repro.dse.progress import DashRenderer
    from repro.obs.report import render_metrics_section

    hists = _unit_histograms()
    report = render_metrics_section({"procs": ["a"], "histograms": hists})
    _assert_units(report)
    assert "sum=" in report

    dash = DashRenderer(str(tmp_path), total=1, stream=io.StringIO())
    frame = dash.render_frame(dash.snapshot([]), {"histograms": hists})
    _assert_units("\n".join(frame))


# ----------------------------------------------------------------------
# registry gating + timers


def test_observe_noop_when_disabled():
    obs.observe("x.seconds", 1.0)
    assert not obs.histograms()
    obs.enable(sink=None)
    obs.observe("x.seconds", 1.0)
    assert obs.histograms()["x.seconds"].count == 1


def test_timer_records_only_when_enabled():
    with obs.timer("t.seconds"):
        pass
    assert not obs.histograms()
    assert obs.timer("t.seconds") is obs.span("t")  # the no-op singleton
    obs.enable(sink=None)
    with obs.timer("t.seconds"):
        pass
    h = obs.histograms()["t.seconds"]
    assert h.count == 1 and h.min >= 0.0


def test_reset_clears_histograms():
    obs.enable(sink=None)
    obs.observe("x.seconds", 1.0)
    obs.reset()
    assert not obs.histograms()


# ----------------------------------------------------------------------
# snapshots, spec ride-along, flush/merge


def test_snapshot_after_apply_spec_holds_only_the_workers_own():
    obs.enable(sink=None)
    obs.counter("inherited", 10)
    obs.gauge("queue.depth", 3)
    obs.observe("a.seconds", 0.5)
    with obs.span("s"):
        pass
    spec = obs.export_spec()
    # simulate the forked child: inherited aggregates must not re-count
    obs.apply_spec(spec)
    obs.counter("inherited", 3)
    obs.counter("fresh", 2)
    obs.gauge("queue.depth", 4)
    snap = obs.snapshot()
    assert snap["counters"] == {"inherited": 3, "fresh": 2}
    assert snap["gauges"] == {}           # workers omit gauges
    assert snap["histograms"] == {} and snap["spans"] == {}
    # windows still see the worker's own gauges, as manifests did
    assert obs.since(obs.mark())["gauges"] == {"queue.depth": 4}


def test_flush_writes_exactly_the_snapshot(tmp_path):
    obs.enable(sink=None)
    metrics.set_snapshot_dir(str(tmp_path))
    obs.counter("hits", 4)
    obs.gauge("queue.depth", 2)
    obs.observe("a.seconds", 0.5)
    obs.observe("timing.runs_per_simulation", 1722)
    with obs.span("s"):
        pass
    written = metrics.flush()
    on_disk = json.loads((tmp_path / ("m%d.json" % os.getpid())).read_text())
    assert on_disk == written == obs.snapshot()
    assert set(on_disk) == {"schema", "proc", "pid", "counters", "gauges",
                            "histograms", "spans"}


def test_spec_rides_in_core_export_spec(tmp_path):
    obs.enable(sink=None)
    metrics.set_snapshot_dir(str(tmp_path / "snaps"))
    spec = obs.export_spec()
    assert spec["metrics"]["dir"] == metrics.snapshot_dir()
    metrics.set_snapshot_dir(None)
    obs.apply_spec(spec)
    assert metrics.snapshot_dir() == spec["metrics"]["dir"]


def test_flush_merge_roundtrip(tmp_path):
    obs.enable(sink=None)
    metrics.set_snapshot_dir(str(tmp_path))
    obs.observe("a.seconds", 0.5)
    obs.counter("hits", 4)
    assert metrics.flush() is not None
    # a "second process": fresh window, different pid file is simulated
    # by rewriting the snapshot under another name
    snap2 = obs.snapshot()
    snap2["proc"] = "fake-2"
    snap2["pid"] = 999999
    with open(tmp_path / "m999999.json", "w") as fh:
        json.dump(snap2, fh)
    merged = metrics.merged_snapshot()
    # live process + fake second process; this process's own flushed
    # file is skipped (the live registry already holds its contents)
    assert merged["counters"]["hits"] == 8
    assert Histogram.from_dict(merged["histograms"]["a.seconds"]).count == 2


def test_fold_jsonl_takes_last_snapshot_per_proc(tmp_path):
    stream = tmp_path / "run.jsonl"
    obs.enable(sink=JsonlSink(str(stream)))
    obs.observe("a.seconds", 0.5)
    metrics.flush()
    obs.observe("a.seconds", 0.25)
    metrics.flush()                       # supersedes the first snapshot
    obs.disable()
    folded = metrics.fold_jsonl(str(stream))
    assert Histogram.from_dict(folded["histograms"]["a.seconds"]).count == 2


# ----------------------------------------------------------------------
# OpenMetrics exposition


def _sample_snapshot():
    obs.enable(sink=None)
    for v in (0.001, 0.004, 0.009, 0.12, 0.0):
        obs.observe("serve.request.seconds", v)
    obs.counter("serve.cache.hit", 7)
    obs.counter("serve.cache.miss", 3)
    obs.gauge("queue.depth", 2)
    return metrics.merged_snapshot()


def test_render_validate_roundtrip():
    text = metrics.render_openmetrics(_sample_snapshot())
    families = metrics.validate_openmetrics(text)
    assert families["serve_cache_hit"]["type"] == "counter"
    assert families["serve_cache_hit"]["samples"][0][2] == 7.0
    hist = families["serve_request_seconds"]
    assert hist["type"] == "histogram"
    les = [s[1]["le"] for s in hist["samples"]
           if s[0] == "serve_request_seconds_bucket"]
    assert les[0] == "0.0" and les[-1] == "+Inf"
    counts = [s[2] for s in hist["samples"]
              if s[0] == "serve_request_seconds_count"]
    assert counts == [5.0]


def test_validator_rejects_malformed():
    good = metrics.render_openmetrics(_sample_snapshot())
    with pytest.raises(ValueError, match="EOF"):
        metrics.validate_openmetrics(good.replace("# EOF\n", ""))
    with pytest.raises(ValueError, match="no preceding # TYPE"):
        metrics.validate_openmetrics("orphan_total 1\n# EOF\n")
    with pytest.raises(ValueError, match="not cumulative"):
        metrics.validate_openmetrics(
            "# TYPE h histogram\n# HELP h h\n"
            'h_bucket{le="1.0"} 5\nh_bucket{le="2.0"} 3\n'
            'h_bucket{le="+Inf"} 5\nh_count 5\nh_sum 1.0\n# EOF\n')
    with pytest.raises(ValueError, match="\\+Inf bucket != _count"):
        metrics.validate_openmetrics(
            "# TYPE h histogram\n# HELP h h\n"
            'h_bucket{le="+Inf"} 5\nh_count 4\nh_sum 1.0\n# EOF\n')
    with pytest.raises(ValueError, match="non-negative"):
        metrics.validate_openmetrics(
            "# TYPE c counter\n# HELP c c\nc_total -1\n# EOF\n")


def test_metric_name_mangling():
    assert metrics.metric_name("serve.request.seconds") == "serve_request_seconds"
    assert metrics.metric_name("9lives") == "_9lives"
    assert metrics._NAME_OK.match(metrics.metric_name("a-b/c d"))


# ----------------------------------------------------------------------
# CLI


def test_export_cli_dir_and_validate(tmp_path, capsys):
    obs.enable(sink=None)
    metrics.set_snapshot_dir(str(tmp_path / "snaps"))
    obs.observe("dse.point.seconds", 0.2)
    obs.counter("trace_store.hit", 2)
    metrics.flush()
    obs.disable()

    assert metrics.main(["export", "--dir", str(tmp_path / "snaps")]) == 0
    text = capsys.readouterr().out
    metrics.validate_openmetrics(text)

    exp = tmp_path / "exp.txt"
    exp.write_text(text)
    assert metrics.main(["validate", str(exp)]) == 0
    exp.write_text(text.replace("# EOF\n", ""))
    assert metrics.main(["validate", str(exp)]) == 1


def test_export_cli_jsonl_json_mode(tmp_path, capsys):
    stream = tmp_path / "run.jsonl"
    obs.enable(sink=JsonlSink(str(stream)))
    obs.observe("a.seconds", 0.5)
    metrics.flush()
    obs.disable()
    assert metrics.main(["export", "--jsonl", str(stream), "--json"]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["histograms"]["a.seconds"]["count"] == 1


def test_export_cli_requires_a_source():
    with pytest.raises(SystemExit):
        metrics.main(["export"])
