"""Metrics trajectory store and cross-commit regression detection.

PowerFITS's claims are quantitative — per-component I-cache power, miss
rate, IPC, code size vs. Thumb — so this module gives every run a
persistent, append-only record of those headline numbers and the tools
to interrogate them over time:

* :class:`TrajectoryStore` — a JSONL database
  (``bench_history/trajectory.jsonl`` by default) where each record is
  keyed by (git commit, benchmark, DesignPoint content-hash id, scale,
  source) and carries the full metric vector plus the per-stage
  wall-clock timings from the run manifest.  Appends go through the
  same same-directory-temp + ``os.replace`` discipline as
  :mod:`repro.dse.store`, so a Ctrl-C mid-record can never tear the
  history.
* :func:`detect` — a robust z-score (median/MAD) regression detector
  over each metric's commit history, with a configurable window and
  threshold.  It distinguishes **determinism breaks** (a simulated
  metric — instruction count, power, miss rate — changed *at all*
  between records) from **performance drift** (wall-clock beyond
  tolerance), because the former is a correctness alarm and the latter
  merely a build-speed one.
* the ``python -m repro.obs.regress record|check|diff|export-trace``
  CLI — ``record`` ingests harness bench-cache summaries and/or a DSE
  result store (the store → trajectory bridge), ``check`` runs the
  paper-golden gates from :mod:`repro.obs.golden`, ``diff`` runs the
  detector, and ``export-trace`` converts a ``REPRO_OBS=jsonl:`` span
  stream into Chrome trace-event JSON (:mod:`repro.obs.trace_export`).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

#: Bump when the trajectory record layout changes; stale records are
#: skipped with a warning rather than misread.
TRAJECTORY_SCHEMA = 1

#: Metrics that are *timing*, not simulation output: these may move
#: between runs of identical code and are judged by the drift detector,
#: never by the bit-identical determinism check.  Everything else in a
#: record's ``metrics`` dict — and the simulated ``seconds``, which is
#: cycles/frequency — must be bit-identical run over run.
TIMING_METRICS = ("wall_seconds",)


def default_store_path():
    """``<repo-root>/bench_history/trajectory.jsonl`` (or env override)."""
    override = os.environ.get("REPRO_TRAJECTORY")
    if override:
        return os.path.expanduser(override)
    from repro.harness.runner import _repo_root

    return os.path.join(_repo_root(), "bench_history", "trajectory.jsonl")


def current_commit():
    """The current git commit id, or ``"unknown"`` outside a checkout.

    ``REPRO_COMMIT`` overrides, which is what tests and CI gates use to
    fabricate multi-commit histories without touching git.
    """
    override = os.environ.get("REPRO_COMMIT")
    if override:
        return override
    from repro.harness.runner import _repo_root

    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_repo_root(),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


class TrajectoryStore:
    """Append-only JSONL store of per-(commit, benchmark, point) records.

    File order is history order.  Records are deduplicated on their
    identity key — appending a record whose (commit, benchmark,
    point_id, scale, source) is already present is a no-op — so an
    unchanged re-record never manufactures fake history.
    """

    def __init__(self, path=None):
        self.path = os.path.expanduser(path) if path else default_store_path()

    @staticmethod
    def key(record):
        return (record.get("commit"), record.get("benchmark"),
                record.get("point_id"), record.get("scale"),
                record.get("source"))

    def records(self):
        """Every valid record, in append (history) order."""
        out = []
        try:
            fh = open(self.path)
        except OSError:
            return out
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(record, dict):
                    continue
                if record.get("schema") != TRAJECTORY_SCHEMA:
                    print("warning: skipping trajectory record with schema "
                          "%r (want %d)" % (record.get("schema"),
                                            TRAJECTORY_SCHEMA),
                          file=sys.stderr)
                    continue
                out.append(record)
        return out

    def append(self, records):
        """Append new records atomically; returns (added, skipped).

        The whole file is rewritten through a same-directory temp file +
        ``os.replace`` — histories are small (one line per run per
        point) and this keeps every reader crash/Ctrl-C safe, exactly
        like the DSE result store's blobs.
        """
        existing_lines = []
        seen = set()
        try:
            with open(self.path) as fh:
                for line in fh:
                    if line.strip():
                        existing_lines.append(line.rstrip("\n"))
                        try:
                            seen.add(self.key(json.loads(line)))
                        except ValueError:
                            pass
        except OSError:
            pass

        added = skipped = 0
        for record in records:
            key = self.key(record)
            if key in seen:
                skipped += 1
                continue
            seen.add(key)
            existing_lines.append(json.dumps(record, sort_keys=True))
            added += 1
        if not added:
            return 0, skipped

        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix=".jsonl")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write("\n".join(existing_lines) + "\n")
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return added, skipped

    def __repr__(self):
        return "<TrajectoryStore %s>" % self.path


# ----------------------------------------------------------------------
# record construction (harness summaries and the DSE bridge)


def make_record(commit, benchmark, scale, point_id, label, metrics,
                stages=None, wall_seconds=None, source="harness"):
    """One trajectory record; ``metrics`` keys are the canonical names."""
    return {
        "schema": TRAJECTORY_SCHEMA,
        "commit": commit,
        "recorded_at": time.time(),
        "benchmark": benchmark,
        "scale": scale,
        "point_id": point_id,
        "label": label,
        "source": source,
        "metrics": dict(metrics),
        "stages": dict(stages or {}),
        "wall_seconds": wall_seconds,
    }


def records_from_summary(summary, commit):
    """Trajectory records for one harness benchmark summary.

    One record per paper configuration (ARM16/ARM8/FITS16/FITS8), each
    keyed by the configuration's DesignPoint content hash and carrying
    the per-config metric vector plus the benchmark-level code-size and
    mapping metrics (which the DSE path cannot supply).
    """
    from repro.dse.space import DesignPoint
    from repro.harness.runner import CONFIGS

    data = summary.data if hasattr(summary, "data") else summary
    manifest = data.get("manifest") or {}
    stages = {s: row.get("seconds", 0.0)
              for s, row in (manifest.get("stages") or {}).items()}
    records = []
    for label, isa, size in CONFIGS:
        config = data["configs"].get(label)
        if config is None:
            continue
        metrics = dict(config)
        # harness name → canonical (DSE) name
        metrics["icache_energy_j"] = metrics.pop("total_j", None)
        metrics["code_size"] = (data["arm_code_size"] if isa == "arm"
                                else data["fits_code_size"])
        metrics["arm_code_size"] = data["arm_code_size"]
        metrics["thumb_code_size"] = data["thumb_code_size"]
        metrics["fits_code_size"] = data["fits_code_size"]
        metrics["static_mapping"] = data["static_mapping"]
        metrics["dynamic_mapping"] = data["dynamic_mapping"]
        records.append(make_record(
            commit, data["name"], data.get("scale", "?"),
            DesignPoint(isa, size).point_id, label, metrics,
            stages=stages, wall_seconds=manifest.get("wall_seconds"),
            source="harness",
        ))
    return records


def records_from_cache(cache_dir, commit, scale=None, names=None):
    """Records for every valid cached summary under ``cache_dir``."""
    import glob

    records = []
    for path in sorted(glob.glob(os.path.join(cache_dir, "*.json"))):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        if "configs" not in data or "name" not in data:
            continue
        if scale and data.get("scale") != scale:
            continue
        if names and data["name"] not in names:
            continue
        records.extend(records_from_summary(data, commit))
    return records


def records_from_dse_store(store, commit, scale=None, names=None):
    """The DSE bridge: one trajectory record per swept result blob."""
    from repro.dse.store import ResultStore

    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    records = []
    for blob in store.iter_results():
        if scale and blob.get("scale") != scale:
            continue
        if names and blob.get("benchmark") not in names:
            continue
        manifest = blob.get("manifest") or {}
        point = blob.get("point") or {}
        records.append(make_record(
            commit, blob["benchmark"], blob.get("scale", "?"),
            point.get("id"), manifest.get("label") or point.get("id"),
            blob.get("metrics") or {},
            stages={s: row.get("seconds", 0.0)
                    for s, row in (manifest.get("stages") or {}).items()},
            wall_seconds=manifest.get("wall_seconds"),
            source="dse",
        ))
    return records


# ----------------------------------------------------------------------
# the regression detector


def median(values):
    s = sorted(values)
    n = len(s)
    if not n:
        raise ValueError("median of empty history")
    mid = n // 2
    if n % 2:
        return s[mid]
    return 0.5 * (s[mid - 1] + s[mid])


def mad(values, center=None):
    """Median absolute deviation (unscaled)."""
    if center is None:
        center = median(values)
    return median([abs(v - center) for v in values])


def robust_z(history, value):
    """Robust z-score of ``value`` against ``history`` (median/MAD).

    Uses the 1.4826 consistency constant so thresholds read like
    ordinary standard deviations on Gaussian noise.  A zero-MAD history
    (bit-identical samples) maps to z = 0 when the value matches the
    median and z = inf when it does not.
    """
    center = median(history)
    spread = 1.4826 * mad(history, center)
    if spread == 0.0:
        return 0.0 if value == center else float("inf")
    return (value - center) / spread


def _series(records):
    """Group records into {(benchmark, point_id, scale, source): [record...]}."""
    series = {}
    for record in records:
        key = (record.get("benchmark"), record.get("point_id"),
               record.get("scale"), record.get("source"))
        series.setdefault(key, []).append(record)
    return series


def _metric_vector(record):
    """Flat {name: value} of every numeric metric in one record."""
    out = {}
    for name, value in (record.get("metrics") or {}).items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = value
    for stage, seconds in (record.get("stages") or {}).items():
        out["stage.%s" % stage] = seconds
    if record.get("wall_seconds") is not None:
        out["wall_seconds"] = record["wall_seconds"]
    return out


def _is_timing(name):
    return name in TIMING_METRICS or name.startswith("stage.")


def detect(records, window=20, threshold=3.5, min_history=5,
           drift_rel_floor=0.10):
    """Find regressions in the newest record of every metric series.

    For each (benchmark, point, scale, source) series the latest record
    is judged against up to ``window`` predecessors:

    * **determinism**: any non-timing metric whose value differs *at
      all* from the immediately preceding record — simulation output
      must be bit-identical for identical code;
    * **drift**: a timing metric (wall-clock, per-stage seconds) whose
      robust z-score against the window exceeds ``threshold`` *and*
      whose relative excursion from the window median exceeds
      ``drift_rel_floor`` (tiny absolute jitter on a tiny MAD is not a
      regression).  Requires ``min_history`` prior samples.

    Returns a list of finding dicts, newest-series first, each with
    ``kind``, the series key fields, ``metric``, ``value``,
    ``baseline``, ``z`` and ``samples``.
    """
    findings = []
    for key, series in sorted(_series(records).items(),
                              key=lambda kv: str(kv[0])):
        if len(series) < 2:
            continue
        latest = series[-1]
        history = series[-(window + 1):-1]
        latest_metrics = _metric_vector(latest)
        prev_metrics = _metric_vector(history[-1])
        benchmark, point_id, scale, source = key

        def finding(kind, metric, value, baseline, z, samples):
            return {
                "kind": kind, "benchmark": benchmark, "point_id": point_id,
                "scale": scale, "source": source,
                "label": latest.get("label"), "commit": latest.get("commit"),
                "metric": metric, "value": value, "baseline": baseline,
                "z": z, "samples": samples,
            }

        for metric in sorted(latest_metrics):
            value = latest_metrics[metric]
            if _is_timing(metric):
                series_values = [m[metric] for m in
                                 (_metric_vector(r) for r in history)
                                 if metric in m]
                if len(series_values) < min_history:
                    continue
                center = median(series_values)
                z = robust_z(series_values, value)
                rel = abs(value - center) / abs(center) if center else float("inf")
                if abs(z) > threshold and rel > drift_rel_floor:
                    findings.append(finding(
                        "drift", metric, value, center, z,
                        len(series_values)))
            else:
                if metric not in prev_metrics:
                    continue
                prev = prev_metrics[metric]
                if value != prev:
                    values = [m[metric] for m in
                              (_metric_vector(r) for r in history)
                              if metric in m]
                    z = robust_z(values, value) if values else float("inf")
                    findings.append(finding(
                        "determinism", metric, value, prev, z, len(values)))
    return findings


# ----------------------------------------------------------------------
# CLI


def _fmt_value(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def cmd_record(args):
    store = TrajectoryStore(args.store)
    commit = args.commit or current_commit()
    names = set(args.names) if args.names else None
    records = []
    if args.from_dse:
        records.extend(records_from_dse_store(
            os.path.expanduser(args.from_dse), commit,
            scale=args.scale, names=names))
    else:
        cache_dir = args.cache_dir
        if not cache_dir:
            from repro.harness.runner import _cache_dir

            cache_dir = _cache_dir()
        records.extend(records_from_cache(
            os.path.expanduser(cache_dir), commit,
            scale=args.scale, names=names))
    if not records:
        print("error: nothing to record (no cached summaries / DSE results "
              "matched — run a benchmark or a sweep first)", file=sys.stderr)
        return 1
    added, skipped = store.append(records)
    print("recorded %d new trajectory record(s) at commit %s "
          "(%d duplicate(s) skipped) -> %s"
          % (added, commit[:12], skipped, store.path))
    return 0


def cmd_check(args):
    from repro.obs import golden

    store = TrajectoryStore(args.store)
    records = store.records()
    if not records:
        print("error: empty trajectory store %s (run "
              "`python -m repro.obs.regress record` first)" % store.path,
              file=sys.stderr)
        return 1
    commit = args.commit or records[-1].get("commit")
    rows = golden.check_golden(records, commit=commit)
    if args.json:
        print(json.dumps({"commit": commit, "gates": rows},
                         indent=2, sort_keys=True))
    else:
        print(golden.render_check(rows, commit))
    evaluated = [r for r in rows if r["status"] != "skip"]
    failed = [r for r in rows if r["status"] == "fail"]
    if not evaluated:
        print("error: no golden gate had inputs at commit %s" % commit[:12],
              file=sys.stderr)
        return 1
    return 1 if failed else 0


def cmd_diff(args):
    store = TrajectoryStore(args.store)
    records = store.records()
    if not records:
        print("error: empty trajectory store %s (run "
              "`python -m repro.obs.regress record` first)" % store.path,
              file=sys.stderr)
        return 1
    findings = detect(records, window=args.window, threshold=args.threshold,
                      min_history=args.min_history)
    if args.json:
        print(json.dumps({"findings": findings}, indent=2, sort_keys=True))
        return 1 if findings else 0
    n_series = len(_series(records))
    if not findings:
        print("diff: 0 regressions across %d series (%d records) in %s"
              % (n_series, len(records), store.path))
        return 0
    print("diff: %d regression(s) across %d series:"
          % (len(findings), n_series))
    for f in findings:
        print("  %-12s %s %s [%s] %s: %s -> %s (z=%s, n=%d)"
              % (f["kind"], f["benchmark"], f["label"] or f["point_id"],
                 f["scale"], f["metric"], _fmt_value(f["baseline"]),
                 _fmt_value(f["value"]), _fmt_value(f["z"]), f["samples"]))
    return 1


def cmd_export_trace(args):
    from repro.obs.trace_export import export_trace

    try:
        trace = export_trace(args.jsonl)
    except OSError as exc:
        print("error: cannot read %s (%s)" % (args.jsonl, exc),
              file=sys.stderr)
        return 1
    if not trace["traceEvents"]:
        print("error: no span events in %s (was the run started with "
              "REPRO_OBS=jsonl:<path>?)" % args.jsonl, file=sys.stderr)
        return 1
    payload = json.dumps(trace, sort_keys=True)
    if args.out:
        parent = os.path.dirname(os.path.abspath(args.out))
        os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(payload)
        print("wrote %d trace events -> %s (load in chrome://tracing or "
              "https://ui.perfetto.dev)" % (len(trace["traceEvents"]), args.out))
    else:
        print(payload)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="Metrics trajectory store, paper-golden gates, and "
        "cross-commit regression detection (schema v%d)." % TRAJECTORY_SCHEMA,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "record", help="append current metrics to the trajectory store")
    p.add_argument("names", nargs="*", help="benchmark names to include")
    p.add_argument("--store", default=None,
                   help="trajectory JSONL path (default: REPRO_TRAJECTORY or "
                   "<repo>/bench_history/trajectory.jsonl)")
    p.add_argument("--cache-dir", default=None,
                   help="harness bench cache to ingest (default: "
                   "REPRO_CACHE_DIR or <repo>/.bench_cache)")
    p.add_argument("--from-dse", default=None, metavar="STORE",
                   help="ingest a DSE result store instead of the bench cache")
    p.add_argument("--scale", default=None, help="only this scale")
    p.add_argument("--commit", default=None,
                   help="commit id to record under (default: git HEAD, or "
                   "REPRO_COMMIT)")
    p.set_defaults(func=cmd_record)

    p = sub.add_parser(
        "check", help="check the latest records against the paper goldens")
    p.add_argument("--store", default=None, help="trajectory JSONL path")
    p.add_argument("--commit", default=None,
                   help="check records of this commit (default: last recorded)")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "diff", help="robust z-score regression scan over the history")
    p.add_argument("--store", default=None, help="trajectory JSONL path")
    p.add_argument("--window", type=int, default=20,
                   help="history window per series (default 20)")
    p.add_argument("--threshold", type=float, default=3.5,
                   help="|robust z| above this flags drift (default 3.5)")
    p.add_argument("--min-history", type=int, default=5,
                   help="min samples before drift is judged (default 5)")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "export-trace",
        help="convert a REPRO_OBS=jsonl stream to Chrome trace-event JSON")
    p.add_argument("--jsonl", required=True,
                   help="span stream written via REPRO_OBS=jsonl:<path>")
    p.add_argument("--out", default=None,
                   help="output .json path (default: stdout)")
    p.set_defaults(func=cmd_export_trace)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
