"""Cross-process metrics: merge, flush, and OpenMetrics exposition.

The registry itself — counters, gauges and log-bucketed histograms — is
:mod:`repro.obs.core`, and its one snapshot format is
``obs.snapshot()``.  This module carries those snapshots across
processes and renders them:

* :func:`set_snapshot_dir` names a directory for per-process snapshot
  files.  It rides in ``obs.export_spec()`` under ``"metrics"``, so DSE
  and serve pool workers inherit it; a worker applying the spec starts
  a fresh registry window (``obs.apply_spec``), so its snapshots hold
  only what it did and merging never double-counts fork-inherited
  totals.
* :func:`flush` writes ``obs.snapshot()`` atomically to ``m<pid>.json``
  in that directory and/or emits it as a ``{"kind": "metrics"}`` event
  on the active sink.  Pool workers flush after every task.
* :func:`merge` folds many snapshots into one coordinator-side view:
  counters add, histograms merge bucket-wise (exactly), gauges are
  last-writer.  :func:`merged_snapshot` is that view over the snapshot
  directory plus this process; :func:`fold_jsonl` over a JSONL stream.

Exposition: :func:`render_openmetrics` renders a merged snapshot as
OpenMetrics text (``# TYPE``/``# HELP``, ``_total`` counters,
``_bucket{le=...}``/``_count``/``_sum`` histograms, ``# EOF``), and
:func:`validate_openmetrics` parses it back with format checks — used
by tests, ``scripts/verify.sh`` and the ``validate`` subcommand.
:func:`summary_lines` is the one text table of histogram rows that
``repro.serve status``/``dash``, ``repro.dse sweep --dash`` and
``repro.obs.report --metrics`` print.

CLI::

    python -m repro.obs.metrics export --jsonl run.jsonl        # OpenMetrics
    python -m repro.obs.metrics export --dir .serve/metrics --json
    python -m repro.obs.metrics validate exposition.txt
"""

import argparse
import json
import os
import re
import sys

from repro.obs import core
from repro.obs.core import BASE, Histogram

#: Help strings for well-known metric families (exposition ``# HELP``).
_HELP = {
    "serve.request.seconds": "serve connection handling latency per op",
    "serve.point.seconds": "seconds from job start to each point result",
    "serve.job.seconds": "job run time from start to finish",
    "serve.job.wait_seconds": "job queue wait from submit to start",
    "serve.cache.lookup_seconds": "global result cache lookup latency",
    "dse.task.seconds": ("scheduler task wall time (a sweep task is one "
                         "(benchmark, ISA) unit, a collect task one "
                         "benchmark)"),
    "dse.point.seconds": "single design-point evaluation wall time",
    "trace_store.load_seconds": "persistent trace store read latency",
    "trace_store.save_seconds": "persistent trace store encode+write latency",
    "profile.energy.fetch_joules": "dynamic I-cache fetch energy by run",
}


def help_for(name):
    return _HELP.get(name) or ("metric %s" % name)


def summarize(hist):
    """count/sum/mean/min/max/p50/p95/p99 row from a Histogram or dict."""
    if isinstance(hist, dict):
        hist = Histogram.from_dict(hist)
    return {
        "count": hist.count,
        "sum": hist.sum,
        "mean": hist.mean,
        "min": hist.min if hist.min is not None else 0.0,
        "max": hist.max if hist.max is not None else 0.0,
        "p50": hist.quantile(50),
        "p95": hist.quantile(95),
        "p99": hist.quantile(99),
    }


def format_value(name, value):
    """One histogram cell in its family's unit: a ``...seconds`` family
    in s or ms, any other family (counts, joules) as a plain number."""
    if value is None:
        return "-"
    if name.endswith("seconds"):
        if value >= 1.0:
            return "%.2fs" % value
        return "%.3fms" % (value * 1e3)
    return "%.6g" % value


def summary_lines(rows, stats=("p50", "p95", "p99", "max")):
    """Aligned ``name n=... stat=value ...`` lines, one per family with
    samples in ``{name: summarize(...) row}``, sorted by name."""
    rows = {name: row for name, row in rows.items() if row.get("count")}
    if not rows:
        return []
    width = max(len(name) for name in rows) + 1
    return [("%-*s n=%-6d " % (width, name, rows[name]["count"]) + " ".join(
        "%s=%-9s" % (stat, format_value(name, rows[name].get(stat)))
        for stat in stats)).rstrip()
        for name in sorted(rows)]


def merge(snapshots):
    """Fold snapshots into one view: counters add, histograms merge."""
    counters, gauges, hists, procs = {}, {}, {}, []
    for snap in snapshots:
        if not snap:
            continue
        if snap.get("proc"):
            procs.append(snap["proc"])
        for name, value in (snap.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        gauges.update(snap.get("gauges") or {})
        for name, data in (snap.get("histograms") or {}).items():
            h = hists.get(name)
            if h is None:
                hists[name] = Histogram.from_dict(data)
            else:
                h.merge(data)
    return {
        "schema": core.SCHEMA_VERSION,
        "procs": procs,
        "counters": counters,
        "gauges": gauges,
        "histograms": {n: h.to_dict() for n, h in sorted(hists.items())},
    }


# ----------------------------------------------------------------------
# cross-process plumbing: snapshot dir, flush

_snapshot_dir = None


def set_snapshot_dir(path):
    """Directory where per-process snapshot files are flushed (or None)."""
    global _snapshot_dir
    if path is not None:
        path = os.path.abspath(os.path.expanduser(path))
        os.makedirs(path, exist_ok=True)
    _snapshot_dir = path


def snapshot_dir():
    return _snapshot_dir


def flush():
    """Persist ``obs.snapshot()`` (dir file and/or JSONL event).

    Returns the snapshot written, or None when there was nowhere to
    write it (no snapshot dir and no event sink) or obs is disabled.
    """
    if not core.enabled:
        return None
    snap = core.snapshot()
    wrote = False
    if _snapshot_dir is not None:
        path = os.path.join(_snapshot_dir, "m%d.json" % os.getpid())
        tmp = "%s.%d.tmp" % (path, os.getpid())
        try:
            with open(tmp, "w") as fh:
                # one write: json.dump writes chunk by chunk, twice as slow
                fh.write(json.dumps(snap, sort_keys=True))
            os.replace(tmp, path)
            wrote = True
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
    if core.sink() is not None:
        core.emit({"kind": "metrics", "pid": snap["pid"], "snapshot": snap})
        wrote = True
    return snap if wrote else None


def read_snapshot_dir(path):
    """All per-process snapshots flushed under ``path`` (missing dir ok)."""
    snaps = []
    try:
        names = sorted(os.listdir(path))
    except OSError:
        return snaps
    for name in names:
        if not (name.startswith("m") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(path, name)) as fh:
                snaps.append(json.load(fh))
        except (OSError, ValueError):
            continue  # torn write or concurrent replace; skip
    return snaps


def merged_snapshot():
    """Coordinator view: every flushed worker snapshot + this process.

    A snapshot file this same process incarnation flushed earlier is
    skipped (matched on the proc token) — the live registry already
    contains everything in it.
    """
    snaps = []
    if _snapshot_dir is not None:
        own = core.proc_token()
        snaps.extend(s for s in read_snapshot_dir(_snapshot_dir)
                     if s.get("proc") != own)
    snaps.append(core.snapshot())
    return merge(snaps)


def fold_jsonl(path):
    """Merge the last ``metrics`` event per process from a JSONL stream."""
    from repro.obs.report import _iter_jsonl_events

    last = {}
    for event in _iter_jsonl_events(path):
        if event.get("kind") != "metrics":
            continue
        snap = event.get("snapshot") or {}
        key = snap.get("proc") or "pid%s" % event.get("pid")
        last[key] = snap
    return merge(last[k] for k in sorted(last))


# ----------------------------------------------------------------------
# OpenMetrics exposition

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def metric_name(name):
    """Mangle a dotted repro metric name into an OpenMetrics name."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not out or not re.match(r"[a-zA-Z_:]", out[0]):
        out = "_" + out
    return out


def _fmt(value):
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return "+Inf" if value > 0 else ("-Inf" if value < 0 else "NaN")
        return repr(value)
    return str(value)


def render_openmetrics(snapshot):
    """OpenMetrics text exposition of a (merged or local) snapshot."""
    lines = []
    seen = set()

    def family(raw, kind):
        name = metric_name(raw)
        if name in seen:
            return None  # two raw names mangled to one family; keep first
        seen.add(name)
        lines.append("# TYPE %s %s" % (name, kind))
        lines.append("# HELP %s %s" % (name, help_for(raw)))
        return name

    for raw in sorted(snapshot.get("counters") or {}):
        name = family(raw, "counter")
        if name is not None:
            lines.append("%s_total %s" % (name, _fmt(snapshot["counters"][raw])))
    for raw in sorted(snapshot.get("gauges") or {}):
        value = snapshot["gauges"][raw]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        name = family(raw, "gauge")
        if name is not None:
            lines.append("%s %s" % (name, _fmt(value)))
    for raw in sorted(snapshot.get("histograms") or {}):
        hist = Histogram.from_dict(snapshot["histograms"][raw])
        name = family(raw, "histogram")
        if name is None:
            continue
        cum = 0
        if hist.zero:
            cum += hist.zero
            lines.append('%s_bucket{le="0.0"} %d' % (name, cum))
        for idx in sorted(hist.buckets):
            cum += hist.buckets[idx]
            lines.append('%s_bucket{le="%s"} %d' % (name, repr(BASE ** idx), cum))
        lines.append('%s_bucket{le="+Inf"} %d' % (name, hist.count))
        lines.append("%s_count %d" % (name, hist.count))
        lines.append("%s_sum %s" % (name, _fmt(hist.sum)))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^{}]*)\})? (\S+)$")
_SUFFIXES = ("_total", "_bucket", "_count", "_sum")


def validate_openmetrics(text):
    """Parse + check an exposition; returns ``{family: info}`` dicts.

    Checks: terminal ``# EOF``; every sample belongs to a family with a
    prior ``# TYPE``; counters are single non-negative ``_total``
    samples; histogram buckets are cumulative non-decreasing with a
    ``+Inf`` bucket equal to ``_count`` and a ``_sum`` sample.  Raises
    ``ValueError`` on the first violation.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families = {}

    def family_of(sample_name):
        if sample_name in families:
            return sample_name
        for suffix in _SUFFIXES:
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if base in families:
                    return base
        raise ValueError("sample %r has no preceding # TYPE" % sample_name)

    for lineno, line in enumerate(lines[:-1], 1):
        if not line:
            raise ValueError("blank line %d not allowed" % lineno)
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError("malformed TYPE line %d: %r" % (lineno, line))
            _, _, name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "unknown", "info", "stateset"):
                raise ValueError("unknown metric type %r" % kind)
            if name in families:
                raise ValueError("duplicate TYPE for %r" % name)
            if not _NAME_OK.match(name):
                raise ValueError("invalid metric name %r" % name)
            families[name] = {"type": kind, "help": None, "samples": []}
        elif line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ValueError("malformed HELP line %d: %r" % (lineno, line))
            name = parts[2]
            if name not in families:
                raise ValueError("HELP before TYPE for %r" % name)
            families[name]["help"] = parts[3]
        elif line.startswith("#"):
            raise ValueError("unexpected comment line %d: %r" % (lineno, line))
        else:
            match = _SAMPLE_RE.match(line)
            if not match:
                raise ValueError("malformed sample line %d: %r" % (lineno, line))
            name, labels_raw, value_raw = match.groups()
            try:
                value = float(value_raw)
            except ValueError:
                raise ValueError("non-numeric sample value on line %d" % lineno)
            labels = {}
            if labels_raw:
                for part in labels_raw.split(","):
                    key, _, val = part.partition("=")
                    labels[key.strip()] = val.strip().strip('"')
            families[family_of(name)]["samples"].append((name, labels, value))

    for name, info in families.items():
        samples = info["samples"]
        if info["type"] == "counter":
            if (len(samples) != 1 or samples[0][0] != name + "_total"
                    or samples[0][2] < 0):
                raise ValueError(
                    "counter %s needs one non-negative %s_total sample"
                    % (name, name))
        elif info["type"] == "histogram":
            buckets = [(s[1].get("le"), s[2]) for s in samples
                       if s[0] == name + "_bucket"]
            counts = [s[2] for s in samples if s[0] == name + "_count"]
            sums = [s[2] for s in samples if s[0] == name + "_sum"]
            if not buckets or len(counts) != 1 or len(sums) != 1:
                raise ValueError(
                    "histogram %s needs buckets + _count + _sum" % name)
            if buckets[-1][0] != "+Inf":
                raise ValueError("histogram %s missing terminal +Inf bucket"
                                 % name)
            cum = [b[1] for b in buckets]
            if any(b > a for a, b in zip(cum[1:], cum)):
                raise ValueError("histogram %s buckets not cumulative" % name)
            les = [b[0] for b in buckets[:-1]]
            if les != sorted(les, key=float) or len(set(les)) != len(les):
                raise ValueError("histogram %s le values not increasing" % name)
            if cum[-1] != counts[0]:
                raise ValueError("histogram %s +Inf bucket != _count" % name)
    return families


# ----------------------------------------------------------------------
# CLI


def _load_merged(args):
    sources = 0
    merged = None
    if getattr(args, "jsonl", None):
        merged = fold_jsonl(args.jsonl)
        sources += 1
    if getattr(args, "dir", None):
        snaps = read_snapshot_dir(args.dir)
        folded = merge(snaps)
        merged = folded if merged is None else merge([merged, folded])
        sources += 1
    if not sources:
        raise SystemExit("need --jsonl PATH and/or --dir PATH")
    return merged


def cmd_export(args):
    merged = _load_merged(args)
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        sys.stdout.write(render_openmetrics(merged))
    return 0


def cmd_validate(args):
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file) as fh:
            text = fh.read()
    try:
        families = validate_openmetrics(text)
    except ValueError as exc:
        print("INVALID: %s" % exc, file=sys.stderr)
        return 1
    counts = {}
    for info in families.values():
        counts[info["type"]] = counts.get(info["type"], 0) + 1
    print("ok: %d families (%s)" % (
        len(families),
        ", ".join("%d %s" % (n, k) for k, n in sorted(counts.items()))))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.metrics",
        description="Merge per-process metric snapshots and render or "
        "validate OpenMetrics text exposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("export", help="merge snapshots -> OpenMetrics text")
    p.add_argument("--jsonl", default=None,
                   help="JSONL obs stream (folds kind=metrics events)")
    p.add_argument("--dir", default=None,
                   help="snapshot directory written by metrics.flush()")
    p.add_argument("--json", action="store_true",
                   help="emit the merged snapshot as JSON instead of "
                   "OpenMetrics text")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("validate", help="check an OpenMetrics exposition")
    p.add_argument("file", help="exposition text file, or - for stdin")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
