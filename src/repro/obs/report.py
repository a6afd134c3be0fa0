"""Observability report CLI over cached run manifests.

Run::

    python -m repro.obs.report [--scale SCALE] [--cache-dir DIR]
                               [--counters N] [benchmark ...]

Reads the run manifests embedded in ``.bench_cache/*.json`` summaries
(written by :mod:`repro.harness.runner`) and prints, without
recomputing anything:

* per-benchmark wall-clock and per-stage timing rows for the five
  pipeline stages (compile / profile / synthesize / translate /
  simulate),
* an aggregate per-stage table with a slowest-stage ranking,
* the top counters (instructions simulated, cache hits/misses/fills,
  translation 1-to-1 vs 1-to-n, register spills, ...).

With ``--jsonl PATH`` it instead summarizes a span/event stream written
via ``REPRO_OBS=jsonl:<path>``, folding in the rotated ``<path>.1``
generation kept by ``REPRO_OBS_MAX_BYTES`` rotation (add
``--top-spans N`` for a latency table with p50/p95/p99 columns per
span name, or ``--metrics`` for the histogram families carried by
``kind=metrics`` snapshot events — count/sum/p50/p95/p99 per metric,
merged exactly across processes); with ``--dse STORE`` it
renders the per-(benchmark, design point) stage timings embedded in a
design-space exploration result store (``python -m repro.dse sweep``).
"""

import argparse
import glob
import json
import os
import sys

from repro.obs.core import SCHEMA_VERSION, STAGES


def _fmt_seconds(seconds):
    if seconds >= 1.0:
        return "%8.2f s " % seconds
    return "%8.2f ms" % (seconds * 1e3)


def _counter_family(name):
    """Grouping key for one counter: its first dotted segment, or the
    first two for ``cache.*`` (``cache.icache`` vs ``cache.stack`` are
    different subsystems) and ``sim.engine.*`` (the block-compiled
    execution engine's codegen/fallback counters, distinct from the
    per-trace ``sim.*`` volume counters)."""
    parts = name.split(".")
    if parts[0] == "cache" and len(parts) > 2:
        return ".".join(parts[:2])
    if parts[0] == "sim" and len(parts) > 2 and parts[1] == "engine":
        return "sim.engine"
    return parts[0]


def _render_counters(counters, top_counters=24):
    """The counter section: a by-value top-N ranking plus a per-family
    roll-up, so low-volume families (``cache.stack.*``,
    ``trace_store.*``) are never silently dropped by the ranking cut."""
    lines = ["top counters:"]
    ranked = sorted(counters.items(), key=lambda kv: kv[1],
                    reverse=True)[:top_counters]
    for key, value in ranked:
        lines.append("  %-36s %16s" % (key, "{:,}".format(value)))
    shown = {key for key, _value in ranked}
    families = {}
    for key, value in counters.items():
        families.setdefault(_counter_family(key), []).append((key, value))
    lines.append("")
    lines.append("counter families:")
    for family in sorted(families):
        entries = families[family]
        total = sum(value for _key, value in entries)
        hidden = sum(1 for key, _value in entries if key not in shown)
        note = ", %d below top-%d cut" % (hidden, top_counters) if hidden else ""
        lines.append("  %-20s %16s  (%d counters%s)"
                     % (family, "{:,}".format(total), len(entries), note))
    return lines


def _load_manifests(cache_dir, scale, names):
    """(name → manifest) for every cached summary matching the filters."""
    manifests = {}
    for path in sorted(glob.glob(os.path.join(cache_dir, "*.json"))):
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        manifest = data.get("manifest")
        if not manifest:
            continue
        name = manifest.get("benchmark", data.get("name"))
        if scale and manifest.get("scale") != scale:
            continue
        if names and name not in names:
            continue
        manifests[name] = manifest
    return manifests


def fold_manifests(manifests):
    """Per-stage totals, summed counters and total wall clock over the
    run manifests ``{row label: manifest}``.

    ``stages`` maps every pipeline stage to ``[span count, seconds]``.
    """
    stages = {s: [0, 0.0] for s in STAGES}
    counters = {}
    wall = 0.0
    for m in manifests.values():
        wall += m.get("wall_seconds", 0.0)
        for stage, entry in (m.get("stages") or {}).items():
            if stage in stages:
                stages[stage][0] += entry.get("count", 0)
                stages[stage][1] += entry["seconds"]
        for key, value in (m.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
    return {"stages": stages, "counters": counters, "wall_seconds": wall}


def render_manifests(manifests, top_counters=24, label="benchmark"):
    """The stage table over ``{row label: manifest}`` (one row each,
    sorted by label), then per-stage totals and the counter section."""
    width = max([14, len(label) + 1] + [len(k) + 1 for k in manifests])
    header = "%-*s %6s %11s " % (width, label, "scale", "wall")
    header += " ".join("%11s" % s for s in STAGES)
    lines = [header, "-" * len(header)]
    for name in sorted(manifests):
        m = manifests[name]
        stages = m.get("stages") or {}
        row = "%-*s %6s %11s " % (
            width, name, m.get("scale", "?"),
            _fmt_seconds(m.get("wall_seconds", 0.0)))
        lines.append(row + " ".join(
            "%11s" % (_fmt_seconds(stages[stage]["seconds"]).strip()
                      if stage in stages else "-")
            for stage in STAGES))

    folded = fold_manifests(manifests)
    lines.append("")
    lines.append("per-stage totals (slowest first):")
    ranked = sorted(folded["stages"].items(), key=lambda kv: kv[1][1],
                    reverse=True)
    total_s = sum(v[1] for _s, v in ranked) or 1.0
    for stage, (count, seconds) in ranked:
        lines.append(
            "  %-11s %12s  %5.1f %%  (%d spans)"
            % (stage, _fmt_seconds(seconds).strip(), 100.0 * seconds / total_s, count)
        )
    if folded["counters"]:
        lines.append("")
        lines.extend(_render_counters(folded["counters"], top_counters))
    return "\n".join(lines)


def render_dse(store_root, top_counters=24):
    """Per-point stage-timing table over a DSE result store.

    Reads the per-point manifests embedded in a
    :class:`repro.dse.store.ResultStore` (written by
    ``python -m repro.dse sweep``) and renders one row per
    (benchmark, design point) alongside the same per-stage totals and
    counter ranking the per-benchmark view prints.  Points that reused
    a worker's memoized compile/profile work show only the stages they
    actually ran (typically ``simulate``).
    """
    from repro.dse.store import ResultStore

    store = ResultStore(store_root)
    rows = {}
    for blob in store.iter_results():
        manifest = blob.get("manifest") or {}
        label = manifest.get("label") or blob["point"]["id"]
        key = "%s %s" % (blob["benchmark"], label)
        rows[key] = manifest

    if not rows:
        return None

    lines = []
    for record in store.failures():
        lines.append("warning: skipping failed point %s %s: %s" % (
            record.get("benchmark"), record.get("point_id"),
            record.get("error")))
    if lines:
        lines.append("")
    lines.append(render_manifests(rows, top_counters,
                                  label="benchmark/point"))
    return "\n".join(lines)


def _percentile(ordered, q):
    """Linear-interpolated percentile of an ascending-sorted list."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * (q / 100.0)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def _jsonl_generations(path):
    """One logical stream's files, oldest first.

    A stream capped by ``REPRO_OBS_MAX_BYTES`` rotates its past into
    ``<path>.1`` (a single kept generation) and keeps writing ``<path>``;
    reports must fold both back together or every summary silently
    loses whatever happened before the rotation point.
    """
    rotated = path + ".1"
    if os.path.exists(rotated):
        return [rotated, path]
    return [path]


def _iter_jsonl_events(path):
    """Parsed events across every generation of a JSONL stream.

    The live file must be readable (its OSError propagates — callers
    turn it into the usual "run with REPRO_OBS=jsonl:" hint); a rotated
    generation that disappears mid-read (a concurrent run rotating
    again) is skipped rather than failing the report.
    """
    for gen in _jsonl_generations(path):
        try:
            fh = open(gen)
        except OSError:
            if gen == path:
                raise
            continue
        with fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue


def span_durations(path):
    """Per-span-name duration samples from a JSONL event stream
    (rotated generation included)."""
    durations = {}
    for event in _iter_jsonl_events(path):
        if event.get("kind") == "span":
            durations.setdefault(event.get("name", "?"), []).append(
                float(event.get("seconds", 0.0)))
    return durations


def render_top_spans(path, limit=10):
    """Top-N span table with p50/p95/p99 duration columns; None if empty.

    Needs per-span samples, so it reads a ``REPRO_OBS=jsonl:<path>``
    stream — cached manifests only keep per-stage aggregates.
    """
    durations = span_durations(path)
    if not durations:
        return None
    rows = sorted(durations.items(), key=lambda kv: sum(kv[1]), reverse=True)
    width = max(28, max(len(name) for name, _d in rows[:limit]) + 2)
    lines = ["top %d spans in %s (by total time):" % (limit, path),
             "%-*s %7s %12s %12s %12s %12s %12s" % (
                 width, "span", "n", "total", "p50", "p95", "p99", "max")]
    lines.append("-" * len(lines[-1]))
    for name, samples in rows[:limit]:
        samples = sorted(samples)
        lines.append("%-*s %7d %12s %12s %12s %12s %12s" % (
            width, name, len(samples),
            _fmt_seconds(sum(samples)).strip(),
            _fmt_seconds(_percentile(samples, 50)).strip(),
            _fmt_seconds(_percentile(samples, 95)).strip(),
            _fmt_seconds(_percentile(samples, 99)).strip(),
            _fmt_seconds(samples[-1]).strip()))
    if len(rows) > limit:
        lines.append("  ... %d more span names" % (len(rows) - limit))
    return "\n".join(lines)


def render_metrics_section(snapshot):
    """Histogram-family rows from a merged metrics snapshot; None when
    the snapshot carries no histograms.

    One row per metric family with count/sum/p50/p95/p99/max in the
    family's unit — the quantiles come from the merged log-bucketed
    histograms, so they are exact bucket-upper-bound estimates across
    any number of process snapshots.
    """
    from repro.obs import metrics as metrics_mod

    hists = snapshot.get("histograms") or {}
    if not hists:
        return None
    procs = len(snapshot.get("procs") or ())
    lines = ["metric histograms (%d process snapshot%s merged):"
             % (procs, "" if procs == 1 else "s")]
    lines.extend(metrics_mod.summary_lines(
        {name: metrics_mod.summarize(data) for name, data in hists.items()},
        stats=("sum", "p50", "p95", "p99", "max")))
    return "\n".join(lines)


def render_jsonl(path, top_counters=24):
    """Summarize a JSONL event stream (rotated generation included);
    None when empty/span-free."""
    spans = {}
    manifests = {}
    for event in _iter_jsonl_events(path):
        kind = event.get("kind")
        if kind == "span":
            agg = spans.setdefault(event["name"], [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += event.get("seconds", 0.0)
            if event.get("seconds", 0.0) > agg[2]:
                agg[2] = event["seconds"]
        elif kind == "manifest":
            manifests[event.get("benchmark", "?")] = event.get("manifest", {})
    if not spans and not manifests:
        return None
    generations = _jsonl_generations(path)
    source = path if len(generations) == 1 else "%s (+%s)" % (
        path, generations[0])
    lines = ["spans in %s (by total time):" % source]
    for name, (count, seconds, max_s) in sorted(
        spans.items(), key=lambda kv: kv[1][1], reverse=True
    ):
        lines.append(
            "  %-28s %12s  n=%-7d max %s"
            % (name, _fmt_seconds(seconds).strip(), count, _fmt_seconds(max_s).strip())
        )
    if manifests:
        lines.append("")
        lines.append(render_manifests(manifests, top_counters=top_counters))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Per-benchmark and per-stage observability report "
        "(schema v%d) over cached run manifests." % SCHEMA_VERSION,
    )
    parser.add_argument("names", nargs="*", help="benchmark names to include")
    parser.add_argument("--scale", default=None, help="only this scale")
    parser.add_argument("--cache-dir", default=None,
                        help="summary cache dir (default: REPRO_CACHE_DIR "
                        "or <repo>/.bench_cache)")
    parser.add_argument("--jsonl", default=None,
                        help="summarize a REPRO_OBS=jsonl:<path> event "
                        "stream instead of cached manifests")
    parser.add_argument("--dse", default=None, metavar="STORE",
                        help="render per-point stage timings from a DSE "
                        "result store (python -m repro.dse sweep) instead "
                        "of cached benchmark manifests")
    parser.add_argument("--counters", type=int, default=24,
                        help="how many counters to print (default 24)")
    parser.add_argument("--top-spans", type=int, default=None, metavar="N",
                        help="with --jsonl: rank the N hottest span names "
                        "with p50/p95/p99 duration columns")
    parser.add_argument("--metrics", action="store_true",
                        help="with --jsonl: append the metric-histogram "
                        "section (count/sum/p50/p95/p99 per family) folded "
                        "from kind=metrics snapshot events")
    args = parser.parse_args(argv)

    if args.top_spans is not None and not args.jsonl:
        print("error: --top-spans needs --jsonl PATH (per-span duration "
              "samples only exist in REPRO_OBS=jsonl:<path> streams; "
              "cached manifests keep aggregates only)", file=sys.stderr)
        return 2
    if args.metrics and not args.jsonl:
        print("error: --metrics needs --jsonl PATH (metric snapshots are "
              "kind=metrics events in REPRO_OBS=jsonl:<path> streams)",
              file=sys.stderr)
        return 2

    if args.jsonl:
        try:
            if args.top_spans is not None:
                text = render_top_spans(args.jsonl, limit=args.top_spans)
            else:
                text = render_jsonl(args.jsonl, top_counters=args.counters)
            metrics_text = None
            if args.metrics:
                from repro.obs import metrics as metrics_mod

                metrics_text = render_metrics_section(
                    metrics_mod.fold_jsonl(args.jsonl))
        except OSError as exc:
            print("error: cannot read event stream %s (%s) — run with "
                  "REPRO_OBS=jsonl:<path> first" % (args.jsonl, exc),
                  file=sys.stderr)
            return 1
        if metrics_text is not None:
            text = metrics_text if text is None else text + "\n\n" + metrics_text
        if text is None:
            print("error: no span or manifest events in %s (was the run "
                  "started with REPRO_OBS=jsonl:<path>?)" % args.jsonl,
                  file=sys.stderr)
            return 1
        print(text)
        return 0

    if args.dse:
        store_root = os.path.expanduser(args.dse)
        text = render_dse(store_root, top_counters=args.counters)
        if text is None:
            print("error: no DSE results under %s (run "
                  "`python -m repro.dse sweep` first)" % store_root,
                  file=sys.stderr)
            return 1
        print(text)
        return 0

    if args.cache_dir:
        cache_dir = os.path.expanduser(args.cache_dir)
    else:
        from repro.harness.runner import _cache_dir

        cache_dir = _cache_dir()
    manifests = _load_manifests(cache_dir, args.scale, set(args.names))
    if not manifests:
        print("error: no cached run manifests under %s (run a benchmark "
              "first, e.g. python -m repro.harness.report small)" % cache_dir,
              file=sys.stderr)
        return 1
    print(render_manifests(manifests, top_counters=args.counters))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; silence the shutdown flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
