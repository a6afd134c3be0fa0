"""Command-line interface: ``python -m repro.serve <command>``.

Examples::

    # start the service (foreground; SIGTERM/SIGINT shut it down)
    python -m repro.serve serve --socket /tmp/serve.sock --jobs 2

    # submit a sweep and stream its per-point results
    python -m repro.serve submit --socket /tmp/serve.sock \
        --preset smoke --benchmarks crc32,sha --scale small --watch

    # a second, overlapping sweep is served from the global cache
    python -m repro.serve submit --socket /tmp/serve.sock \
        --preset smoke --benchmarks crc32,sha --scale small --watch

    # follow a running job (resumes after reconnects), server health
    python -m repro.serve watch jdeadbeef --socket /tmp/serve.sock
    python -m repro.serve status --socket /tmp/serve.sock

    # Pareto frontier over one job's streamed results
    python -m repro.serve frontier --job jdeadbeef --socket /tmp/serve.sock

    # live terminal dashboard / OpenMetrics scrape
    python -m repro.serve dash --socket /tmp/serve.sock
    python -m repro.serve metrics --socket /tmp/serve.sock
"""

import argparse
import asyncio
import json
import sys
import time

from repro.dse import pareto, space as space_mod
from repro.dse.cli import _build_space, _parse_benchmarks
from repro.serve.client import ServeClient, ServeError, wait_until_up
from repro.serve.server import ServeServer, default_socket_path


def _add_socket(parser):
    parser.add_argument("--socket", default=None, metavar="ADDR",
                        help="server address: a unix socket path, "
                        "unix:<path>, or tcp:<host>:<port> "
                        "(default: <repo>/.serve/serve.sock)")


def _client(args):
    return ServeClient(args.socket or default_socket_path())


def _add_space_args(parser):
    parser.add_argument("--preset", default="smoke",
                        choices=list(space_mod.PRESETS),
                        help="named design space (default: smoke)")
    parser.add_argument("--isas", help="grid axis: comma list from arm,thumb,fits")
    parser.add_argument("--sizes", help="grid axis: I-cache sizes in bytes")
    parser.add_argument("--assocs", help="grid axis: associativities")
    parser.add_argument("--blocks", help="grid axis: block sizes in bytes")
    parser.add_argument("--techs", help="grid axis: tech nodes")
    parser.add_argument("--fetch-bits", help="grid axis: fetch widths in bits")
    parser.add_argument("--benchmarks", default="crc32,sha",
                        help="comma list of benchmarks, or 'all'")
    parser.add_argument("--scale", default="small", choices=("small", "full"))


def cmd_serve(args):
    server = ServeServer(
        address=args.socket or default_socket_path(),
        cache_root=args.cache,
        state_dir=args.state,
        worker_jobs=args.jobs,
        max_pending=args.max_pending,
        max_running=args.max_running,
        timeout_per_point=args.timeout,
        retries=args.retries,
        record_trajectory=args.record_trajectory,
        trajectory_path=args.history,
    )
    print("repro.serve: listening on %s (workers=%d, cache=%s)"
          % (server.address, server.worker_jobs, server.cache.root),
          file=sys.stderr)
    asyncio.run(server.serve_forever())
    print("repro.serve: shut down cleanly (%d jobs served)"
          % server.stats["jobs_submitted"], file=sys.stderr)
    return 0


def _fmt_event(event):
    if event.get("type") == "point":
        how = ("cached" if event.get("cached")
               else "coalesced" if event.get("coalesced") else "computed")
        if "error" in event:
            return "point %d/%d %s %s FAILED: %s" % (
                event["done"], event["total"], event["benchmark"],
                event["label"], event["error"])
        return "point %d/%d %s %s %s (energy %.4g J)" % (
            event["done"], event["total"], event["benchmark"],
            event["label"], how, event["metrics"]["icache_energy_j"])
    return "job %s: %s" % (event.get("job"), event.get("status"))


def _stream(client, job_id, after_seq, as_json):
    end = None
    for event in client.watch(job_id, after_seq=after_seq):
        if as_json:
            print(json.dumps(event, sort_keys=True))
        else:
            print(_fmt_event(event))
        sys.stdout.flush()
        if event.get("type") == "end":
            end = event
    if end is None:
        return 1
    summary = end["summary"]
    if not as_json:
        print("job %s %s: %d points (%d cached, %d coalesced, %d computed, "
              "%d failed)" % (summary["id"], summary["status"],
                              summary["emitted"], summary["cache_hits"],
                              summary["coalesced"], summary["computed"],
                              summary["failed_points"]), file=sys.stderr)
    return 0 if summary["status"] == "done" else 1


def cmd_submit(args):
    space = _build_space(args)
    if not len(space):
        raise SystemExit("design space is empty (every combination invalid?)")
    benchmarks = _parse_benchmarks(args.benchmarks)
    client = _client(args)
    try:
        job = client.submit(space.to_dict(), benchmarks, scale=args.scale)
    except ServeError as exc:
        print("submit refused: %s" % exc, file=sys.stderr)
        return 75 if exc.retry else 1   # EX_TEMPFAIL on backpressure
    if args.json and not args.watch:
        print(json.dumps(job, indent=2, sort_keys=True))
    else:
        print("submitted job %s: %d benchmarks x %d points = %d pairs"
              % (job["id"], len(benchmarks), len(space), job["total"]),
              file=sys.stderr)
        if not args.watch:
            print(job["id"])
    if args.watch:
        return _stream(client, job["id"], 0, args.json)
    return 0


def cmd_watch(args):
    return _stream(_client(args), args.job, args.after_seq, args.json)


def cmd_status(args):
    client = _client(args)
    if args.cancel:
        job = client.cancel(args.cancel)
        print(json.dumps(job, indent=2, sort_keys=True))
        return 0
    if args.shutdown:
        reply = client.shutdown()
        if not args.json:
            print("server shutting down (served %d jobs)"
                  % reply["server"]["stats"]["jobs_submitted"])
        else:
            print(json.dumps(reply["server"], indent=2, sort_keys=True))
        return 0
    if args.wait_up:
        reply = wait_until_up(client.address, timeout=args.wait_up)
    else:
        reply = client.status(args.job)
    if args.json:
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    server = reply["server"]
    cache = server["cache"]
    print("server pid %d on %s, up %.1fs" % (
        server["pid"], server["address"], server["uptime"]))
    jobs_text = ", ".join("%s %d" % (s, n)
                          for s, n in server["jobs"].items() if n)
    print("  jobs: " + (jobs_text or "none"))
    print("  queue depth %d/%d, %d points in flight" % (
        server["queue_depth"], server["max_pending"],
        server["inflight_points"]))
    ratio = cache["hit_ratio"]
    print("  cache: %d hits / %d misses (%s), %d entries at %s" % (
        cache["hits"], cache["misses"],
        "%.1f%% hit" % (100 * ratio) if ratio is not None else "no lookups",
        cache["entries"], cache["root"]))
    keys = server.get("inflight_keys") or []
    if keys:
        shown = ", ".join(k[:12] for k in keys[:6])
        more = " (+%d more)" % (len(keys) - 6) if len(keys) > 6 else ""
        print("  inflight keys: %s%s" % (shown, more))
    for line in _metric_lines(server.get("metrics") or {}):
        print("  " + line)
    if reply.get("job"):
        print(json.dumps(reply["job"], indent=2, sort_keys=True))
    return 0


def _fmt_secs(value):
    if value is None:
        return "-"
    if value >= 1.0:
        return "%.2fs" % value
    return "%.1fms" % (value * 1e3)


def _metric_lines(rows):
    """Histogram summary rows -> aligned text lines."""
    lines = []
    for name in sorted(rows):
        row = rows[name]
        if not row.get("count"):
            continue
        lines.append(
            "%-28s n=%-6d p50=%-8s p95=%-8s p99=%-8s max=%s" % (
                name, row["count"], _fmt_secs(row.get("p50")),
                _fmt_secs(row.get("p95")), _fmt_secs(row.get("p99")),
                _fmt_secs(row.get("max"))))
    return lines


def cmd_metrics(args):
    reply = _client(args).metrics()
    if args.json:
        print(json.dumps(reply["snapshot"], indent=2, sort_keys=True))
    else:
        sys.stdout.write(reply["text"])
    return 0


def _dash_frame(server, snapshot, prev, now):
    from repro.obs import metrics as metrics_mod

    cache = server["cache"]
    stats = server["stats"]
    lines = []
    lines.append("repro.serve dash — pid %d on %s, up %.1fs" % (
        server["pid"], server["address"], server["uptime"]))
    jobs_text = ", ".join("%s %d" % (s, n)
                          for s, n in server["jobs"].items() if n) or "none"
    lines.append("jobs: %s | queue %d/%d | %d points in flight" % (
        jobs_text, server["queue_depth"], server["max_pending"],
        server["inflight_points"]))
    ratio = cache["hit_ratio"]
    lines.append("cache: %d hits / %d misses (%s), %d entries" % (
        cache["hits"], cache["misses"],
        "%.1f%% hit" % (100 * ratio) if ratio is not None else "no lookups",
        cache["entries"]))
    served = stats["points_computed"] + stats["cache_hits"] + stats["coalesced"]
    rate = served / server["uptime"] if server["uptime"] > 0 else 0.0
    window = ""
    if prev is not None and now > prev[0]:
        window = ", %.1f pts/s now" % ((served - prev[1]) / (now - prev[0]))
    lines.append("throughput: %d points served (%.1f pts/s lifetime%s)"
                 % (served, rate, window))
    pool = server.get("pool")
    if pool and pool.get("workers"):
        cells = ["w%d %s %d%% (%d tasks)" % (
            w["pid"], "busy" if w["busy"] else "idle",
            int(round(100 * w["utilization"])), w["tasks"])
            for w in pool["workers"]]
        lines.append("workers: %s | %d tasks total" % (
            " | ".join(cells), pool["tasks_done"]))
    keys = server.get("inflight_keys") or []
    if keys:
        shown = ", ".join(k[:12] for k in keys[:4])
        more = " (+%d more)" % (len(keys) - 4) if len(keys) > 4 else ""
        lines.append("computing: %s%s" % (shown, more))
    hists = (snapshot.get("histograms") or {})
    rows = {name: metrics_mod.summarize(data)
            for name, data in hists.items()}
    metric_lines = _metric_lines(rows)
    if metric_lines:
        lines.append("latency:")
        lines.extend("  " + line for line in metric_lines)
    return lines, (now, served)


def cmd_dash(args):
    client = _client(args)
    prev = None
    while True:
        reply = client.status()
        met = client.metrics()
        lines, prev = _dash_frame(reply["server"], met["snapshot"],
                                  prev, time.time())
        if args.once or not sys.stdout.isatty():
            print("\n".join(lines))
        else:
            sys.stdout.write("\x1b[2J\x1b[H" + "\n".join(lines) + "\n")
        sys.stdout.flush()
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_frontier(args):
    from repro.dse.cli import _frontier_table

    client = _client(args)
    results = client.results(args.job)
    if not results:
        print("job %s has no completed results yet" % args.job,
              file=sys.stderr)
        return 1
    objectives = pareto.parse_objectives(args.objectives)
    report = pareto.frontier_report(results, objectives)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    obj_text = ", ".join("%s:%s" % (d, k) for k, d in objectives)
    print("objectives: %s" % obj_text)
    print()
    agg = report["aggregate"]
    print("aggregate frontier (%d points, folded over %d benchmark(s)):"
          % (len(agg), agg[0]["benchmarks"] if agg else 0))
    print(_frontier_table(
        agg, objectives, lambda row: row["metrics"],
        tag_of=lambda row: space_mod.DesignPoint.from_dict(row["point"]).label))
    for bench, rows in report["per_benchmark"].items():
        print()
        print("%s frontier (%d points):" % (bench, len(rows)))
        print(_frontier_table(
            rows, objectives, lambda row: row["metrics"],
            tag_of=lambda row: space_mod.DesignPoint.from_dict(row["point"]).label))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Sharded design-space sweep service: submit sweeps to a "
        "long-running server that dedupes overlapping work through a global "
        "content-addressed result cache and streams per-point results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the sweep server (foreground)")
    _add_socket(p)
    p.add_argument("--cache", default=None,
                   help="global result-cache directory "
                   "(default: <repo>/.serve/cache)")
    p.add_argument("--state", default=None,
                   help="server state directory (worker metric snapshots; "
                   "default: <repo>/.serve/state)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per compute batch (default: 1)")
    p.add_argument("--max-pending", type=int, default=8,
                   help="bounded job queue: reject submits beyond this many "
                   "queued+running jobs (default: 8)")
    p.add_argument("--max-running", type=int, default=2,
                   help="jobs allowed past the queue at once (default: 2)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point evaluation timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="retries per failed/timed-out worker task (default: 1)")
    p.add_argument("--record-trajectory", action="store_true",
                   help="append each completed job's computed points to the "
                   "metrics trajectory store")
    p.add_argument("--history", default=None,
                   help="trajectory store path (with --record-trajectory)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a sweep job")
    _add_socket(p)
    _add_space_args(p)
    p.add_argument("--watch", action="store_true",
                   help="stay connected and stream the job's results")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (NDJSON events with --watch)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("watch", help="stream a job's per-point results")
    _add_socket(p)
    p.add_argument("job", help="job id (from submit)")
    p.add_argument("--after-seq", type=int, default=0,
                   help="resume after this event sequence number")
    p.add_argument("--json", action="store_true", help="NDJSON event output")
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser("status", help="server / job status")
    _add_socket(p)
    p.add_argument("--job", default=None, help="include this job's summary")
    p.add_argument("--cancel", default=None, metavar="JOB",
                   help="cancel a queued/running job")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to shut down cleanly")
    p.add_argument("--wait-up", type=float, default=None, metavar="SECS",
                   help="poll until the server answers (readiness gate)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("frontier", help="Pareto frontier over a job's results")
    _add_socket(p)
    p.add_argument("--job", required=True, help="job id")
    p.add_argument("--objectives", default=None,
                   help="comma list of min:<metric>/max:<metric>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("metrics", help="scrape the server's metrics op "
                       "(OpenMetrics text, or --json snapshot)")
    _add_socket(p)
    p.add_argument("--json", action="store_true",
                   help="merged snapshot JSON instead of OpenMetrics text")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("dash", help="live terminal dashboard (queue, cache, "
                       "throughput, latency percentiles)")
    _add_socket(p)
    p.add_argument("--interval", type=float, default=2.0,
                   help="refresh interval in seconds (default: 2)")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (no screen clearing)")
    p.set_defaults(func=cmd_dash)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ConnectionError, FileNotFoundError) as exc:
        print("error: cannot reach server (%s) — is `python -m repro.serve "
              "serve` running?" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
