"""Command-line interface: ``python -m repro.dse sweep|frontier|report|gc``.

Examples::

    # sweep the paper's four configurations over two benchmarks
    python -m repro.dse sweep --preset smoke --benchmarks crc32,sha \
        --scale small --jobs 4 --store /tmp/dse

    # a second run over the same store evaluates zero points
    python -m repro.dse sweep --preset smoke --benchmarks crc32,sha \
        --scale small --jobs 4 --store /tmp/dse

    # Pareto frontiers (energy down, IPC up, code size down)
    python -m repro.dse frontier --store /tmp/dse
    python -m repro.dse frontier --store /tmp/dse --json

    # sweep status + per-point stage timings
    python -m repro.dse report --store /tmp/dse
"""

import argparse
import json
import os
import sys

from repro.dse import pareto, space as space_mod
from repro.dse.scheduler import sweep as run_sweep
from repro.dse.space import DesignSpace, PAPER_LABELS, PRESETS
from repro.dse.store import ResultStore
from repro.workloads import CODE_SIZE_BENCHMARKS


def _default_store(space_name, scale):
    from repro.harness.runner import _repo_root

    return os.path.join(_repo_root(), ".dse", "%s-%s" % (space_name, scale))


def _parse_benchmarks(spec):
    if spec.strip() == "all":
        return list(CODE_SIZE_BENCHMARKS)
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names if n not in CODE_SIZE_BENCHMARKS]
    if unknown:
        raise SystemExit("unknown benchmark(s): %s" % ", ".join(unknown))
    if not names:
        raise SystemExit("empty benchmark list")
    return names


def _ints(spec):
    return tuple(int(x) for x in spec.split(",") if x.strip())


def _build_space(args):
    custom = (args.isas or args.sizes or args.assocs or args.blocks
              or args.techs or args.fetch_bits)
    if not custom:
        return space_mod.preset(args.preset)
    return DesignSpace.grid(
        name="grid",
        isas=tuple(args.isas.split(",")) if args.isas else ("arm", "fits"),
        sizes=_ints(args.sizes) if args.sizes else (8192, 16384),
        assocs=_ints(args.assocs) if args.assocs else (32,),
        blocks=_ints(args.blocks) if args.blocks else (32,),
        techs=tuple(args.techs.split(",")) if args.techs else ("350nm",),
        fetch_bits=_ints(args.fetch_bits) if args.fetch_bits else (32,),
    )


def cmd_sweep(args):
    space = _build_space(args)
    if not len(space):
        raise SystemExit("design space is empty (every combination invalid?)")
    benchmarks = _parse_benchmarks(args.benchmarks)
    store_root = args.store or _default_store(space.name, args.scale)
    summary = run_sweep(
        space, benchmarks, scale=args.scale, jobs=args.jobs,
        store=store_root, timeout_per_point=args.timeout, retries=args.retries,
        verbose=args.verbose, progress=args.progress, dash=args.dash,
    )
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print("sweep %s: %d benchmarks x %d points = %d pairs" % (
            space.name, len(benchmarks), len(space), summary["total"]))
        print("  store:     %s" % summary["store"])
        print("  evaluated: %d" % summary["evaluated"])
        print("  skipped:   %d (already in store)" % summary["skipped"])
        print("  failed:    %d" % len(summary["failed"]))
        print("  tasks:     %d (%d retried), %.1fs wall at --jobs %d" % (
            summary["tasks"], summary["task_retries"],
            summary["wall_seconds"], args.jobs))
        for record in summary["failures"]:
            print("  FAILED %s %s: %s" % (
                record.get("benchmark"), record.get("point_id"),
                record.get("error")), file=sys.stderr)
    return 1 if summary["failed"] else 0


def _fmt_metric(key, value):
    if isinstance(value, float):
        return "%.6g" % value
    return "{:,}".format(value)


def _frontier_table(rows, objectives, metrics_of, tag_of):
    keys = [key for key, _d in objectives]
    header = "%-26s %-14s" % ("point", "paper")
    header += "".join(" %14s" % ("%s:%s" % (d, k))[:14] for k, d in objectives)
    lines = [header, "-" * len(header)]
    for row in rows:
        point = row["point"]
        metrics = metrics_of(row)
        label = PAPER_LABELS.get(point["id"], "")
        lines.append(
            "%-26s %-14s" % (tag_of(row), label)
            + "".join(" %14s" % _fmt_metric(k, metrics[k]) for k in keys)
        )
    return "\n".join(lines)


def cmd_frontier(args):
    store = ResultStore(args.store)
    results = list(store.iter_results())
    if args.benchmark:
        results = [r for r in results if r["benchmark"] == args.benchmark]
    if not results:
        print("no results in %s (run `python -m repro.dse sweep` first)"
              % store.root, file=sys.stderr)
        return 1
    objectives = pareto.parse_objectives(args.objectives)
    report = pareto.frontier_report(results, objectives)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    def metrics_of(row):
        return row["metrics"]

    obj_text = ", ".join("%s:%s" % (d, k) for k, d in objectives)
    print("objectives: %s" % obj_text)
    print()
    agg = report["aggregate"]
    print("aggregate frontier (%d points, folded over %d benchmark(s)):"
          % (len(agg), agg[0]["benchmarks"] if agg else 0))
    print(_frontier_table(
        agg, objectives, metrics_of,
        tag_of=lambda row: space_mod.DesignPoint.from_dict(row["point"]).label))
    for bench, rows in report["per_benchmark"].items():
        print()
        print("%s frontier (%d points):" % (bench, len(rows)))
        print(_frontier_table(
            rows, objectives, metrics_of,
            tag_of=lambda row: space_mod.DesignPoint.from_dict(row["point"]).label))
    return 0


def cmd_report(args):
    from repro.obs.report import render_dse

    store = ResultStore(args.store)
    meta = store.read_space()
    results = list(store.iter_results())
    failures = store.failures()
    if meta:
        print("space %s: %d points, benchmarks: %s, scale %s" % (
            meta.get("name"), len(meta.get("points", ())),
            ", ".join(meta.get("benchmarks", ())), meta.get("scale")))
    print("results: %d completed, %d failed" % (len(results), len(failures)))
    for record in failures:
        print("  FAILED %s %s: %s" % (
            record.get("benchmark"), record.get("point_id"),
            record.get("error")))
    if not results:
        return 1
    print()
    print(render_dse(store.root, top_counters=args.counters))
    return 0


def cmd_gc(args):
    store = ResultStore(args.store)
    if not os.path.isdir(store.root):
        print("no store at %s" % store.root, file=sys.stderr)
        return 1
    report = store.gc()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print("gc %s: pruned %d torn and %d superseded line(s), %d "
              "old-layout file(s)" % (store.root, report["torn"],
                                      report["superseded"], report["legacy"]))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.dse",
        description="Design-space exploration: parallel sweeps over "
        "(ISA x I-cache geometry x tech node x fetch width) with a "
        "resumable result store and Pareto-frontier analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="evaluate a design space (resumable)")
    p.add_argument("--preset", default="smoke", choices=list(PRESETS),
                   help="named design space (default: smoke = the paper's "
                   "four configurations)")
    p.add_argument("--isas", help="grid axis: comma list from arm,thumb,fits")
    p.add_argument("--sizes", help="grid axis: I-cache sizes in bytes")
    p.add_argument("--assocs", help="grid axis: associativities")
    p.add_argument("--blocks", help="grid axis: block sizes in bytes")
    p.add_argument("--techs", help="grid axis: tech nodes (350nm,250nm,180nm)")
    p.add_argument("--fetch-bits", help="grid axis: fetch widths in bits")
    p.add_argument("--benchmarks", default="crc32,sha",
                   help="comma list of benchmarks, or 'all' (default: crc32,sha)")
    p.add_argument("--scale", default="small", choices=("small", "full"),
                   help="workload scale (default: small)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes (default: 1)")
    p.add_argument("--store", default=None,
                   help="result-store directory (default: <repo>/.dse/<space>-<scale>)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point timeout in seconds")
    p.add_argument("--retries", type=int, default=1,
                   help="retries per failed/timed-out task (default: 1)")
    p.add_argument("--json", action="store_true", help="JSON summary output")
    p.add_argument("--progress", action="store_true",
                   help="render a live done/failed/throughput/ETA line "
                   "counted from the result store")
    p.add_argument("--dash", action="store_true",
                   help="live multi-line dashboard: progress plus latency "
                   "percentiles and cache counters merged from worker "
                   "metric snapshots")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("frontier", help="Pareto frontiers over a result store")
    p.add_argument("--store", required=True, help="result-store directory")
    p.add_argument("--objectives", default=None,
                   help="comma list of min:<metric>/max:<metric> (default: "
                   "min:icache_energy_j,max:ipc,min:code_size)")
    p.add_argument("--benchmark", default=None,
                   help="restrict to one benchmark")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("report", help="sweep status + per-point stage timings")
    p.add_argument("--store", required=True, help="result-store directory")
    p.add_argument("--counters", type=int, default=16,
                   help="how many counters to print (default 16)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("gc", help="compact result segments (dropping torn "
                       "and superseded lines) and delete old-layout files; "
                       "run it while no sweep writes the store")
    p.add_argument("--store", required=True, help="result-store directory")
    p.add_argument("--json", action="store_true", help="JSON report output")
    p.set_defaults(func=cmd_gc)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
