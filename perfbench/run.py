#!/usr/bin/env python3
"""Repo benchmark: cold paper reproduction and a served cache sweep.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 50 --trace 0

Workloads (see NOTES.md for why each exists):

* ``paper-cold``: ``collect`` of all roster kernels over an empty trace
  store and summary cache, then Figs 3-14.
* ``sweep-serve``: a closed-loop client keeping ``nproc`` jobs in flight
  against a ``repro.serve`` server; each job is a wide cache grid on two
  kernels, and consecutive jobs share a kernel.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once in a single process at jobs=1 with layer timers and prints
the per-layer table.  Every output is checked; the last stdout line is
one JSON object, and a failed check makes the exit code 1.
"""

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import jobs
import proctree

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
#: working space of every run, inside the checkout (relative paths keep
#: unix socket names short)
WORK = ".perfbench"
NPROC = len(os.sched_getaffinity(0))
SETUP_SAMPLES = 5
CONFIGS_PER_KERNEL = 4
#: workload scale of every measured run; the full scale is checked once
#: per source tree against the committed figures (see prepare)
SCALE = "small"
UNATTRIBUTED_FLAG = 0.10
CHILD_TIMEOUT = 175.0
#: per-layer metrics only a served run has (0 on paper-cold)
PER_LAYER_SWEEP_ONLY = ("serve.coalesced", "serve.job.wait_s")


class CheckFailed(Exception):
    """The program under test produced a wrong or incomplete output."""


def note(line):
    """A human-readable line; the JSON result is always the last line."""
    print("# " + line, flush=True)


# ----------------------------------------------------------------------
# isolation


def isolate():
    """Drop every inherited ``REPRO_*`` setting; put ``src`` on the path.

    A stray ``REPRO_SIM_ENGINE`` or ``REPRO_DSE_POOL`` would change which
    program is measured, and the default trace store and trajectory would
    leak the checkout's own state into the run.
    """
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    return cleared


def build():
    """Byte-compile the program, as installing it would.

    Where ``PYTHONDONTWRITEBYTECODE`` is set no import ever writes
    ``__pycache__``, so every fresh interpreter would recompile all of
    ``src/`` and ``setup_s`` would time the compiler, not the imports.
    """
    compileall.compile_dir(SRC, quiet=1)


def fresh_dir(tag):
    path = os.path.join(WORK, "%s-%d-%d" % (tag, os.getpid(),
                                            time.monotonic_ns()))
    os.makedirs(path)
    return path


def run_env(trace_dir, run_dir):
    """Environment of one measured operation: fresh stores per run."""
    env = dict(os.environ)
    env["REPRO_TRACE_CACHE"] = os.path.abspath(trace_dir)
    env["REPRO_CACHE_DIR"] = os.path.abspath(os.path.join(run_dir, "summaries"))
    env["REPRO_TRAJECTORY"] = os.path.abspath(
        os.path.join(run_dir, "trajectory.jsonl"))
    return env


def spawn(argv, env, log_path):
    """Start a child in its own process group (so it can be reaped whole)."""
    log = open(log_path, "ab")
    try:
        return subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log, start_new_session=True)
    finally:
        log.close()


def kill(proc):
    """SIGKILL ``proc``'s process group (its pool workers too) and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def reap(proc, timeout):
    """Wait for ``proc`` to exit; a child that overstays is a failure."""
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed("pid %d still running after %.0f s"
                          % (proc.pid, timeout))
    finally:
        kill(proc)


def start_child(op, spec, env, run_dir):
    """Spawn one ``child.py`` op; pass the handle to :func:`finish_child`."""
    spec = dict(spec, out=os.path.abspath(os.path.join(run_dir, op + ".json")))
    spec_path = os.path.join(run_dir, op + ".spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    log_path = os.path.join(run_dir, op + ".log")
    t_spawn = time.monotonic()
    proc = spawn([sys.executable, os.path.join(HERE, "child.py"), op,
                  spec_path], env, log_path)
    return proc, op, spec["out"], log_path, t_spawn


def finish_child(handle, timeout=CHILD_TIMEOUT):
    """Wait for a child op; returns ``(result, setup_s)``."""
    proc, op, out, log_path, t_spawn = handle
    code = reap(proc, timeout)
    if code != 0:
        with open(log_path, errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        raise CheckFailed("%s child exited with %d" % (op, code))
    with open(out) as fh:
        result = json.load(fh)
    return result, result["ready"] - t_spawn


def child(op, spec, env, run_dir):
    """Run one ``child.py`` op to completion; returns ``(result, setup_s)``."""
    return finish_child(start_child(op, spec, env, run_dir))


def twins(op, specs, envs, run_dirs):
    """The traced op and its untraced twin, started together.

    Both are single-process jobs=1 runs of the same inputs, so on a host
    with two cores they see the same load at the same time; the
    difference of their walls is the tracing overhead.
    """
    handles = [start_child(op, spec, env, run_dir)
               for spec, env, run_dir in zip(specs, envs, run_dirs)]
    try:
        return [finish_child(h)[0] for h in handles]
    finally:
        for proc, *_rest in handles:
            kill(proc)


# ----------------------------------------------------------------------
# the warm store, built once per checkout by the code under test


def source_key():
    """Content hash of the program's sources and the committed figures."""
    h = hashlib.sha256()
    for top in (SRC, os.path.join(ROOT, "benchmarks", "results")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".pyc"):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def committed_figures():
    figures = {}
    for n in range(3, 15):
        path = os.path.join(ROOT, "benchmarks", "results", "figure%d.txt" % n)
        with open(path) as fh:
            figures["fig%d" % n] = fh.read()
    return figures


def figure_mismatches(figures, committed):
    return sorted(key for key, text in committed.items()
                  if figures.get(key, "") + "\n" != text)


def prepare(roster):
    """The warm trace store and the references for this source tree.

    Built on first use by three collects at jobs=nproc:

    1. full scale over a throwaway store: Figs 3-14 must equal the
       committed ``benchmarks/results`` byte for byte;
    2. ``SCALE`` over an empty store: fills the warm store, and its
       summaries and figures become the reference of every later run;
    3. ``SCALE`` again over that store: every trace must hit the store
       and the summaries must equal the cold ones.

    Keyed by a hash of ``src/`` and the committed figures, so a store
    left by other code is never reused.
    """
    key = source_key()
    final = os.path.join(WORK, "store-" + key)
    ref_path = os.path.join(final, "reference.json")
    state = "reused"
    if not os.path.exists(ref_path):
        state = "built"
        t0 = time.monotonic()
        build = fresh_dir("build")
        traces = os.path.join(build, "traces")
        full_dir, cold_dir, warm_dir = (fresh_dir("full"), fresh_dir("cold"),
                                        fresh_dir("verify"))
        spec = {"jobs": NPROC, "names": roster, "trace": False,
                "scale": SCALE}
        try:
            full, _ = child("paper", dict(spec, scale="full"),
                            run_env(os.path.join(full_dir, "traces"),
                                    full_dir), full_dir)
            cold, _ = child("paper", spec, run_env(traces, cold_dir), cold_dir)
            warm, _ = child("paper", spec, run_env(traces, warm_dir), warm_dir)
        finally:
            for path in (full_dir, cold_dir, warm_dir):
                shutil.rmtree(path, ignore_errors=True)
        problems = ["full-scale %s differs from benchmarks/results" % k
                    for k in figure_mismatches(full["figures"],
                                               committed_figures())]
        if warm["store_misses"]:
            problems.append("warm collect missed the store %d times"
                            % warm["store_misses"])
        if warm["summaries"] != cold["summaries"]:
            problems.append("warm summaries differ from cold ones")
        if problems:
            shutil.rmtree(build, ignore_errors=True)
            raise CheckFailed("warm store build: " + "; ".join(problems))
        with open(os.path.join(build, "reference.json"), "w") as fh:
            json.dump({"summaries": cold["summaries"],
                       "figures": cold["figures"],
                       "build_s": time.monotonic() - t0}, fh)
        try:
            os.rename(build, final)
        except OSError:  # another run finished the same build first
            shutil.rmtree(build, ignore_errors=True)
    with open(ref_path) as fh:
        reference = json.load(fh)
    note("warm store %s: %s (built in %.1f s, not part of setup_s)"
         % (state, final, reference["build_s"]))
    return os.path.join(final, "traces"), reference


def snapshot(path):
    """Names, sizes and mtimes under ``path``: a shared store must not
    change while warm runs read it."""
    return sorted((name, st.st_size, st.st_mtime_ns)
                  for name in os.listdir(path)
                  for st in [os.stat(os.path.join(path, name))])


def encode_ratio(path):
    """Raw trace bytes over stored ``.npz`` bytes, across a store."""
    raw = stored = 0
    for name in os.listdir(path):
        if name.endswith(".json"):
            with open(os.path.join(path, name)) as fh:
                raw += sum(json.load(fh)["lengths"])
            stored += os.path.getsize(os.path.join(path, name[:-5] + ".npz"))
    return raw / stored if stored else 0.0


# ----------------------------------------------------------------------
# checks


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, why):
        self.attempted += 1
        if not ok:
            self.failures.append(why)


def check_paper(tally, result, reference):
    for name, summary in sorted(reference["summaries"].items()):
        tally.check(result["summaries"].get(name) == summary,
                    "%s: summary differs from the paper reference" % name)
    for key, text in sorted(reference["figures"].items()):
        tally.check(result["figures"].get(key) == text,
                    "%s differs from the paper reference" % key)


def check_sweep(tally, records, reference, store_changed):
    from sweep import SHARED_FIELDS

    for record in records:
        summary = record["summary"]
        tally.attempted += summary["total"] - len(record["failed"])
        for why in record["failed"]:
            tally.check(False, why)
        tally.check(summary["status"] == "done"
                    and summary["emitted"] == summary["total"],
                    "job %s ended %s with %d/%d points"
                    % (summary["id"], summary["status"], summary["emitted"],
                       summary["total"]))
        for kernel, label, metrics in record["paper"]:
            config = reference["summaries"][kernel]["configs"][label]
            diff = [f for f in SHARED_FIELDS if metrics[f] != config[f]]
            tally.check(not diff, "%s %s differs from the paper run: %s"
                        % (kernel, label, ", ".join(diff)))
    tally.check(not store_changed, "the run wrote to the shared warm store")


# ----------------------------------------------------------------------
# untraced runs (--trace 0)


def median(values):
    return statistics.median(values)


def latency_note(what, values):
    """Median plus the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    line = "%s latency p50 %.3f s over %d samples" % (what, median(ordered), n)
    k = n - 10  # samples at or below that percentile
    if k > n // 2:
        line += "; p%d %.3f s" % (100 * k // n, ordered[k - 1])
    else:
        line += "; no tail percentile (none has 10 samples beyond it)"
    note(line)


def measure(seconds, one_pass, one_setup):
    """Passes while the next one still fits in ``seconds`` (at least one),
    then set-up probes until there are ``SETUP_SAMPLES`` set-up samples.

    ``one_pass()`` returns ``(pass, setup_s)`` where ``pass`` holds
    ``wall_s``, ``cpu_s``, ``peak_rss_mb``, ``points`` and ``latencies``;
    ``one_setup()`` returns one set-up sample.  Returns the passes and
    the end-to-end metrics.
    """
    passes, setups = [], []
    deadline = time.monotonic() + seconds
    while True:
        result, setup = one_pass()
        passes.append(result)
        setups.append(setup)
        mean = sum(p["wall_s"] for p in passes) / len(passes)
        if time.monotonic() + mean > deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(one_setup())
    return passes, {
        "setup_s": median(setups),
        "wall_s": median(p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "points_per_s": median(p["points"] / p["wall_s"] for p in passes),
        "job_p50_s": median(s for p in passes for s in p["latencies"]),
    }


def paper_runs(args, roster, reference):
    order = jobs.kernel_order(roster, args.seed)
    tally = Tally()

    def one_pass():
        run_dir = fresh_dir("paper")
        spec = {"jobs": NPROC, "names": order, "trace": False,
                "scale": SCALE}
        result, setup = child("paper", spec,
                              run_env(os.path.join(run_dir, "traces"),
                                      run_dir), run_dir)
        check_paper(tally, result, reference)
        shutil.rmtree(run_dir, ignore_errors=True)
        result["points"] = CONFIGS_PER_KERNEL * len(roster)
        # the job a user waits for is the whole collect; one kernel's
        # latency depends on which kernel the seed runs beside it
        result["latencies"] = [result["wall_s"]]
        return result, setup

    def one_setup():
        run_dir = fresh_dir("setup")
        _, setup = child("setup", {"jobs": NPROC},
                         run_env(os.path.join(run_dir, "traces"), run_dir),
                         run_dir)
        shutil.rmtree(run_dir, ignore_errors=True)
        return setup

    passes, metrics = measure(args.seconds, one_pass, one_setup)
    note("%d pass(es) of %d kernels at jobs=%d; wall %s s"
         % (len(passes), len(roster), NPROC,
            ", ".join("%.2f" % p["wall_s"] for p in passes)))
    latency_note("collect", [p["wall_s"] for p in passes])
    latency_note("kernel", [s for p in passes for s in p["kernel_s"].values()])
    return metrics, tally


def start_server(store, run_dir):
    """A ``repro.serve`` server process with fresh cache and state."""
    sock = os.path.join(run_dir, "s.sock")
    argv = [sys.executable, "-m", "repro.serve", "serve", "--socket", sock,
            "--jobs", str(NPROC), "--cache", os.path.join(run_dir, "cache"),
            "--state", os.path.join(run_dir, "state")]
    return spawn(argv, run_env(store, run_dir),
                 os.path.join(run_dir, "server.log")), sock


def stop_server(proc, sock):
    from repro.serve.client import ServeClient, ServeError

    try:
        ServeClient(sock, timeout=30).shutdown()
    except (OSError, ConnectionError, ServeError):
        pass
    reap(proc, 30)


def server_setup(store, run_dir):
    """Start a server and wait until it answers; ``(proc, sock, setup_s)``."""
    from repro.serve.client import wait_until_up

    t0 = time.monotonic()
    proc, sock = start_server(store, run_dir)
    try:
        wait_until_up(sock, timeout=60, interval=0.01)
    except BaseException:
        kill(proc)
        raise
    return proc, sock, time.monotonic() - t0


def sweep_runs(args, roster, store, reference):
    import sweep

    chain = jobs.job_chain(roster, args.seed)
    space = sweep.grid_space(jobs.GRID)
    tally = Tally()
    me = os.getpid()

    def one_pass():
        run_dir = fresh_dir("sweep")
        before = snapshot(store)
        proc, sock, setup = server_setup(store, run_dir)
        try:
            cpu0 = proctree.tree(proc.pid)[0] + proctree.cpu_seconds(me)
            t0 = time.monotonic()
            records = sweep.drive(sock, chain, space, NPROC, scale=SCALE)
            wall = time.monotonic() - t0
            cpu1, rss = proctree.tree(proc.pid)
            cpu1 += proctree.cpu_seconds(me)
            rss += proctree.peak_rss_mb(me)
        finally:
            stop_server(proc, sock)
        check_sweep(tally, records, reference, snapshot(store) != before)
        shutil.rmtree(run_dir, ignore_errors=True)
        return {
            "wall_s": wall, "cpu_s": cpu1 - cpu0, "peak_rss_mb": rss,
            "points": sum(r["summary"]["emitted"] for r in records),
            "latencies": [r["ended"] - r["submitted"] for r in records],
            "hits": sum(r["summary"]["cache_hits"] for r in records),
            "coalesced": sum(r["summary"]["coalesced"] for r in records),
        }, setup

    def one_setup():
        run_dir = fresh_dir("setup")
        proc, sock, setup = server_setup(store, run_dir)
        stop_server(proc, sock)
        shutil.rmtree(run_dir, ignore_errors=True)
        return setup

    passes, metrics = measure(args.seconds, one_pass, one_setup)
    for p in passes:
        note("sweep pass: %d jobs, %d points (%d cache hits, %d coalesced) "
             "in %.2f s" % (len(p["latencies"]), p["points"], p["hits"],
                            p["coalesced"], p["wall_s"]))
    latency_note("job", [s for p in passes for s in p["latencies"]])
    return metrics, tally


# ----------------------------------------------------------------------
# traced runs (--trace 1)


def layer_metrics(layers, overhead_s, ratio):
    """The per-layer table: self seconds plus each layer's counts."""
    self_s, calls, counts = layers["self_s"], layers["calls"], layers["counts"]

    def s(layer):
        return self_s.get(layer, 0.0)

    m = {
        "workloads.self_s": s("workloads"),
        "workloads.calls": calls.get("workloads", 0),
        "compiler.self_s": s("compiler"),
        "compiler.calls": calls.get("compiler", 0),
        "core.profiler.self_s": s("core.profiler"),
        "core.synthesizer.self_s": s("core.synthesizer"),
        "core.synthesizer.attempts": calls.get("core.synthesizer", 0),
        "core.synthesizer.kept_ratio": (
            counts.get("flow.kept", 0) / calls["core.synthesizer"]
            if calls.get("core.synthesizer") else 0.0),
        "core.translator.self_s": s("core.translator"),
        "core.translator.calls": calls.get("core.translator", 0),
    }
    for isa in ("arm", "thumb", "fits"):
        layer = "sim.functional." + isa
        minstr = counts.get(layer + ".instructions", 0) / 1e6
        m[layer + ".self_s"] = s(layer)
        m[layer + ".minstr"] = minstr
        m[layer + ".minstr_per_s"] = minstr / s(layer) if s(layer) else 0.0
    m.update({
        "sim.functional.store.encode.self_s": s("sim.functional.store.encode"),
        "sim.functional.store.encode.ratio": ratio,
        "sim.functional.store.decode.self_s": s("sim.functional.store.decode"),
        "sim.functional.store.decode.hits": counts.get("store.decode.hits", 0),
        "sim.functional.store.decode.misses":
            counts.get("store.decode.misses", 0),
        "sim.pipeline.precomp.self_s": s("sim.pipeline.precomp"),
        "sim.pipeline.precomp.calls": calls.get("sim.pipeline.precomp", 0),
        "sim.pipeline.report.self_s": s("sim.pipeline.report"),
        "sim.cache.stack.self_s": s("sim.cache.stack"),
        "sim.cache.stack.passes": calls.get("sim.cache.stack", 0),
        "sim.cache.stack.geometries": counts.get("stack.geometries", 0),
        "power.self_s": s("power"),
        "power.evaluations": calls.get("power", 0),
        "harness.self_s": s("harness"),
        "dse.point.self_s": s("dse.point"),
        "dse.store.self_s": s("dse.store"),
        "dse.dispatch.self_s": s("dse.dispatch"),
        "dse.points": counts.get("dse.points", 0),
        "dse.retries": counts.get("dse.retries", 0),
        "serve.self_s": s("serve"),
        "unattributed.self_s": s("unattributed"),
        "tracing.overhead_s": overhead_s,
        "traced.wall_s": layers["wall_s"],
    })
    hits = counts.get("serve.cache.hits", 0)
    lookups = hits + counts.get("serve.cache.misses", 0)
    m["serve.cache.hit_ratio"] = hits / lookups if lookups else 0.0
    return m


def print_table(layers, jobs_note):
    wall = layers["wall_s"]
    rows = sorted(layers["self_s"].items(), key=lambda kv: -kv[1])
    note("layer table (%s): traced wall %.3f s" % (jobs_note, wall))
    for layer, seconds in rows:
        note("  %-32s %9.3f s %6.1f%%  %d calls"
             % (layer, seconds, 100.0 * seconds / wall,
                layers["calls"].get(layer, 0)))
    total = sum(layers["self_s"].values())
    note("  %-32s %9.3f s (traced wall %.3f s, difference %.2e s)"
         % ("sum", total, wall, total - wall))
    share = layers["self_s"].get("unattributed", 0.0) / wall
    if share > UNATTRIBUTED_FLAG:
        note("FLAG: unattributed is %.1f%% of the traced wall (> %d%%)"
             % (100 * share, 100 * UNATTRIBUTED_FLAG))


def traced_paper(args, roster, reference):
    order = jobs.kernel_order(roster, args.seed)
    run_dirs = [fresh_dir("traced"), fresh_dir("untraced")]
    traces = [os.path.join(d, "traces") for d in run_dirs]
    specs = [{"jobs": 1, "names": order, "trace": traced, "scale": SCALE}
             for traced in (True, False)]
    results = twins("paper", specs,
                    [run_env(t, d) for t, d in zip(traces, run_dirs)],
                    run_dirs)
    tally = Tally()
    for result in results:
        check_paper(tally, result, reference)
    layers = results[0]["layers"]
    metrics = layer_metrics(layers, results[0]["wall_s"] - results[1]["wall_s"],
                            encode_ratio(traces[0]))
    for name in PER_LAYER_SWEEP_ONLY:
        metrics[name] = 0.0
    print_table(layers, "jobs=1, one process")
    for run_dir in run_dirs:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, tally


def traced_sweep(args, roster, store, reference):
    import sweep

    chain = jobs.job_chain(roster, args.seed)
    space = sweep.grid_space(jobs.GRID)
    run_dirs = [fresh_dir("traced"), fresh_dir("untraced")]
    before = snapshot(store)
    specs = [{"trace": traced, "chain": chain, "space": space,
              "scale": SCALE, "outstanding": NPROC,
              "socket": os.path.join(d, "s.sock"),
              "cache": os.path.join(d, "cache"),
              "state": os.path.join(d, "state")}
             for traced, d in zip((True, False), run_dirs)]
    results = twins("sweep", specs, [run_env(store, d) for d in run_dirs],
                    run_dirs)
    tally = Tally()
    for result in results:
        check_sweep(tally, result["records"], reference,
                    snapshot(store) != before)
    layers = results[0]["layers"]
    records = results[0]["records"]
    tally.check(not layers["counts"].get("store.decode.misses", 0),
                "decode.misses is not 0 on a warm run")
    metrics = layer_metrics(layers, results[0]["wall_s"] - results[1]["wall_s"],
                            encode_ratio(store))
    waits = [r["summary"]["started"] - r["summary"]["created"] for r in records]
    metrics["serve.coalesced"] = sum(r["summary"]["coalesced"] for r in records)
    metrics["serve.job.wait_s"] = median(waits)
    print_table(layers, "jobs=1, server in-process")
    for run_dir in run_dirs:
        shutil.rmtree(run_dir, ignore_errors=True)
    return metrics, tally


# ----------------------------------------------------------------------


WORKLOADS = ("paper-cold", "sweep-serve")


def metric_units():
    """End-to-end and per-layer metric units, as BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return ({m["name"]: m["unit"] for m in declared["end_to_end"]},
            {m["name"]: m["unit"] for m in declared["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program under test (src/repro) in %s" % ROOT,
              file=sys.stderr)
        return 2
    cleared = isolate()
    build()
    from repro.workloads import CODE_SIZE_BENCHMARKS

    roster = list(CODE_SIZE_BENCHMARKS)
    end_to_end, per_layer = metric_units()
    note("workload %s seed %d seconds %g trace %d; nproc %d; cleared %s; "
         "each run gets fresh REPRO_TRACE_CACHE (except the shared warm "
         "store), REPRO_CACHE_DIR, REPRO_TRAJECTORY and serve "
         "socket/cache/state under %s/"
         % (args.workload, args.seed, args.seconds, args.trace, NPROC,
            ",".join(cleared) or "nothing", WORK))
    try:
        store, reference = prepare(roster)
        if args.trace:
            if args.workload == "sweep-serve":
                metrics, tally = traced_sweep(args, roster, store, reference)
            else:
                metrics, tally = traced_paper(args, roster, reference)
            units = per_layer
        else:
            if args.workload == "sweep-serve":
                metrics, tally = sweep_runs(args, roster, store, reference)
            else:
                metrics, tally = paper_runs(args, roster, reference)
            units = end_to_end
    except CheckFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    failed = len(tally.failures)
    for why in tally.failures[:20]:
        note("FAILED: " + why)
    note("failed_frac %.6f (%d failed of %d attempted); the model is not "
         "validated against hardware: the checks test bit-identity with the "
         "committed figures and this code's reference run"
         % (failed / max(1, tally.attempted), failed, tally.attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
