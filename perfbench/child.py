"""One measured operation in a fresh interpreter (spawned by ``run.py``).

Usage: ``python3 perfbench/child.py <op> <spec.json>`` with ``src`` on
``PYTHONPATH``; the result is written as JSON to ``spec["out"]``.

Ops:

* ``setup``: imports and pool spawn only — one set-up sample.
* ``paper``: ``collect`` of the roster plus Figs 3-14.
* ``sweep``: the job chain against a ``repro.serve`` server running on a
  thread of this process (the traced sweep and its untraced twin).

Timestamps are ``time.monotonic()``, which every process on the host
shares, so the parent can measure set-up from the moment it spawned us.
With ``spec["trace"]`` the layer timers of :mod:`layers` are installed
before the timed window opens.
"""

import asyncio
import json
import os
import sys
import threading
import time

import layers
import proctree
import sweep as sweep_client


def _setup(spec):
    from repro.dse.scheduler import run_tasks
    from repro.harness import runner  # noqa: F401  (import cost is set-up)

    jobs = spec["jobs"]
    if jobs > 1:
        # spawns the warm worker pool that collect() will reuse
        run_tasks(len, [[] for _ in range(jobs)], jobs=jobs, label="spawn")


def _layers(trace):
    return {
        "wall_s": trace.wall_s,
        "self_s": dict(trace.self_s),
        "calls": dict(trace.calls),
        "counts": dict(trace.counts),
    }


def op_setup(spec):
    _setup(spec)
    return {"ready": time.monotonic()}


def op_paper(spec):
    from repro.harness import runner
    from repro.harness.figures import FIGURES

    _setup(spec)
    trace = layers.LayerTrace() if spec["trace"] else None
    patcher = layers.install(trace) if trace else None
    me = os.getpid()
    cpu0, _rss = proctree.tree(me)
    ready = time.monotonic()
    if trace:
        trace.start()
    out = runner.collect(scale=spec["scale"], names=spec["names"],
                         jobs=spec["jobs"])
    figures = {key: fig(out).render() for key, fig in FIGURES.items()}
    if trace:
        trace.stop()
    done = time.monotonic()
    cpu1, rss = proctree.tree(me)
    if patcher:
        patcher.restore()
    result = {
        "ready": ready,
        "wall_s": done - ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss,
        "summaries": {name: {k: v for k, v in s.data.items()
                             if k != "manifest"}
                      for name, s in out.items()},
        "kernel_s": {name: s.manifest["wall_seconds"]
                     for name, s in out.items()},
        "store_misses": sum(s.manifest["counters"].get("trace_store.miss", 0)
                            for s in out.values()),
        "figures": figures,
    }
    if trace:
        result["layers"] = _layers(trace)
    return result


def op_sweep(spec):
    from repro.serve.client import ServeClient, wait_until_up
    from repro.serve.server import ServeServer

    trace = layers.LayerTrace() if spec["trace"] else None
    patcher = layers.install(trace) if trace else None
    # one compute batch at a time: batches running on two threads of one
    # process share the process-wide obs counters, which trips the
    # per-point cache/power consistency check in dse.evaluate
    server = ServeServer(address=spec["socket"], cache_root=spec["cache"],
                         state_dir=spec["state"], worker_jobs=1,
                         max_running=1)
    ready_event = threading.Event()
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever(ready_event)),
        daemon=True)
    thread.start()
    if not ready_event.wait(60):
        raise RuntimeError("in-process server never came up")
    wait_until_up(spec["socket"], timeout=60)
    me = os.getpid()
    cpu0, _rss = proctree.tree(me)
    ready = time.monotonic()
    if trace:
        trace.start()
    records = sweep_client.drive(spec["socket"], spec["chain"],
                                 spec["space"], spec["outstanding"],
                                 scale=spec["scale"])
    if trace:
        trace.stop()
    done = time.monotonic()
    cpu1, rss = proctree.tree(me)
    ServeClient(spec["socket"], timeout=30).shutdown()
    thread.join(60)
    if patcher:
        patcher.restore()
    result = {
        "ready": ready,
        "wall_s": done - ready,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": rss,
        "records": records,
    }
    if trace:
        result["layers"] = _layers(trace)
    return result


def main(argv):
    op, spec_path = argv[1], argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = {"setup": op_setup, "paper": op_paper,
              "sweep": op_sweep}[op](spec)
    with open(spec["out"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
