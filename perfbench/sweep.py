"""Closed-loop sweep client: a seeded job chain against ``repro.serve``.

``outstanding`` client threads share one job iterator; each submits its
next job only after the previous one's end event arrived, so the server
never has more than ``outstanding`` jobs from this client at once.
"""

import threading
import time

#: Fields a sweep point shares with a harness config entry; a paper-
#: default point must match its harness config on every one, bit for bit.
SHARED_FIELDS = (
    "instructions", "cycles", "ipc", "seconds", "icache_requests",
    "icache_line_accesses", "icache_misses", "mpm", "dcache_accesses",
    "dcache_misses", "switching_w", "internal_w", "leakage_w", "total_w",
    "peak_w", "switching_j", "internal_j", "leakage_j", "frac_switching",
    "frac_internal", "frac_leakage",
)


def grid_space(grid):
    """The per-kernel design space of one sweep job, as a submit dict."""
    from repro.dse.space import DesignSpace

    space = DesignSpace.grid("perfbench-wide", isas=grid["isas"],
                             sizes=grid["sizes"], assocs=grid["assocs"],
                             blocks=grid["blocks"])
    return space.to_dict()


def drive(address, chain, space, outstanding, scale, timeout=170.0):
    """Run every job of ``chain``; returns one record per job, in order.

    A record holds the job's latency (submit to end event), its end
    summary, the metrics of every paper-default point and the errors of
    failed points.
    """
    from repro.dse.space import PAPER_LABELS
    from repro.serve.client import ServeClient

    records = [None] * len(chain)
    jobs = iter(enumerate(chain))
    lock = threading.Lock()
    errors = []

    def client_loop():
        client = ServeClient(address, timeout=timeout)
        while True:
            with lock:
                nxt = next(jobs, None)
            if nxt is None:
                return
            index, kernels = nxt
            paper, failed = [], []

            def on_event(event):
                if event.get("type") != "point":
                    return
                if "error" in event:
                    failed.append("%s %s: %s" % (event["benchmark"],
                                                 event["label"],
                                                 event["error"]))
                elif event["point_id"] in PAPER_LABELS:
                    paper.append([event["benchmark"],
                                  PAPER_LABELS[event["point_id"]],
                                  event["metrics"]])

            t0 = time.monotonic()
            job = client.submit(space, list(kernels), scale=scale)
            end = client.wait(job["id"], on_event=on_event)
            records[index] = {
                "submitted": t0,
                "ended": time.monotonic(),
                "summary": end["summary"],
                "paper": paper,
                "failed": failed,
            }

    def guarded():
        try:
            client_loop()
        except Exception as exc:  # surfaced to the caller below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, daemon=True)
               for _ in range(outstanding)]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads) or None in records:
        raise RuntimeError("sweep client did not finish within %.0f s"
                           % timeout)
    return records
