"""Live sweep progress, counted in the result store.

Sweep workers write nothing for progress: every point a task finishes
or fails is already a line in the result store
(:mod:`repro.dse.store`), exactly and safely across crashes.  The
coordinator polls from its scheduling loop, counts the sweep's pending
points in the store it holds — reading only the bytes appended since
its last poll (:meth:`~repro.dse.store.ResultStore.count`) — publishes
the counts as ``dse.progress.*`` gauges, and (under ``python -m
repro.dse sweep --progress``) renders a single live status line:
points done/failed, throughput, ETA, busy workers.  A point counts as
failed while its latest failure line stands; a retry's current result
supersedes it, so a point that fails once and then succeeds is done.
"""

import sys
import time

from repro import obs
from repro.dse import pool as pool_mod
from repro.obs import metrics as metrics_mod

#: Seconds between two polls that count and redraw.
INTERVAL = 0.5


class ProgressRenderer:
    """Render a sweep's progress as one live status line.

    ``poll()`` is cheap enough for the scheduler's 20 ms loop: it counts
    at most every :data:`INTERVAL` seconds and rewrites a
    ``\\r``-terminated line on the chosen stream.  Every snapshot is
    also published as ``dse.progress.*`` gauges so any obs sink (JSONL
    stream, memory) sees the same trajectory.

    ``pending`` holds the sweep's ``(benchmark, point_id)`` pairs; they
    have no current-code result when the sweep starts, so every result
    counted among them is the sweep's own.  ``jobs`` is the sweep's:
    workers are the pool's busy ones, or the calling process at
    ``jobs <= 1``.
    """

    def __init__(self, store, pending, jobs, stream=None):
        self.store = store
        self.points = {}
        for benchmark, point_id in pending:
            self.points.setdefault(benchmark, []).append(point_id)
        self.total = len(pending)
        self.jobs = jobs
        self.stream = sys.stderr if stream is None else stream
        self._t0 = time.perf_counter()
        self._next = 0.0
        self._last = None
        self._wrote = False

    def _workers(self):
        if self.jobs <= 1:
            return 1
        stats = pool_mod.pool_stats()
        return 0 if stats is None else sum(
            row["busy"] for row in stats["workers"])

    def snapshot(self):
        done = failed = 0
        for benchmark, point_ids in self.points.items():
            points_done, points_failed = self.store.count(benchmark, point_ids)
            done += points_done
            failed += points_failed
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        throughput = (done + failed) / elapsed
        remaining = max(self.total - done - failed, 0)
        return {"done": done, "failed": failed, "workers": self._workers(),
                "elapsed": elapsed, "throughput": throughput,
                "eta": remaining / throughput if throughput > 0 else None}

    def _publish(self, snap):
        obs.gauge("dse.progress.done", snap["done"])
        obs.gauge("dse.progress.failed", snap["failed"])
        obs.gauge("dse.progress.workers", snap["workers"])
        obs.gauge("dse.progress.throughput", round(snap["throughput"], 3))

    def render_line(self, snap):
        line = "dse: %d/%d points" % (snap["done"], self.total)
        if snap["failed"]:
            line += " (%d failed)" % snap["failed"]
        line += " | %.1f pts/s" % snap["throughput"]
        if snap["eta"] is not None and snap["done"] + snap["failed"] > 0:
            line += " | ETA %ds" % int(snap["eta"] + 0.5)
        line += " | %d worker%s" % (snap["workers"],
                                    "" if snap["workers"] == 1 else "s")
        return line

    def poll(self, force=False):
        now = time.perf_counter()
        if not force and now < self._next:
            return None
        self._next = now + INTERVAL
        snap = self.snapshot()
        self._publish(snap)
        self._draw(snap)
        return snap

    def _draw(self, snap):
        line = self.render_line(snap)
        if line != self._last:
            pad = max(len(self._last or "") - len(line), 0)
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
            self._last = line
            self._wrote = True

    def close(self):
        """Final snapshot; terminates the live line with a newline."""
        snap = self.poll(force=True)
        if self._wrote:
            self.stream.write("\n")
            self.stream.flush()
        return snap


class DashRenderer(ProgressRenderer):
    """Multi-line sweep dashboard (``python -m repro.dse sweep --dash``).

    On a tty the frame is redrawn in place (cursor-up + clear); on a
    plain stream polling stays silent and one final panel is printed at
    :meth:`close`.  Histogram percentiles and cache counters come from
    :func:`repro.obs.metrics.merged_snapshot`: this process's registry
    merged exactly with the snapshots pool workers flush after each
    task into the sweep's own snapshot directory.
    """

    def __init__(self, store, pending, jobs, stream=None):
        super().__init__(store, pending, jobs, stream=stream)
        self._frame_lines = 0
        self._last_frame = None

    def render_frame(self, snap, merged):
        lines = [self.render_line(snap)]
        counters = merged.get("counters") or {}
        hits = counters.get("trace_store.hit", 0)
        misses = counters.get("trace_store.miss", 0)
        if hits + misses:
            lines.append("trace cache: %d hits / %d misses (%.1f%% hit)"
                         % (hits, misses, 100.0 * hits / (hits + misses)))
        lines.extend(metrics_mod.summary_lines(
            {name: metrics_mod.summarize(data)
             for name, data in (merged.get("histograms") or {}).items()}))
        return lines

    def _draw(self, snap):
        self._last_frame = self.render_frame(
            snap, metrics_mod.merged_snapshot())
        if self.stream.isatty():
            if self._frame_lines:
                # cursor up over the previous frame, clear to screen end
                self.stream.write("\x1b[%dF\x1b[J" % self._frame_lines)
            self.stream.write("\n".join(self._last_frame) + "\n")
            self.stream.flush()
            self._frame_lines = len(self._last_frame)

    def close(self):
        """Final frame (the only output on a non-tty stream)."""
        snap = self.poll(force=True)
        if not self.stream.isatty() and self._last_frame:
            self.stream.write("\n".join(self._last_frame) + "\n")
            self.stream.flush()
        return snap
