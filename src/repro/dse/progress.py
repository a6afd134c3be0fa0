"""Live sweep progress: worker heartbeats + a coordinator renderer.

Sweep workers are separate processes whose only result channel is the
filesystem (see :mod:`repro.dse.scheduler`), so progress flows the same
way: each worker keeps one atomically-replaced JSON heartbeat file under
``<store>/progress/`` and bumps it after every evaluated point.  The
coordinator polls the directory from its scheduling loop, aggregates the
counters, publishes them as ``dse.progress.*`` gauges, and (under
``python -m repro.dse sweep --progress``) renders a single live status
line — points done/failed, throughput, ETA, live worker count.

Heartbeats are additive across *writers*: each sweep task gets its own
uniquely-named file (pid plus a per-process sequence number, since a
persistent pool worker runs many tasks under one pid), so summing all
files yields the points evaluated by this sweep invocation.  A crashed
worker's partial count survives on disk and its retry (which re-checks
the result store per point) only adds what the crash left unfinished.
Embedded metric snapshots (``obs.snapshot()``) are cumulative per
process, so the dash merges only the newest snapshot per pid.  All
heartbeat I/O is best-effort — a full disk or unwritable store
degrades the display, never the sweep.
"""

import itertools
import json
import os
import sys
import time

from repro import obs
from repro.obs import metrics as metrics_mod

#: heartbeat files older than this many seconds count as not-live
STALE_AFTER = 5.0

#: per-process counter so each HeartbeatWriter (one per task) gets a
#: distinct file even when a persistent pool worker reuses its pid
_WRITER_SEQ = itertools.count()


class HeartbeatWriter:
    """One sweep task's progress gauge, atomically rewritten per point."""

    def __init__(self, dirpath, benchmark, total):
        self.path = os.path.join(
            dirpath, "w%d_%d.json" % (os.getpid(), next(_WRITER_SEQ)))
        self.benchmark = benchmark
        self.total = total
        self.done = 0
        self.failed = 0
        self._t0 = time.perf_counter()
        try:
            os.makedirs(dirpath, exist_ok=True)
        except OSError:
            pass
        self._write()

    def point_done(self, ok=True):
        if ok:
            self.done += 1
        else:
            self.failed += 1
        self._write()

    def _write(self):
        payload = {
            "pid": os.getpid(),
            "benchmark": self.benchmark,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "wall": time.perf_counter() - self._t0,
            "updated": time.time(),
        }
        if obs.enabled:
            # periodic per-process metrics snapshot, piggybacking on the
            # heartbeat channel — the dash renderer merges these
            try:
                payload["metrics"] = obs.snapshot()
            except Exception:
                pass
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path)
        except OSError:
            pass  # progress is advisory; never fail the worker


def clear_heartbeats(dirpath):
    """Drop heartbeat files from previous sweep invocations."""
    try:
        names = os.listdir(dirpath)
    except OSError:
        return
    for name in names:
        if name.startswith("w") and name.endswith((".json", ".json.tmp")):
            try:
                os.unlink(os.path.join(dirpath, name))
            except OSError:
                pass


def prune_heartbeats(dirpath, stale_after=STALE_AFTER, now=None):
    """Remove dead heartbeat files; returns how many were pruned.

    A killed sweep leaves its workers' last heartbeats (and any
    ``.tmp`` mid-replace leftovers) behind forever — the next
    ``--progress`` run clears them, but a store that is only ever
    resumed or inspected accumulates them.  Prunes every ``.tmp`` file,
    every torn heartbeat, and every heartbeat not updated within
    ``stale_after`` seconds; live workers' files survive.
    """
    now = time.time() if now is None else now
    pruned = 0
    try:
        names = os.listdir(dirpath)
    except OSError:
        return 0
    for name in names:
        path = os.path.join(dirpath, name)
        if name.endswith(".tmp"):
            dead = True
        elif name.startswith("w") and name.endswith(".json"):
            try:
                with open(path) as fh:
                    beat = json.load(fh)
                dead = now - float(beat.get("updated", 0)) >= stale_after
            except (OSError, ValueError, TypeError):
                dead = True     # torn or garbage: never live
        else:
            continue
        if dead:
            try:
                os.unlink(path)
                pruned += 1
            except OSError:
                pass
    return pruned


def read_heartbeats(dirpath):
    """All worker heartbeats under ``dirpath`` (skipping torn files)."""
    beats = []
    try:
        names = sorted(os.listdir(dirpath))
    except OSError:
        return beats
    for name in names:
        if not (name.startswith("w") and name.endswith(".json")):
            continue
        try:
            with open(os.path.join(dirpath, name)) as fh:
                beat = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(beat, dict):
            beats.append(beat)
    return beats


def aggregate(beats, now=None):
    """Sum worker heartbeats into one progress snapshot."""
    now = time.time() if now is None else now
    done = sum(int(b.get("done", 0)) for b in beats)
    failed = sum(int(b.get("failed", 0)) for b in beats)
    live = sum(1 for b in beats
               if now - float(b.get("updated", 0)) < STALE_AFTER)
    return {"done": done, "failed": failed, "workers": len(beats),
            "live_workers": live}


class ProgressRenderer:
    """Render aggregated heartbeats as one live status line.

    ``poll()`` is cheap enough for the scheduler's 20 ms loop: it
    re-reads the heartbeat directory at most every ``interval`` seconds
    and rewrites a ``\\r``-terminated line on the chosen stream.  Every
    snapshot is also published as ``dse.progress.*`` gauges so any obs
    sink (JSONL stream, memory) sees the same trajectory.
    """

    def __init__(self, dirpath, total, stream=None, interval=0.5):
        self.dirpath = dirpath
        self.total = total
        self.stream = sys.stderr if stream is None else stream
        self.interval = interval
        self._t0 = time.perf_counter()
        self._next = 0.0
        self._last = None
        self._wrote = False

    def snapshot(self, beats=None):
        if beats is None:
            beats = read_heartbeats(self.dirpath)
        snap = aggregate(beats)
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        finished = snap["done"] + snap["failed"]
        snap["elapsed"] = elapsed
        snap["throughput"] = finished / elapsed
        remaining = max(self.total - finished, 0)
        snap["eta"] = (remaining / snap["throughput"]
                       if snap["throughput"] > 0 else None)
        return snap

    def _publish(self, snap):
        obs.gauge("dse.progress.done", snap["done"])
        obs.gauge("dse.progress.failed", snap["failed"])
        obs.gauge("dse.progress.live_workers", snap["live_workers"])
        obs.gauge("dse.progress.throughput", round(snap["throughput"], 3))

    def render_line(self, snap):
        line = "dse: %d/%d points" % (snap["done"], self.total)
        if snap["failed"]:
            line += " (%d failed)" % snap["failed"]
        line += " | %.1f pts/s" % snap["throughput"]
        if snap["eta"] is not None and snap["done"] + snap["failed"] > 0:
            line += " | ETA %ds" % int(snap["eta"] + 0.5)
        line += " | %d worker%s" % (snap["live_workers"],
                                    "" if snap["live_workers"] == 1 else "s")
        return line

    def poll(self, force=False):
        now = time.perf_counter()
        if not force and now < self._next:
            return None
        self._next = now + self.interval
        snap = self.snapshot()
        self._publish(snap)
        line = self.render_line(snap)
        if line != self._last:
            pad = max(len(self._last or "") - len(line), 0)
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
            self._last = line
            self._wrote = True
        return snap

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
    :meth:`close`.  Histogram percentiles and cache counters come from the
    metric snapshots workers embed in their heartbeats, merged with
    :func:`repro.obs.metrics.merge` — so the panel is exact across any
    number of worker processes.
    """

    def __init__(self, dirpath, total, stream=None, interval=0.5):
        super().__init__(dirpath, total, stream=stream, interval=interval)
        self._frame_lines = 0
        self._last_frame = None

    @staticmethod
    def merged_metrics(beats):
        # snapshots are cumulative per process: a pool worker embeds an
        # ever-growing snapshot in every task's heartbeat file, so only
        # the newest snapshot per pid may be merged
        latest = {}
        for beat in beats:
            if not beat.get("metrics"):
                continue
            pid = beat.get("pid")
            cur = latest.get(pid)
            if (cur is None
                    or float(beat.get("updated", 0))
                    >= float(cur.get("updated", 0))):
                latest[pid] = beat
        return metrics_mod.merge(b["metrics"] for b in latest.values())

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

    def poll(self, force=False):
        now = time.perf_counter()
        if not force and now < self._next:
            return None
        self._next = now + self.interval
        beats = read_heartbeats(self.dirpath)
        snap = self.snapshot(beats)
        self._publish(snap)
        self._last_frame = self.render_frame(snap, self.merged_metrics(beats))
        if self.stream.isatty():
            if self._frame_lines:
                # cursor up over the previous frame, clear to screen end
                self.stream.write("\x1b[%dF\x1b[J" % self._frame_lines)
            self.stream.write("\n".join(self._last_frame) + "\n")
            self.stream.flush()
            self._frame_lines = len(self._last_frame)
            self._wrote = True
        return snap

    def close(self):
        """Final frame (the only output on a non-tty stream)."""
        snap = self.poll(force=True)
        if not self.stream.isatty() and self._last_frame:
            self.stream.write("\n".join(self._last_frame) + "\n")
            self.stream.flush()
        return snap
