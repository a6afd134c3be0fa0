"""Job model and request/response shapes for the sweep service.

A :class:`Job` is one submitted sweep: a design space × benchmark list
× scale, with a lifecycle of ``queued → running → done|failed|
cancelled``.  The server owns jobs on its event loop; every per-point
outcome is appended to the job's event buffer with a monotonically
increasing ``seq``, which is what makes ``watch`` streams resumable —
a reconnecting client asks for ``after_seq=<last seen>`` and receives
every remaining event exactly once.  An event is encoded once, when it
is emitted, and kept as its wire bytes; a point event carries the
point's metrics and nothing else of its result blob, which the job
does not keep (the ``results`` op reads the blobs back from the
cache's store, by the keys :attr:`Job.served` lists).

This module is deliberately free of sockets and scheduling: it
validates submit requests into ``(DesignSpace, benchmarks, scale)``,
owns the state machine, and builds the events and summary dicts the
protocol layer ships.
"""

import asyncio
import os
import time

from repro.dse.space import DesignSpace, preset as space_preset
from repro.obs import core as obs
from repro.serve.protocol import ProtocolError, encode
from repro.workloads import CODE_SIZE_BENCHMARKS

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED, CANCELLED = (
    "queued", "running", "done", "failed", "cancelled")
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL = (DONE, FAILED, CANCELLED)

SCALES = ("small", "full")


def new_job_id():
    return "j" + os.urandom(4).hex()


def validate_submit(msg):
    """Parse a submit request into ``(space, benchmarks, scale)``.

    Raises :class:`ProtocolError` on anything malformed — unknown
    benchmarks, bad scale, undecodable or empty design space — so the
    server can reject bad submissions without touching job state.
    """
    space_data = msg.get("space")
    if isinstance(space_data, str):
        try:
            space = space_preset(space_data)
        except KeyError as exc:
            raise ProtocolError(str(exc))
    elif isinstance(space_data, dict):
        try:
            space = DesignSpace.from_dict(space_data)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError("bad design space: %s" % exc)
    else:
        raise ProtocolError("submit needs a space (preset name or dict)")
    if not len(space):
        raise ProtocolError("design space %r is empty" % space.name)

    benchmarks = msg.get("benchmarks")
    if benchmarks == "all":
        benchmarks = list(CODE_SIZE_BENCHMARKS)
    if (not isinstance(benchmarks, list) or not benchmarks
            or not all(isinstance(b, str) for b in benchmarks)):
        raise ProtocolError("submit needs a non-empty benchmark list")
    unknown = [b for b in benchmarks if b not in CODE_SIZE_BENCHMARKS]
    if unknown:
        raise ProtocolError("unknown benchmark(s): %s" % ", ".join(unknown))

    scale = msg.get("scale", "small")
    if scale not in SCALES:
        raise ProtocolError("unknown scale %r (want one of %s)"
                            % (scale, "/".join(SCALES)))
    return space, benchmarks, scale


class Job:
    """One submitted sweep and its streamed outcome."""

    def __init__(self, space, benchmarks, scale):
        self.id = new_job_id()
        self.space = space
        self.benchmarks = list(benchmarks)
        self.scale = scale
        self.status = QUEUED
        self.created = time.time()
        self.started = None
        self.finished = None
        self.total = len(space) * len(self.benchmarks)
        self.events = []        # encoded point events, seq i + 1 at i
        self.served = []        # (benchmark, point_id) emitted without error
        self.cache_hits = 0
        self.coalesced = 0
        self.computed = 0
        self.failed_points = 0
        self.error = None       # submit-time / infrastructure error text
        self.task = None        # the server-side runner task
        self.changed = asyncio.Condition()

    # -- state ----------------------------------------------------------

    @property
    def terminal(self):
        return self.status in TERMINAL

    @property
    def emitted(self):
        return len(self.events)

    async def _notify(self):
        async with self.changed:
            self.changed.notify_all()

    async def start(self):
        self.status = RUNNING
        self.started = time.time()
        obs.observe("serve.job.wait_seconds", self.started - self.created)
        await self._notify()

    async def finish(self, status):
        self.status = status
        self.finished = time.time()
        if self.started is not None:
            obs.observe("serve.job.seconds", self.finished - self.started)
        await self._notify()

    # -- events ---------------------------------------------------------

    async def emit_point(self, benchmark, point, metrics, error=None,
                         cached=False, coalesced=False):
        """Append one per-point event, encoded (and wake every watcher)."""
        seq = len(self.events) + 1
        event = {
            "type": "point",
            "job": self.id,
            "seq": seq,
            "benchmark": benchmark,
            "point_id": point.point_id,
            "label": point.label,
            "cached": bool(cached),
            "coalesced": bool(coalesced),
            "done": seq,
            "total": self.total,
        }
        if error is not None:
            event["error"] = str(error)
            self.failed_points += 1
        else:
            event["metrics"] = metrics
            self.served.append((benchmark, point.point_id))
        if cached:
            self.cache_hits += 1
        elif coalesced:
            self.coalesced += 1
        elif error is None:
            self.computed += 1
        self.events.append(encode(event))
        await self._notify()

    def end_event(self):
        """The terminal stream event (sent after every point event)."""
        return {"type": "end", "job": self.id, "status": self.status,
                "summary": self.summary()}

    def summary(self):
        return {
            "id": self.id,
            "status": self.status,
            "space": self.space.name,
            "benchmarks": self.benchmarks,
            "scale": self.scale,
            "total": self.total,
            "emitted": self.emitted,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "failed_points": self.failed_points,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
        }

    def __repr__(self):
        return "<Job %s %s %d/%d>" % (self.id, self.status,
                                      self.emitted, self.total)
