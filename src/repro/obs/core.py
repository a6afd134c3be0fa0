"""Observability primitives: spans, the metrics registry, sinks.

The whole pipeline (compile → profile → synthesize → translate →
simulate/power) is instrumented with these primitives:

* :func:`span` — nested wall-clock timing, usable as a context manager
  or (via :func:`timed`) a decorator.  Spans aggregate by name (count,
  total seconds, max seconds) and optionally stream one event per exit
  to the configured sink.
* :func:`counter` / :func:`gauge` / :func:`observe` / :func:`timer` —
  monotonic counts, last-value gauges, and log-bucketed
  :class:`Histogram` samples (``timer`` observes a region's seconds).
  This module owns the one metrics registry: :func:`snapshot` is its
  one snapshot format, which manifests, flushed per-process snapshot
  files, the serve ``metrics`` op, the sweep dash and alert rules all
  read (:mod:`repro.obs.metrics` merges and exposes it).
* sinks — :class:`MemorySink` for tests, :class:`JsonlSink` for runs,
  or ``None`` for aggregate-only collection (the runner's manifests).

Everything is gated on the module-level :data:`enabled` flag so the hot
simulator loops pay a single attribute load + branch when observability
is off; instrumentation sits at stage/function/run granularity, never
per-instruction.

Histogram bucketing: values ``v > 0`` land in bucket ``i`` with
``BASE**(i-1) < v <= BASE**i`` where ``BASE = 2**0.25`` (~19% wide
buckets), stored sparsely as ``{i: count}``.  A quantile estimate is
the upper bound of the bucket holding the target rank (clamped to the
observed max), so for any sample ``s`` resolving a quantile the
estimate ``e`` satisfies ``s <= e < s * BASE``.  Values ``<= 0`` share
one ``zero`` bucket.  Merging two histograms adds bucket counts, so a
merge across processes is exact.

Configuration comes from the environment at import time:

* ``REPRO_OBS=jsonl:<path>`` — enable, stream events to a JSONL file;
* ``REPRO_OBS=memory`` (or ``1``/``on``) — enable, keep events in memory;
* ``REPRO_OBS_OPCODES=1`` — additionally collect per-opcode dynamic
  histograms from the functional simulators (the sampling knob; this is
  the one collection whose cost scales with static code size);
* ``REPRO_OBS_MAX_BYTES=<n>`` — rotate the JSONL stream once it grows
  past ``n`` bytes (the previous generation is kept as ``<path>.1``),
  so unattended sweeps cannot grow span logs unboundedly.

Span hierarchy: when a sink is attached, every span event additionally
carries ``trace_id`` / ``span_id`` / ``parent_id`` (propagated through
:mod:`contextvars`, so nesting follows the dynamic call structure even
across threads) and ``tid`` (a compact per-process thread lane).
:func:`export_spec` captures the *current* trace context alongside the
sink configuration; a worker process applying that spec via
:func:`apply_spec` parents its root spans under the exporting span —
which is how a multi-process DSE sweep exports as one coherent,
parent-linked trace (see :mod:`repro.obs.trace_export`).  Applying a
spec also starts the worker's metrics window: the registry is cleared
and the process becomes a worker, whose snapshots carry only what it
did since and no gauges.
"""

import atexit
import contextvars
import functools
import itertools
import json
import math
import os
import sys
import threading
import time

#: Version of the snapshot/manifest layout.  Bump when the shape of
#: ``snapshot()``/``since()`` output changes; cached run manifests carry
#: it and are invalidated on mismatch.
SCHEMA_VERSION = 2

#: The canonical five pipeline stages, in flow order.  Span names
#: ``stage.<name>`` aggregate everything attributed to each stage.
STAGES = ("compile", "profile", "synthesize", "translate", "simulate")

#: Fast global gate.  Read directly (``if core.enabled:``) from hot-ish
#: call sites; mutate only through :func:`enable` / :func:`disable`.
enabled = False

_sink = None
_opcode_sampling = False
_depth = 0
_counters = {}
_gauges = {}
_hists = {}     # name -> Histogram
_span_agg = {}  # name -> [count, total_seconds, max_seconds]
#: Set once this process applied a parent's spec (:func:`apply_spec`):
#: a worker's snapshots omit gauges, whose last-writer value only the
#: coordinator owns.
_is_child = False
_proc_token = None  # (pid, token) — recomputed after fork

#: Process-local time origin for streamed span events.  Span events
#: carry ``ts`` (start offset in seconds since this epoch), which is
#: what lets :mod:`repro.obs.trace_export` reconstruct a timeline
#: without re-running anything.
_EPOCH = time.perf_counter()
_atexit_registered = False

#: Current trace context: ``(trace_id, span_id-of-enclosing-span)``.
#: A contextvar (not a global) so span parentage follows the dynamic
#: call structure per thread/task, and survives into forked children.
_TRACE_CTX = contextvars.ContextVar("repro.obs.trace", default=None)
_span_seq = itertools.count(1)
#: thread ident → small per-process lane number (event ``tid``).
_thread_lanes = {}


def _new_span_id():
    """Unique across processes: the pid is read at call time, so forked
    workers mint ids disjoint from their parent's."""
    return "%x-%x" % (os.getpid(), next(_span_seq))


def _new_trace_id():
    return os.urandom(8).hex()


def _tid():
    ident = threading.get_ident()
    lane = _thread_lanes.get(ident)
    if lane is None:
        lane = len(_thread_lanes) + 1
        _thread_lanes[ident] = lane
    return lane


def trace_context():
    """The current ``(trace_id, span_id)`` pair, or None outside a trace."""
    return _TRACE_CTX.get()


def adopt_trace_context(trace_id, parent_id=None):
    """Join an existing trace: subsequent spans in this context parent
    under ``parent_id`` (a span id minted by another process).  Used by
    :func:`apply_spec` so worker-process spans resolve to the
    coordinator's root span."""
    _TRACE_CTX.set((trace_id, parent_id))


class NullSink:
    """Swallows every event (useful to exercise the streaming path)."""

    def emit(self, event):
        pass

    def close(self):
        pass


class MemorySink:
    """Keeps emitted events in a list — the test sink."""

    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def close(self):
        pass


class JsonlSink:
    """Appends one JSON object per event to a file.

    Usable as a context manager (``with JsonlSink(path) as sink:``), and
    every emit is a single flushed ``write`` so concurrent workers
    appending to one file never interleave partial lines.  The active
    sink is additionally closed via ``atexit`` (see :func:`enable`) so
    trailing events survive a run that exits mid-stream.

    ``max_bytes`` (default: ``REPRO_OBS_MAX_BYTES``, 0 = unbounded) caps
    the stream size: once an emit would cross the cap the current file
    is rotated to ``<path>.1`` (replacing any previous generation) and a
    fresh stream is started — with a warning on the first rotation, so
    a long sweep that outgrows its log is loud about losing history.
    Rotation is per-writer best-effort: concurrent workers appending to
    a shared stream each enforce the cap against the size they observe.
    """

    def __init__(self, path, max_bytes=None):
        self.path = os.path.expanduser(path)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if max_bytes is None:
            raw = os.environ.get("REPRO_OBS_MAX_BYTES", "").strip()
            max_bytes = int(raw) if raw else 0
        self.max_bytes = max_bytes
        self.rotations = 0
        self._fh = open(self.path, "a")

    def emit(self, event):
        if self._fh.closed:
            return
        line = json.dumps(event, sort_keys=True) + "\n"
        if self.max_bytes:
            try:
                size = self._fh.tell()
            except (OSError, ValueError):
                size = 0
            if size and size + len(line) > self.max_bytes:
                self._rotate()
        self._fh.write(line)
        self._fh.flush()

    def _rotate(self):
        self._fh.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:
            pass  # another writer rotated first; just reopen
        self._fh = open(self.path, "a")
        self.rotations += 1
        if self.rotations == 1:
            print(
                "repro.obs: span stream %s exceeded REPRO_OBS_MAX_BYTES=%d "
                "— rotated to %s.1 (warning once)"
                % (self.path, self.max_bytes, self.path),
                file=sys.stderr,
            )
        # Re-anchor the fresh generation so trace export can still align
        # this process's clock.
        self._fh.write(json.dumps(_meta_event(), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self):
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


def _close_sink_at_exit():
    """``atexit`` hook: flush/close whatever sink is live at shutdown."""
    if _sink is not None:
        try:
            _sink.close()
        except Exception:
            pass


def _meta_event():
    """Per-process clock anchor: the wall-clock instant corresponding to
    a known ``ts`` offset.  ``ts`` is relative to each process's private
    import-time epoch, so without an anchor a multi-process stream's
    timelines cannot be laid out on one axis; with one,
    ``wall_at(ts) = wall0 + (ts - ts0)`` aligns every process."""
    return {
        "kind": "meta",
        "pid": os.getpid(),
        "wall0": time.time(),
        "ts0": time.perf_counter() - _EPOCH,
    }


def enable(sink=None, opcode_sampling=False):
    """Turn collection on.  ``sink=None`` means aggregate-only."""
    global enabled, _sink, _opcode_sampling, _atexit_registered
    _sink = sink
    _opcode_sampling = opcode_sampling
    enabled = True
    if isinstance(sink, JsonlSink):
        sink.emit(_meta_event())
    if not _atexit_registered:
        atexit.register(_close_sink_at_exit)
        _atexit_registered = True


def disable():
    """Turn collection off and close the sink (aggregates are kept)."""
    global enabled, _sink, _opcode_sampling
    if _sink is not None:
        _sink.close()
    _sink = None
    _opcode_sampling = False
    enabled = False


def reset():
    """Clear every aggregate (counters, gauges, histograms, spans)."""
    _counters.clear()
    _gauges.clear()
    _hists.clear()
    _span_agg.clear()


def sink():
    return _sink


def opcode_sampling():
    """True when per-opcode histograms should be collected."""
    return enabled and _opcode_sampling


def configure_from_env(env=None):
    """Apply ``REPRO_OBS`` / ``REPRO_OBS_OPCODES``; returns True if enabled."""
    env = os.environ if env is None else env
    spec = env.get("REPRO_OBS", "").strip()
    if not spec or spec == "0" or spec.lower() == "off":
        return False
    sampling = env.get("REPRO_OBS_OPCODES", "").strip() not in ("", "0")
    if spec.startswith("jsonl:"):
        enable(JsonlSink(spec[len("jsonl:"):]), opcode_sampling=sampling)
    elif spec.lower() in ("1", "on", "memory", "mem"):
        enable(MemorySink(), opcode_sampling=sampling)
    else:
        raise ValueError(
            "unrecognized REPRO_OBS=%r (expected jsonl:<path>, memory, or 0)" % spec
        )
    return True


def export_spec():
    """Picklable description of the current configuration.

    Returns None when disabled; otherwise a dict a worker process can
    hand to :func:`apply_spec` to reproduce the parent's observability
    setup (sink kind, JSONL path, opcode-sampling flag).  This is how
    :func:`repro.dse.scheduler.run_tasks` propagates ``REPRO_OBS`` into
    children, which otherwise start with whatever the *import-time*
    environment said — i.e. disabled whenever the parent enabled
    observability programmatically.
    """
    if not enabled:
        return None
    max_bytes = 0
    if isinstance(_sink, JsonlSink):
        kind, path = "jsonl", _sink.path
        max_bytes = _sink.max_bytes
    elif isinstance(_sink, MemorySink):
        kind, path = "memory", None
    elif _sink is None:
        kind, path = "aggregate", None
    else:
        kind, path = "null", None
    spec = {"kind": kind, "path": path, "opcodes": _opcode_sampling,
            "max_bytes": max_bytes}
    ctx = _TRACE_CTX.get()
    if ctx is not None:
        # the exporting span becomes the worker's root parent — this is
        # the cross-process half of the span hierarchy
        spec["trace"] = {"trace_id": ctx[0], "parent_id": ctx[1]}
    from repro.obs import profile as _profile

    prof_spec = _profile.export_spec()
    if prof_spec is not None:
        spec["profile"] = prof_spec
    from repro.obs import metrics as _metrics

    if _metrics.snapshot_dir() is not None:
        spec["metrics"] = {"dir": _metrics.snapshot_dir()}
    return spec


def apply_spec(spec):
    """Recreate the configuration described by :func:`export_spec`.

    ``None`` disables.  A JSONL spec reopens the same file in append
    mode — emits are single flushed writes, so many workers can share
    one stream.  A ``trace`` entry joins the exporter's trace: this
    process's root spans parent under the exporting span (overriding
    any context inherited across ``fork``, so fork and spawn children
    behave identically).

    Applying a spec starts this process's metrics window as a worker:
    the registry is cleared, so aggregates inherited across ``fork``
    are never counted twice when the coordinator merges its workers'
    snapshots, and snapshots from here on carry no gauges.  A
    ``metrics`` entry names the directory :func:`repro.obs.metrics.flush`
    writes to.
    """
    global _is_child
    if spec is None:
        if enabled:
            disable()
        return
    reset()
    _is_child = True
    kind = spec.get("kind")
    sampling = bool(spec.get("opcodes"))
    if kind == "jsonl":
        enable(JsonlSink(spec["path"], max_bytes=spec.get("max_bytes", 0)),
               opcode_sampling=sampling)
    elif kind == "memory":
        enable(MemorySink(), opcode_sampling=sampling)
    elif kind == "null":
        enable(NullSink(), opcode_sampling=sampling)
    else:
        enable(sink=None, opcode_sampling=sampling)
    trace = spec.get("trace")
    if trace is not None:
        adopt_trace_context(trace.get("trace_id"), trace.get("parent_id"))
    if spec.get("profile") is not None:
        from repro.obs import profile as _profile

        _profile.apply_spec(spec["profile"])
    from repro.obs import metrics as _metrics

    _metrics.set_snapshot_dir((spec.get("metrics") or {}).get("dir"))


# ----------------------------------------------------------------------
# spans


class _Span:
    __slots__ = ("name", "attrs", "_t0", "_ids", "_token")

    def __init__(self, name, attrs):
        self.name = name
        self.attrs = attrs
        self._t0 = None
        self._ids = None
        self._token = None

    def __enter__(self):
        global _depth
        _depth += 1
        if _sink is not None:
            # Hierarchy ids only matter when events stream somewhere;
            # aggregate-only collection skips the contextvar traffic.
            ctx = _TRACE_CTX.get()
            if ctx is None:
                trace_id, parent_id = _new_trace_id(), None
            else:
                trace_id, parent_id = ctx
            span_id = _new_span_id()
            self._ids = (trace_id, span_id, parent_id)
            self._token = _TRACE_CTX.set((trace_id, span_id))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        global _depth
        seconds = time.perf_counter() - self._t0
        _depth -= 1
        agg = _span_agg.get(self.name)
        if agg is None:
            _span_agg[self.name] = [1, seconds, seconds]
        else:
            agg[0] += 1
            agg[1] += seconds
            if seconds > agg[2]:
                agg[2] = seconds
        if self._token is not None:
            try:
                _TRACE_CTX.reset(self._token)
            except ValueError:
                # entered in a different Context (e.g. a worker adopted
                # the spec mid-span); fall back to restoring the parent
                _TRACE_CTX.set((self._ids[0], self._ids[2]))
            self._token = None
        if _sink is not None:
            event = {"kind": "span", "name": self.name,
                     "seconds": seconds, "depth": _depth,
                     "ts": self._t0 - _EPOCH, "pid": os.getpid(),
                     "tid": _tid()}
            if self._ids is not None:
                event["trace_id"] = self._ids[0]
                event["span_id"] = self._ids[1]
                if self._ids[2] is not None:
                    event["parent_id"] = self._ids[2]
            if exc_type is not None:
                event["error"] = exc_type.__name__
            if self.attrs:
                event["attrs"] = self.attrs
            _sink.emit(event)
        return False


class _NoopSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NOOP_SPAN = _NoopSpan()


def span(name, **attrs):
    """Context manager timing one region; no-op singleton when disabled."""
    if not enabled:
        return _NOOP_SPAN
    return _Span(name, attrs or None)


def timed(name):
    """Decorator form of :func:`span`."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            if not enabled:
                return fn(*args, **kwargs)
            with _Span(name, None):
                return fn(*args, **kwargs)
        return inner
    return wrap


# ----------------------------------------------------------------------
# the metrics registry: counters, gauges, histograms


#: Histogram bucket growth factor.  2**0.25 keeps quantile overestimates
#: under ~19% while a seconds-scale histogram (1us..100s) stays ~70
#: buckets.
BASE = 2.0 ** 0.25
_LOG_BASE = math.log(BASE)


class Histogram:
    """Sparse log-bucketed histogram with exact merge."""

    __slots__ = ("count", "sum", "min", "max", "zero", "buckets")

    def __init__(self):
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None
        self.zero = 0
        self.buckets = {}  # bucket index -> count

    def observe(self, value):
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if value > 0.0:
            idx = int(math.ceil(math.log(value) / _LOG_BASE - 1e-9))
            self.buckets[idx] = self.buckets.get(idx, 0) + 1
        else:
            self.zero += 1

    def quantile(self, q):
        """Upper-bound estimate of the ``q``-th percentile (0..100)."""
        if self.count == 0:
            return 0.0
        target = max(1, int(math.ceil(q / 100.0 * self.count)))
        cum = self.zero
        if cum >= target:
            return min(self.min, 0.0)
        for idx in sorted(self.buckets):
            cum += self.buckets[idx]
            if cum >= target:
                return min(BASE ** idx, self.max)
        return self.max

    @property
    def mean(self):
        return self.sum / self.count if self.count else 0.0

    def merge(self, other):
        """Fold another histogram (or its dict form) into this one."""
        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self.zero += other.zero
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n

    def to_dict(self):
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "zero": self.zero,
            "base": BASE,
            "buckets": {str(i): n for i, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data):
        base = data.get("base", BASE)
        if abs(base - BASE) > 1e-9:
            raise ValueError("histogram bucket base mismatch: %r" % base)
        h = cls()
        h.count = int(data.get("count", 0))
        h.sum = float(data.get("sum", 0.0))
        h.min = data.get("min")
        h.max = data.get("max")
        h.zero = int(data.get("zero", 0))
        h.buckets = {int(i): int(n) for i, n in (data.get("buckets") or {}).items()}
        return h


def counter(name, value=1):
    """Add ``value`` to the monotonic counter ``name``."""
    if not enabled:
        return
    _counters[name] = _counters.get(name, 0) + value


def gauge(name, value):
    """Record the latest value of ``name``."""
    if not enabled:
        return
    _gauges[name] = value


def observe(name, value):
    """Fold ``value`` into the histogram ``name``."""
    if not enabled:
        return
    h = _hists.get(name)
    if h is None:
        h = _hists[name] = Histogram()
    h.observe(value)


class _Timer:
    __slots__ = ("name", "_t0")

    def __init__(self, name):
        self.name = name
        self._t0 = None

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        observe(self.name, time.perf_counter() - self._t0)
        return False


def timer(name):
    """Context manager observing its wall time into histogram ``name``;
    the disabled span singleton when obs is off."""
    if not enabled:
        return _NOOP_SPAN
    return _Timer(name)


def histograms():
    """The live histogram registry (name -> Histogram)."""
    return _hists


def proc_token():
    """Unique id for this process incarnation (stable until fork/exec)."""
    global _proc_token
    pid = os.getpid()
    if _proc_token is None or _proc_token[0] != pid:
        _proc_token = (pid, "%d-%s" % (pid, os.urandom(3).hex()))
    return _proc_token[1]


def emit(event):
    """Send one raw event dict to the sink (no-op without a sink)."""
    if _sink is not None:
        _sink.emit(event)


# ----------------------------------------------------------------------
# snapshots and windows


def _span_dict(agg):
    return {"count": agg[0], "seconds": agg[1], "max_seconds": agg[2]}


def snapshot():
    """This process's aggregates as plain JSON-serializable dicts.

    The one snapshot format: ``proc`` (a per-incarnation token, so a
    reused pid is never mistaken for the same process) and ``pid``,
    then ``counters``, ``gauges``, ``histograms`` and ``spans``.  A
    worker (:func:`apply_spec`) reports what it did since it adopted
    the spec, and no gauges.
    """
    return {
        "schema": SCHEMA_VERSION,
        "proc": proc_token(),
        "pid": os.getpid(),
        "counters": dict(_counters),
        "gauges": {} if _is_child else dict(_gauges),
        "histograms": {n: h.to_dict() for n, h in sorted(_hists.items())},
        "spans": {k: _span_dict(v) for k, v in _span_agg.items()},
    }


def mark():
    """Opaque marker of the current totals, for :func:`since`."""
    return dict(_counters), {k: list(v) for k, v in _span_agg.items()}


def since(marker):
    """Window since ``marker``: counter and span deltas, current gauges.

    Histograms are left out (read them from :func:`snapshot`): a window
    is opened per design point, and copying every histogram into each
    one measurably slowed the per-point path.
    """
    counters0, spans0 = marker
    counters = {}
    for name, value in _counters.items():
        d = value - counters0.get(name, 0)
        if d:
            counters[name] = d
    spans = {}
    for name, agg in _span_agg.items():
        prev = spans0.get(name, (0, 0.0, 0.0))
        if agg[0] != prev[0]:
            spans[name] = {"count": agg[0] - prev[0],
                           "seconds": agg[1] - prev[1]}
    return {
        "schema": SCHEMA_VERSION,
        "counters": counters,
        "gauges": dict(_gauges),
        "spans": spans,
    }


def stage_timings(spans):
    """Extract ``{stage: {count, seconds}}`` rows from a span-delta dict."""
    out = {}
    for stage in STAGES:
        row = spans.get("stage." + stage)
        if row is not None:
            out[stage] = {"count": row["count"],
                          "seconds": row["seconds"]}
    return out


configure_from_env()
