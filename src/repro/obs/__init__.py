"""Lightweight, dependency-free observability for the PowerFITS pipeline.

Spans (nested wall-clock timing), one metrics registry (counters,
gauges and log-bucketed histograms) and pluggable sinks instrument
every layer of the compile → profile → synthesize → translate →
simulate/power flow.  See :mod:`repro.obs.core` for the API and the
``REPRO_OBS`` environment switch, :mod:`repro.obs.metrics` for merging
snapshots across processes and OpenMetrics exposition, and run
``python -m repro.obs.report`` for per-benchmark and per-stage
timing/counter tables over cached run manifests.

Typical use::

    from repro import obs

    obs.enable(obs.MemorySink())
    with obs.span("stage.compile"):
        ...
    obs.counter("regalloc.spills", 3)
    obs.observe("regalloc.spills_per_function", 3)
    with obs.timer("compile.seconds"):
        ...
    print(obs.snapshot()["histograms"])
"""

from repro.obs.core import (
    SCHEMA_VERSION,
    STAGES,
    JsonlSink,
    MemorySink,
    NullSink,
    adopt_trace_context,
    apply_spec,
    configure_from_env,
    trace_context,
    counter,
    disable,
    emit,
    enable,
    export_spec,
    gauge,
    histograms,
    mark,
    observe,
    opcode_sampling,
    reset,
    since,
    snapshot,
    span,
    stage_timings,
    timed,
    timer,
)
from repro.obs import core
from repro.obs import metrics

__all__ = [
    "metrics",
    "SCHEMA_VERSION",
    "STAGES",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "adopt_trace_context",
    "apply_spec",
    "configure_from_env",
    "core",
    "trace_context",
    "counter",
    "disable",
    "emit",
    "enable",
    "enabled",
    "export_spec",
    "gauge",
    "histograms",
    "mark",
    "observe",
    "opcode_sampling",
    "reset",
    "since",
    "snapshot",
    "span",
    "stage_timings",
    "timed",
    "timer",
]


def __getattr__(name):
    # ``obs.enabled`` must always reflect the live flag in core, not a
    # stale import-time copy.
    if name == "enabled":
        return core.enabled
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
