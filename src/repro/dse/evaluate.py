"""Evaluate one (benchmark, design point) pair.

This is the DSE worker's unit of work: build/compile the workload for
the point's ISA, run it to completion on the matching functional
simulator (checksums validated against the pure-Python reference), then
drive the trace through the timing model and the cache power model at
the point's cache geometry / tech node / fetch width.

The per-ISA functional work (compile + simulate, and for FITS the whole
synthesis flow) dominates the cost and is independent of the cache
axes, so it is memoized per ``(benchmark, scale, isa)``: a worker
evaluating many cache geometries for one benchmark compiles and
simulates each ISA once.  The memo keeps a small LRU of benchmark
groups (:data:`FUNC_CACHE_GROUPS`) to bound memory while letting a
persistent pool worker interleave chunks from concurrent jobs without
thrashing.  Across processes and sessions the persistent
trace store (:mod:`repro.sim.functional.store`) removes the functional
simulation entirely on a warm cache.

Cache points are further batched by :func:`evaluate_points`: all points
of one ``(benchmark, scale, isa)`` share the geometry-invariant timing
precomputation and a single stack-distance pass per block size
(:class:`~repro.sim.pipeline.TimingBatch`), instead of one full LRU
simulation per point.

For the paper's four configurations, the single-point evaluation path
below is *exactly* the harness's path — a :class:`TimingBatch` report
with the default :class:`TimingConfig` and
``CachePowerModel(CacheGeometry(size))``, itself bit-identical to
``simulate_timing(result, size)`` (asserted by the test suite) — so
FITS16/FITS8 numbers reproduce bit-identically through the scheduler.
"""

import time
from collections import OrderedDict

from repro import obs
from repro.compiler import compile_arm, compile_thumb
from repro.core.flow import fits_flow
from repro.dse.space import DesignPoint
from repro.dse.store import RESULT_SCHEMA
from repro.power import CachePowerModel
from repro.power.technology import tech_node
from repro.sim.cache import CacheGeometry
from repro.sim.functional import ArmSimulator, cached_run
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.pipeline import TimingBatch, TimingConfig
from repro.workloads import get_workload

#: How many (benchmark, scale) groups the functional memo keeps.
#: Persistent pool workers interleave chunks from different benchmarks
#: (fair-share across concurrent serve jobs), so the memo holds the most
#: recently used groups rather than a single benchmark.
FUNC_CACHE_GROUPS = 2

#: (benchmark, scale, isa) → (image, ExecutionResult) — see
#: :func:`_functional`.
_FUNC_CACHE = {}
_FUNC_GROUPS = OrderedDict()  # (benchmark, scale) → True, LRU order


def _functional(name, scale, isa):
    """Compile + functionally simulate one (benchmark, scale, isa)."""
    key = (name, scale, isa)
    group = (name, scale)
    hit = _FUNC_CACHE.get(key)
    if hit is not None:
        _FUNC_GROUPS[group] = True
        _FUNC_GROUPS.move_to_end(group)
        return hit
    # bound memory by evicting whole least-recently-used benchmark
    # groups once the budget is exceeded
    _FUNC_GROUPS[group] = True
    _FUNC_GROUPS.move_to_end(group)
    while len(_FUNC_GROUPS) > FUNC_CACHE_GROUPS:
        victim, _ = _FUNC_GROUPS.popitem(last=False)
        for old in [k for k in _FUNC_CACHE if (k[0], k[1]) == victim]:
            del _FUNC_CACHE[old]

    wl = get_workload(name)
    module = wl.build_module(scale)
    if isa == "arm":
        image = compile_arm(module)
        result = cached_run("arm", image, ArmSimulator(image).run,
                            benchmark=name, scale=scale)
    elif isa == "thumb":
        image = compile_thumb(module)
        result = cached_run("thumb", image, ThumbSimulator(image).run,
                            benchmark=name, scale=scale)
    elif isa == "fits":
        flow = fits_flow(module)
        image, result = flow.fits_image, flow.fits_result
    else:
        raise ValueError("unknown ISA %r" % (isa,))
    if result.exit_code != wl.reference(scale):
        raise AssertionError(
            "%s/%s: %s checksum mismatch (%r != %r)"
            % (name, scale, isa, result.exit_code, wl.reference(scale))
        )
    _FUNC_CACHE[key] = (image, result)
    return image, result


def _is_paper_default(point):
    """True when the point's non-size axes match the paper's defaults."""
    return (point.associativity == 32 and point.block_bytes == 32
            and point.tech == "350nm" and point.fetch_bits == 32)


def _point_config(point):
    """The :class:`TimingConfig` the classic per-point path would use."""
    if _is_paper_default(point):
        return TimingConfig()
    return TimingConfig(
        icache_block=point.block_bytes,
        icache_assoc=point.associativity,
        frequency_hz=tech_node(point.tech).frequency_hz,
    )


def _power_for(point, timing):
    """The cache power model at one point, matching the harness's call
    shape exactly for paper-default points (bit-for-bit floats)."""
    if _is_paper_default(point):
        return CachePowerModel(CacheGeometry(point.icache_bytes)).evaluate(timing)
    return CachePowerModel(
        point.geometry(), tech_node(point.tech), fetch_bits=point.fetch_bits
    ).evaluate(timing)


def _metrics(image, timing, power):
    sw, internal, leak = power.breakdown()
    return {
        "code_size": image.code_size,
        "instructions": timing.instructions,
        "cycles": timing.cycles,
        "ipc": timing.ipc,
        "seconds": timing.seconds,
        "icache_requests": timing.icache_requests,
        "icache_line_accesses": timing.icache_line_accesses,
        "icache_misses": timing.icache_misses,
        "mpm": timing.icache_misses_per_million,
        "dcache_accesses": timing.dcache_accesses,
        "dcache_misses": timing.dcache_misses,
        "switching_w": power.switching_w,
        "internal_w": power.internal_w,
        "leakage_w": power.leakage_w,
        "total_w": power.total_w,
        "peak_w": power.peak_w,
        "switching_j": power.switching_j,
        "internal_j": power.internal_j,
        "leakage_j": power.leakage_j,
        "icache_energy_j": power.energy_j,
        "frac_switching": sw,
        "frac_internal": internal,
        "frac_leakage": leak,
    }


def _finish(benchmark, point, scale, compute):
    """Run ``compute()`` in its own obs window and package the blob.

    Shared by the single-point and batched paths, so both produce
    identical result blobs: point echo, metrics, and a run manifest
    (per-stage timings + counters) mirroring the harness's.
    """
    was_enabled = obs.core.enabled
    if not was_enabled:
        obs.enable(sink=None)
    marker = obs.mark()
    t0 = time.perf_counter()
    try:
        with obs.span("stage.dse.point", benchmark=benchmark,
                      point=point.point_id):
            metrics = compute()
        window = obs.since(marker)
    finally:
        if not was_enabled:
            obs.disable()
    wall = time.perf_counter() - t0
    from repro.obs import metrics as obs_metrics

    obs_metrics.observe("dse.point.seconds", wall)

    counters = window["counters"]
    for cache_key, power_key in (
        ("cache.icache.misses", "power.icache.misses"),
        ("cache.icache.accesses", "power.icache.line_accesses"),
    ):
        if counters.get(cache_key, 0) != counters.get(power_key, 0):
            raise AssertionError(
                "%s %s: %s=%s vs %s=%s — power model consumed different "
                "cache statistics than the cache model produced"
                % (benchmark, point.point_id, cache_key,
                   counters.get(cache_key, 0), power_key,
                   counters.get(power_key, 0))
            )

    return {
        "schema": RESULT_SCHEMA,
        "benchmark": benchmark,
        "scale": scale,
        "point": point.to_dict(),
        "metrics": metrics,
        "manifest": {
            "schema": obs.SCHEMA_VERSION,
            "benchmark": benchmark,
            "scale": scale,
            "point": point.point_id,
            "label": point.label,
            "wall_seconds": wall,
            "stages": obs.stage_timings(window["spans"]),
            "counters": window["counters"],
        },
    }


def evaluate_point(benchmark, point, scale="full"):
    """Full evaluation of one design point on one benchmark."""
    if not isinstance(point, DesignPoint):
        point = DesignPoint.from_dict(point)
    return _finish(benchmark, point, scale,
                   lambda: _evaluate(benchmark, point, scale))


def _evaluate(benchmark, point, scale):
    image, result = _functional(benchmark, scale, point.isa)
    # single-spec batch: same reports as simulate_timing, but through
    # the columnar stack-distance replay instead of a full LRU walk
    config = _point_config(point)
    batch = TimingBatch(result, [(point.icache_bytes, config)])
    timing = batch.report(point.icache_bytes, config)
    return _metrics(image, timing, _power_for(point, timing))


def evaluate_points(benchmark, points, scale="full"):
    """Evaluate many design points of one benchmark, batched.

    Points are grouped by ISA; each group shares one functional
    simulation (memo + persistent trace store) and one
    :class:`~repro.sim.pipeline.TimingBatch` — i.e. one stack-distance
    pass per distinct block size instead of a full LRU simulation per
    point.  The shared passes run lazily inside the group's *first*
    point window, so every point manifest still records a ``simulate``
    stage and consistent cache/power counters.

    Yields ``(point, blob, error)`` in input order within each ISA
    group; exactly one of ``blob`` / ``error`` is set per point.
    """
    pts = [p if isinstance(p, DesignPoint) else DesignPoint.from_dict(p)
           for p in points]
    groups = {}
    for p in pts:
        groups.setdefault(p.isa, []).append(p)

    for isa, group in groups.items():
        state = {}

        def shared(isa=isa, group=group, state=state):
            if "error" in state:
                raise state["error"]
            if "batch" not in state:
                try:
                    image, result = _functional(benchmark, scale, isa)
                    specs = [(p.icache_bytes, _point_config(p)) for p in group]
                    state["image"] = image
                    state["batch"] = TimingBatch(result, specs)
                except Exception as exc:
                    state["error"] = exc
                    raise
            return state["image"], state["batch"]

        def compute(point, shared=shared):
            image, batch = shared()
            timing = batch.report(point.icache_bytes, _point_config(point))
            return _metrics(image, timing, _power_for(point, timing))

        for point in group:
            try:
                blob = _finish(benchmark, point, scale,
                               lambda point=point: compute(point))
            except Exception as exc:
                yield point, None, exc
            else:
                yield point, blob, None
