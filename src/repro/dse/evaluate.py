"""Evaluate one (benchmark, design point) pair.

This is the DSE worker's unit of work: build/compile the workload for
the point's ISA, run it to completion on the matching functional
simulator (checksums validated against the pure-Python reference), then
drive the trace through the timing model and the cache power model at
the point's cache geometry / tech node / fetch width.

The per-ISA functional work (compile + simulate, and for FITS the whole
synthesis flow) dominates the cost and is independent of the cache
axes.  A sweep makes each (benchmark, ISA) unit one task
(:func:`repro.dse.scheduler._chunk_tasks`), so a task builds its unit
once.  The build is also memoized per ``(benchmark, scale, isa)`` for
later work on the same unit in this process: the harness reads its
images and FITS extras back after evaluating them, and a persistent
pool worker reuses a build when a retried task, a resumed sweep or a
later serve job brings the unit back.  The memo keeps a small LRU of
benchmark groups (:data:`FUNC_CACHE_GROUPS`) to bound memory.  Across
processes and sessions the persistent trace store
(:mod:`repro.sim.functional.store`) removes the functional simulation
entirely on a warm cache, and its unit records remove the build: a unit
whose record is stored (keyed by workload, scale, ISA and
:data:`repro.fingerprint.FLOW`) loads its image — for FITS, with the
flow's kept budget and dynamic mapping — and compiles nothing.

Cache points are further batched by :func:`evaluate_points`: all points
of one ``(benchmark, scale, isa)`` share the geometry-invariant timing
precomputation and a single stack-distance pass per block size
(:class:`~repro.sim.pipeline.TimingBatch`), instead of one full LRU
simulation per point.

The paper's four configurations are the ``paper4`` preset, and the
harness (:func:`repro.harness.runner.run_benchmark`) evaluates them
through :func:`evaluate_points` — there is no second pipeline.  A
paper-default point uses the default :class:`TimingConfig` and
``CachePowerModel(CacheGeometry(size))``; the test suite holds the
harness's configs bit-identical to an independent per-access
``simulate_timing`` oracle (``tests/oracles.py``).

Every result blob records the result fingerprint
(:data:`repro.fingerprint.RESULT`) of the code that computed it.
"""

import sys
import time
from collections import OrderedDict

from repro import obs
from repro.compiler import compile_arm, compile_thumb
from repro.core.flow import fits_flow, run_fits
from repro.dse.space import DesignPoint
from repro.dse.store import RESULT_SCHEMA
from repro.fingerprint import FLOW, RESULT, fingerprint
from repro.power import CachePowerModel
from repro.power.technology import tech_node
from repro.sim.cache import CacheGeometry
from repro.sim.functional import ArmSimulator, cached_run
from repro.sim.functional.store import get_store
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.pipeline import TimingBatch, TimingConfig
from repro.workloads import get_workload

#: How many (benchmark, scale) groups the functional memo keeps.  A
#: sweep task is one (benchmark, ISA) unit and builds it once; the memo
#: serves later work on a recent unit in the same process — the
#: harness's read-back of its images, a retried task, a resumed sweep or
#: a later serve job — and evicts whole benchmarks to bound memory.
FUNC_CACHE_GROUPS = 2

#: (benchmark, scale, isa) → (image, ExecutionResult, extras) — see
#: :func:`_functional`.
_FUNC_CACHE = {}
_FUNC_GROUPS = OrderedDict()  # (benchmark, scale) → True, LRU order


def _functional(name, scale, isa):
    """The built and functionally simulated unit (benchmark, scale, isa).

    Returns ``(image, result, extras)``.  For FITS, ``extras`` holds what
    the flow knows beyond its image — the chosen register ``budget`` and
    the ``dynamic_mapping`` rate — so the memo never keeps the
    :class:`~repro.core.flow.FitsFlowResult` and its ARM trace alive.
    It is empty for ARM and Thumb.  The image and extras come from the
    trace store's unit record when it holds one, else from a build
    (:func:`_build`), which is then recorded.
    """
    key = (name, scale, isa)
    group = (name, scale)
    hit = _FUNC_CACHE.get(key)
    if hit is not None:
        _FUNC_GROUPS[group] = True
        _FUNC_GROUPS.move_to_end(group)
        return hit
    if isa not in _RUNNERS:
        raise ValueError("unknown ISA %r" % (isa,))
    # bound memory by evicting whole least-recently-used benchmark
    # groups once the budget is exceeded
    _FUNC_GROUPS[group] = True
    _FUNC_GROUPS.move_to_end(group)
    while len(_FUNC_GROUPS) > FUNC_CACHE_GROUPS:
        victim, _ = _FUNC_GROUPS.popitem(last=False)
        for old in [k for k in _FUNC_CACHE if (k[0], k[1]) == victim]:
            del _FUNC_CACHE[old]

    from repro.obs import profile as obs_profile  # lazy: keeps worker start-up lean

    wl = get_workload(name)
    store = get_store()
    record = "%s-%s-%s-%s" % (name, scale, isa, fingerprint(FLOW))
    # every simulation below, the FITS flow's included, is attributed to
    # this benchmark: in trace-store manifests and block-profile records
    with obs_profile.run_context(benchmark=name, scale=scale):
        unit = store.load_unit(record) if store is not None else None
        if unit is None:
            unit = _build(wl.build_module(scale), isa)
            if store is not None:
                # before any timing memo attaches to the image
                try:
                    store.save_unit(record, *unit)
                except OSError as exc:
                    print("trace store: unit record save failed (%s)" % exc,
                          file=sys.stderr)
        image, extras = unit
        result = _RUNNERS[isa](image)
    if result.exit_code != wl.reference(scale):
        raise AssertionError(
            "%s/%s: %s checksum mismatch (%r != %r)"
            % (name, scale, isa, result.exit_code, wl.reference(scale))
        )
    _FUNC_CACHE[key] = (image, result, extras)
    return _FUNC_CACHE[key]


def _build(module, isa):
    """A fresh unit's ``(image, extras)``: one compile, or for FITS the
    whole :func:`fits_flow` (whose FITS trace the store then holds)."""
    if isa == "arm":
        return compile_arm(module), {}
    if isa == "thumb":
        return compile_thumb(module), {}
    flow = fits_flow(module)
    return flow.fits_image, {"budget": flow.budget,
                             "dynamic_mapping": flow.dynamic_mapping}


#: ISA → the trace of an image, through the trace store.
_RUNNERS = {
    "arm": lambda image: cached_run("arm", image, ArmSimulator(image).run),
    "thumb": lambda image: cached_run("thumb", image,
                                      ThumbSimulator(image).run),
    "fits": run_fits,
}


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
    """The cache power model at one point; paper-default points use the
    geometry-only call shape the paper's configurations are defined by."""
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
    identical result blobs: point echo, result fingerprint, metrics, and
    a run manifest (per-stage timings + counters).  The power model must
    consume exactly the cache model's numbers: over the window, the
    I-cache totals both publish must agree.
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
    obs.observe("dse.point.seconds", wall)

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
        "fingerprint": fingerprint(RESULT),
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
    image, result, _extras = _functional(benchmark, scale, point.isa)
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
                    image, result, _extras = _functional(benchmark, scale, isa)
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
