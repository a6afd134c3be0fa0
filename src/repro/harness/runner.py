"""Per-benchmark experiment runner with on-disk caching.

For one benchmark, :func:`run_benchmark` produces everything the paper's
figures consume:

* ARM / Thumb / FITS code sizes and ARM→FITS mapping rates,
* timing and cache-power results for the four simulated configurations
  — ARM16, ARM8, FITS16, FITS8 (ISA × I-cache size, Section 5),
* chip-level power per configuration (calibrated to the ARM16 baseline),
* a **run manifest**: schema/cache versions, per-stage wall-clock spans
  (compile / profile / synthesize / translate / simulate) and every
  observability counter the run produced, cross-checked for consistency
  between the cache model and the power model's inputs.

Summaries are plain dicts cached as JSON under ``.bench_cache/`` so the
figure scripts and pytest benchmarks never recompute a benchmark that
has already been simulated at the same scale.  Cached blobs embed their
``cache_version`` and manifest schema; stale blobs are skipped with a
warning and recomputed — no manual filename bookkeeping required.
"""

import json
import os
import sys
import tempfile
import time

from repro import obs
from repro.compiler import compile_arm, compile_thumb
from repro.sim.functional import ArmSimulator, cached_run
from repro.sim.functional.thumb_sim import ThumbSimulator
from repro.sim.pipeline import TimingBatch
from repro.sim.cache import CacheGeometry
from repro.power import CachePowerModel, ChipPowerModel
from repro.core.flow import fits_flow
from repro.workloads import get_workload, POWER_STUDY_BENCHMARKS, CODE_SIZE_BENCHMARKS

#: The paper's four processor configurations: (label, isa, i-cache bytes).
CONFIGS = [
    ("ARM16", "arm", 16 * 1024),
    ("ARM8", "arm", 8 * 1024),
    ("FITS16", "fits", 16 * 1024),
    ("FITS8", "fits", 8 * 1024),
]

#: Bump when the summary layout changes.  The version is stored *inside*
#: each cached blob (alongside the obs schema version) and checked on
#: load, so stale caches invalidate themselves instead of relying on a
#: version-suffixed filename.
CACHE_VERSION = 8


def _repo_root():
    """Repository (or package-install) root, independent of the CWD."""
    here = os.path.dirname(os.path.abspath(__file__))
    probe = here
    for _ in range(8):
        if any(
            os.path.exists(os.path.join(probe, marker))
            for marker in ("pyproject.toml", "setup.py", ".git")
        ):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            break
        probe = parent
    # src/repro/harness/runner.py → the directory containing src/
    return os.path.dirname(os.path.dirname(os.path.dirname(here)))


def _cache_dir():
    """Resolve the summary cache directory.

    ``REPRO_CACHE_DIR`` (with ``~`` expanded) wins; otherwise the cache
    lives under the repository root — never the caller's CWD, so cache
    hits don't depend on where pytest was launched.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        root = os.path.expanduser(root)
    else:
        root = os.path.join(_repo_root(), ".bench_cache")
    os.makedirs(root, exist_ok=True)
    return root


def _cache_path(name, scale):
    return os.path.join(_cache_dir(), "%s-%s.json" % (name, scale))


def _load_cached(path):
    """Load one cached summary; None (with a warning) when stale/corrupt."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    manifest = data.get("manifest") or {}
    cache_version = manifest.get("cache_version")
    schema = manifest.get("schema")
    if cache_version != CACHE_VERSION or schema != obs.SCHEMA_VERSION:
        print(
            "warning: stale benchmark cache %s (cache v%s schema v%s, "
            "want v%d/v%d) — recomputing" % (
                os.path.basename(path), cache_version, schema,
                CACHE_VERSION, obs.SCHEMA_VERSION,
            ),
            file=sys.stderr,
        )
        return None
    return data


class BenchmarkSummary:
    """JSON-serializable results for one benchmark at one scale."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, key):
        return self.data[key]

    @property
    def name(self):
        return self.data["name"]

    @property
    def manifest(self):
        """The run manifest (versions, per-stage timings, counters)."""
        return self.data.get("manifest", {})

    def config(self, label):
        return self.data["configs"][label]

    def saving(self, label, field, kind="energy"):
        """Fractional saving of ``field`` vs. the ARM16 baseline."""
        base = self.config("ARM16")[field]
        value = self.config(label)[field]
        if base == 0:
            return 0.0
        return 1.0 - value / base


def _record_trajectory(summaries, record_trajectory):
    """Append trajectory records for the given summaries (opt-in hook).

    ``record_trajectory`` is falsy (off), True (default store under
    ``bench_history/``), or a path to the trajectory JSONL.  Returns
    the (added, skipped) counts from the store.
    """
    from repro.obs.regress import (
        TrajectoryStore,
        current_commit,
        records_from_summary,
    )

    path = record_trajectory if isinstance(record_trajectory, str) else None
    store = TrajectoryStore(path)
    commit = current_commit()
    records = []
    for summary in summaries:
        records.extend(records_from_summary(summary, commit))
    return store.append(records)


def run_benchmark(name, scale="full", verbose=False, record_trajectory=False):
    """Run the full study for one benchmark; returns a summary dict.

    The summary always carries a run manifest: when observability is not
    globally enabled, an aggregate-only window (no event sink, so no I/O
    and no per-opcode sampling) is opened just for the duration of this
    run — the instrumentation it activates is stage/function-granular
    and costs well under a percent of a run.

    With ``record_trajectory`` (False, True, or a JSONL path) the run's
    headline metrics are also appended to the metrics trajectory store
    keyed by the current git commit (see :mod:`repro.obs.regress`).
    """
    was_enabled = obs.core.enabled
    if not was_enabled:
        obs.enable(sink=None)
    marker = obs.mark()
    t0 = time.perf_counter()
    try:
        summary = _run_benchmark(name, scale, verbose)
        window = obs.since(marker)
    finally:
        if not was_enabled:
            obs.disable()
    wall = time.perf_counter() - t0

    counters = window["counters"]
    _check_cache_power_consistency(name, counters)
    manifest = {
        "schema": obs.SCHEMA_VERSION,
        "cache_version": CACHE_VERSION,
        "benchmark": name,
        "scale": scale,
        "wall_seconds": wall,
        "stages": obs.stage_timings(window["spans"]),
        "spans": window["spans"],
        "counters": counters,
        "gauges": window["gauges"],
        "distributions": window["distributions"],
    }
    summary["manifest"] = manifest
    obs.emit({"kind": "manifest", "benchmark": name, "manifest": manifest})
    if record_trajectory:
        _record_trajectory([summary], record_trajectory)
    return summary


def _check_cache_power_consistency(name, counters):
    """The power model must consume exactly the cache model's numbers.

    Over one ``run_benchmark`` window every timing report is evaluated by
    the power model exactly once, so the I-cache event totals published
    by :class:`~repro.sim.cache.model.SetAssociativeCache` and the input
    totals published by the power model must agree.
    """
    pairs = [
        ("cache.icache.misses", "power.icache.misses"),
        ("cache.icache.accesses", "power.icache.line_accesses"),
    ]
    for cache_key, power_key in pairs:
        if counters.get(cache_key, 0) != counters.get(power_key, 0):
            raise AssertionError(
                "%s: observability mismatch %s=%s vs %s=%s — the power "
                "model consumed different cache statistics than the cache "
                "model produced" % (
                    name, cache_key, counters.get(cache_key, 0),
                    power_key, counters.get(power_key, 0),
                )
            )


def _run_benchmark(name, scale, verbose):
    wl = get_workload(name)
    arm_image = compile_arm(wl.build_module(scale))
    arm_result = cached_run("arm", arm_image, ArmSimulator(arm_image).run,
                            benchmark=name, scale=scale)
    if arm_result.exit_code != wl.reference(scale):
        raise AssertionError("%s: ARM checksum mismatch" % name)

    thumb_image = compile_thumb(wl.build_module(scale))
    thumb_result = cached_run("thumb", thumb_image,
                              ThumbSimulator(thumb_image).run,
                              benchmark=name, scale=scale)
    if thumb_result.exit_code != wl.reference(scale):
        raise AssertionError("%s: Thumb checksum mismatch" % name)

    flow = fits_flow(wl.build_module(scale))

    results = {"arm": arm_result, "fits": flow.fits_result}
    configs = {}
    timings = {}
    powers = {}
    # one batch per ISA: the stack-distance pass over the columnar trace
    # is shared by that ISA's cache sizes (reports bit-identical to
    # per-size simulate_timing calls)
    batches = {
        isa: TimingBatch(results[isa],
                         [(size, None) for _l, i, size in CONFIGS if i == isa])
        for isa in {isa for _label, isa, _size in CONFIGS}
    }
    for label, isa, size in CONFIGS:
        timing = batches[isa].report(size)
        power = CachePowerModel(CacheGeometry(size)).evaluate(timing)
        timings[label] = timing
        powers[label] = power
    chip = ChipPowerModel(powers["ARM16"], timings["ARM16"])

    for label, isa, size in CONFIGS:
        timing = timings[label]
        power = powers[label]
        chip_report = chip.evaluate(power, timing)
        sw, internal, leak = power.breakdown()
        configs[label] = {
            "cycles": timing.cycles,
            "instructions": timing.instructions,
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
            "total_j": power.energy_j,
            "frac_switching": sw,
            "frac_internal": internal,
            "frac_leakage": leak,
            "chip_w": chip_report.total_w,
            "chip_j": chip_report.total_w * timing.seconds,
        }

    summary = {
        "name": name,
        "scale": scale,
        "arm_code_size": arm_image.code_size,
        "thumb_code_size": thumb_image.code_size,
        "fits_code_size": flow.fits_image.code_size,
        "static_mapping": flow.static_mapping,
        "dynamic_mapping": flow.dynamic_mapping,
        "fits_budget": list(flow.budget) if flow.budget else None,
        "fits_geometry": [flow.isa.k_op, flow.isa.k_reg],
        "fits_opcodes": len(flow.isa.opcode_table),
        "expansion_histogram": {
            str(k): v for k, v in flow.fits_image.expansion_histogram().items()
        },
        "configs": configs,
    }
    if verbose:
        print("ran %s (%s): %d arm bytes, mapping %.3f/%.3f" % (
            name, scale, arm_image.code_size, flow.static_mapping, flow.dynamic_mapping))
    return summary


def _atomic_write_json(path, data):
    """Same-directory temp file + ``os.replace``: readers of the cache
    never see a torn blob, whether the writer is one of many parallel
    workers or a run interrupted by Ctrl-C."""
    parent = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _collect_task(payload):
    """Worker for parallel :func:`collect`: run one benchmark, cache it.

    Results travel through the on-disk cache (atomic writes), never
    through pipes — the same resumable-store discipline the DSE
    scheduler uses, so a crashed or timed-out worker just leaves its
    benchmark uncached for the retry.
    """
    name, scale, verbose = payload["name"], payload["scale"], payload["verbose"]
    data = run_benchmark(name, scale, verbose=verbose)
    _atomic_write_json(_cache_path(name, scale), data)


def collect(scale="full", names=None, verbose=False, use_cache=True, jobs=1,
            record_trajectory=False):
    """All benchmark summaries (cached); returns name → BenchmarkSummary.

    With ``jobs > 1`` (and ``use_cache``), uncached benchmarks are
    evaluated in parallel on the DSE scheduler's process pool
    (:func:`repro.dse.scheduler.run_tasks`): one isolated worker per
    benchmark, results landing in the shared cache via atomic writes,
    with the pool's crash-isolation and retry semantics.

    With ``record_trajectory`` (False, True, or a JSONL path) every
    collected summary — cached or fresh — is appended to the metrics
    trajectory store keyed by the current git commit; duplicates of
    already-recorded (commit, benchmark, config) triples are skipped by
    the store, so repeated collects never inflate the history.
    """
    if names is None:
        names = CODE_SIZE_BENCHMARKS

    def cached(name):
        path = _cache_path(name, scale)
        if use_cache and os.path.exists(path):
            return _load_cached(path)
        return None

    out = {}
    if jobs and jobs > 1 and use_cache:
        missing = [n for n in names if cached(n) is None]
        if missing:
            from repro.dse.scheduler import run_tasks

            payloads = [{"name": n, "scale": scale, "verbose": verbose}
                        for n in missing]
            with obs.span("stage.dse.collect", scale=scale, jobs=jobs,
                          benchmarks=len(missing)):
                results = run_tasks(_collect_task, payloads, jobs=jobs,
                                    label="collect")
            errors = ["%s (%s)" % (r.payload["name"], r.error)
                      for r in results if not r.ok]
            if errors:
                raise RuntimeError(
                    "parallel collect failed for: %s" % ", ".join(errors))

    for name in names:
        data = cached(name)
        if data is not None:
            obs.counter("harness.cache_hits")
        else:
            obs.counter("harness.cache_misses")
            data = run_benchmark(name, scale, verbose=verbose)
            if use_cache:
                _atomic_write_json(_cache_path(name, scale), data)
        out[name] = BenchmarkSummary(data)
    if record_trajectory:
        _record_trajectory(out.values(), record_trajectory)
    return out


def aggregate_manifests(summaries):
    """Fold many run manifests into one per-stage/counter aggregate.

    ``summaries`` is an iterable of :class:`BenchmarkSummary` (or raw
    summary dicts).  Returns per-stage totals (count, seconds), summed
    counters, total wall-clock, and the per-benchmark stage rows —
    everything ``python -m repro.obs.report`` prints.
    """
    stages = {}
    counters = {}
    per_benchmark = {}
    wall = 0.0
    for summary in summaries:
        data = summary.data if hasattr(summary, "data") else summary
        manifest = data.get("manifest") or {}
        name = manifest.get("benchmark", data.get("name", "?"))
        per_benchmark[name] = {
            "scale": manifest.get("scale"),
            "wall_seconds": manifest.get("wall_seconds", 0.0),
            "stages": manifest.get("stages", {}),
        }
        wall += manifest.get("wall_seconds", 0.0)
        for stage, row in (manifest.get("stages") or {}).items():
            agg = stages.setdefault(stage, {"count": 0, "seconds": 0.0})
            agg["count"] += row.get("count", 0)
            agg["seconds"] += row.get("seconds", 0.0)
        for key, value in (manifest.get("counters") or {}).items():
            counters[key] = counters.get(key, 0) + value
    return {
        "benchmarks": per_benchmark,
        "stages": stages,
        "counters": counters,
        "wall_seconds": wall,
    }
