"""Per-benchmark experiment runner with on-disk caching.

For one benchmark, :func:`run_benchmark` produces everything the paper's
figures consume:

* ARM / Thumb / FITS code sizes and ARM→FITS mapping rates,
* timing and cache-power metrics for the four simulated configurations
  — ARM16, ARM8, FITS16, FITS8 (ISA × I-cache size, Section 5) — which
  are the ``paper4`` design points, evaluated by
  :func:`repro.dse.evaluate.evaluate_points` like any other sweep,
* chip-level power per configuration (calibrated to the ARM16 baseline),
* a **run manifest**: schema version, result fingerprint, per-stage
  wall-clock spans (compile / profile / synthesize / translate /
  simulate) and every observability counter the run produced.

Summaries are plain dicts cached as JSON under ``.bench_cache/`` so the
figure scripts and pytest benchmarks never recompute a benchmark that
has already been simulated at the same scale.  Cached blobs embed the
result fingerprint (:mod:`repro.fingerprint`) of the code that computed
them; a blob from other code is a miss and is recomputed.
"""

import json
import os
import time
from types import SimpleNamespace

from repro import obs
# bound here so the layer timers' restore check
# (perfbench/tests/test_perfbench.py::test_restore_puts_every_original_back)
# has a harness-side binding of a wrapped compiler entry point to check
from repro.compiler import compile_arm  # noqa: F401
from repro.dse.evaluate import _functional, evaluate_points
from repro.dse.space import PAPER_LABELS, preset
from repro.dse.store import atomic_write_json
from repro.fingerprint import RESULT, fingerprint
from repro.power import ChipPowerModel
from repro.workloads import CODE_SIZE_BENCHMARKS

#: The paper's four configurations as design points (the ``paper4``
#: preset): ARM16, ARM8, FITS16, FITS8.
PAPER_POINTS = preset("paper4").points

#: The same four as (label, isa, i-cache bytes).
CONFIGS = [(PAPER_LABELS[p.point_id], p.isa, p.icache_bytes)
           for p in PAPER_POINTS]


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
    """One cached summary; None when absent, torn or from other code."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    manifest = data.get("manifest") or {}
    if (manifest.get("fingerprint") != fingerprint(RESULT)
            or manifest.get("schema") != obs.SCHEMA_VERSION):
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

    manifest = {
        "schema": obs.SCHEMA_VERSION,
        "fingerprint": fingerprint(RESULT),
        "benchmark": name,
        "scale": scale,
        "wall_seconds": wall,
        "stages": obs.stage_timings(window["spans"]),
        "spans": window["spans"],
        "counters": window["counters"],
        "gauges": window["gauges"],
    }
    summary["manifest"] = manifest
    obs.emit({"kind": "manifest", "benchmark": name, "manifest": manifest})
    if record_trajectory:
        _record_trajectory([summary], record_trajectory)
    return summary


def _run_benchmark(name, scale, verbose):
    configs = {}
    for point, blob, error in evaluate_points(name, PAPER_POINTS, scale):
        if error is not None:
            raise error
        configs[PAPER_LABELS[point.point_id]] = blob["metrics"]

    # chip power, calibrated to the ARM16 baseline
    base = SimpleNamespace(**configs["ARM16"])
    chip = ChipPowerModel(base, base)
    for metrics in configs.values():
        view = SimpleNamespace(**metrics)
        metrics["chip_w"] = chip.evaluate(view, view).total_w
        metrics["chip_j"] = metrics["chip_w"] * metrics["seconds"]

    # the per-benchmark extras, from the images the points were run on
    arm_image = _functional(name, scale, "arm")[0]
    thumb_image = _functional(name, scale, "thumb")[0]
    fits_image, _result, flow = _functional(name, scale, "fits")
    summary = {
        "name": name,
        "scale": scale,
        "arm_code_size": arm_image.code_size,
        "thumb_code_size": thumb_image.code_size,
        "fits_code_size": fits_image.code_size,
        "static_mapping": fits_image.static_mapping_rate(),
        "dynamic_mapping": flow["dynamic_mapping"],
        "fits_budget": list(flow["budget"]) if flow["budget"] else None,
        "fits_geometry": [fits_image.isa.k_op, fits_image.isa.k_reg],
        "fits_opcodes": len(fits_image.isa.opcode_table),
        "expansion_histogram": {
            str(k): v for k, v in fits_image.expansion_histogram().items()
        },
        "configs": configs,
    }
    if verbose:
        print("ran %s (%s): %d arm bytes, mapping %.3f/%.3f" % (
            name, scale, arm_image.code_size, summary["static_mapping"],
            summary["dynamic_mapping"]))
    return summary


def _collect_task(payload):
    """Worker for parallel :func:`collect`: run one benchmark, cache it.

    Results travel through the on-disk cache (atomic writes), never
    through pipes — the same resumable-store discipline the DSE
    scheduler uses, so a crashed or timed-out worker just leaves its
    benchmark uncached for the retry.
    """
    name, scale, verbose = payload["name"], payload["scale"], payload["verbose"]
    data = run_benchmark(name, scale, verbose=verbose)
    atomic_write_json(_cache_path(name, scale), data)


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
        return _load_cached(_cache_path(name, scale)) if use_cache else None

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
                atomic_write_json(_cache_path(name, scale), data)
        out[name] = BenchmarkSummary(data)
    if record_trajectory:
        _record_trajectory(out.values(), record_trajectory)
    return out
