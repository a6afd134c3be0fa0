"""Block-engine profiler tests: attribution, bit-identity, CLI, overhead.

The profiler's contract (DESIGN.md observability section): attribute
executed units / wall time / codegen decisions to individual superblocks
without perturbing simulation semantics — profiler-enabled runs are
bit-identical on :class:`ExecutionResult`, ``top --stable`` output is
deterministic across runs, and disabled instrumentation costs <5%.
"""

import json
import re
import time

import numpy as np
import pytest

from repro import obs
from repro.compiler import compile_arm
from repro.obs import profile as prof
from repro.sim.functional import ArmSimulator
from repro.workloads import get_workload

FIELDS = ("exit_code", "run_starts", "run_ends", "mem_addrs",
          "mem_is_store", "console", "dynamic_instructions")


@pytest.fixture(autouse=True)
def clean_profile():
    prof.disable()
    prof.clear()
    obs.disable()
    obs.reset()
    yield
    prof.disable()
    prof.clear()
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def crc_image():
    return compile_arm(get_workload("crc32").build_module("small"))


def _run_block(image):
    return ArmSimulator(image).run()


# ----------------------------------------------------------------------
# collection


def test_profiler_attributes_compiled_blocks(crc_image):
    prof.enable()  # memory mode
    with prof.run_context(benchmark="crc32", scale="small"):
        _run_block(crc_image)
    records = prof.records()
    assert len(records) == 1
    record = records[0]
    assert record["kind"] == "block_profile"
    assert record["benchmark"] == "crc32"
    assert record["scale"] == "small"
    assert record["isa"] == "arm"
    assert record["engine"] == "block"
    assert record["wall_seconds"] > 0
    assert record["totals"]["blocks_compiled"] >= 1

    blocks = record["blocks"]
    assert blocks
    compiled = [b for b in blocks if b["compiled"]]
    assert compiled, "expected at least one compiled superblock"
    hot = max(blocks, key=lambda b: b["units"] + b["interp_units"])
    assert hot["units"] + hot["interp_units"] > 0
    assert hot["calls"] + hot["interp_visits"] > 0
    assert hot["func"] != "?", "function attribution missing"
    # every compiled block paid codegen and scanned units into its body
    for b in compiled:
        assert b["compile_seconds"] > 0
        assert b["scan_units"] > 0
    # units ledger: attributed units cover the whole execution
    attributed = sum(b["units"] + b["interp_units"] for b in blocks)
    result = _run_block(crc_image)
    assert attributed == result.dynamic_instructions


def test_profiler_off_produces_no_records(crc_image):
    assert not prof.enabled()
    _run_block(crc_image)
    assert prof.records() == []


def test_profiler_run_is_bit_identical(crc_image):
    baseline = _run_block(crc_image)
    prof.enable()
    with prof.run_context(benchmark="crc32", scale="small"):
        profiled = _run_block(crc_image)
    assert prof.records(), "profiler collected nothing"
    for field in FIELDS:
        x, y = getattr(baseline, field), getattr(profiled, field)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), "%s differs under profiling" % field
        else:
            assert x == y, "%s differs under profiling" % field
    assert bytes(baseline.memory) == bytes(profiled.memory)


def test_profile_spec_rides_obs_spec(tmp_path):
    path = str(tmp_path / "prof.jsonl")
    obs.enable(obs.MemorySink())
    prof.enable(path)
    spec = obs.export_spec()
    assert spec["profile"] == {"path": path}
    prof.disable()
    obs.apply_spec(spec)
    assert prof.enabled() and prof.export_spec() == {"path": path}


def test_configure_from_env_variants(tmp_path):
    assert not prof.configure_from_env({})
    assert not prof.configure_from_env({"REPRO_PROFILE": "off"})
    assert prof.configure_from_env({"REPRO_PROFILE": "memory"})
    assert prof.export_spec() == {"path": None}
    path = str(tmp_path / "p.jsonl")
    assert prof.configure_from_env({"REPRO_PROFILE": "jsonl:" + path})
    assert prof.export_spec() == {"path": path}


# ----------------------------------------------------------------------
# analysis CLI: top / flame / diff


def _write_profile(tmp_path, crc_image, name):
    path = str(tmp_path / name)
    prof.enable(path)
    with prof.run_context(benchmark="crc32", scale="small"):
        _run_block(crc_image)
    prof.disable()
    return path


def test_top_stable_is_deterministic_across_runs(tmp_path, crc_image, capsys):
    a = _write_profile(tmp_path, crc_image, "a.jsonl")
    b = _write_profile(tmp_path, crc_image, "b.jsonl")
    assert prof.main(["top", "--profile", a, "--stable"]) == 0
    out_a = capsys.readouterr().out
    assert prof.main(["top", "--profile", b, "--stable"]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert "crc32/arm" in out_a
    assert "compiled" in out_a
    # stable mode must not leak wall-clock columns
    assert "wall_ms" not in out_a and "codegen_ms" not in out_a


def test_fetch_energy_pricing():
    # ARM fetches one 32-bit word per instruction; Thumb/FITS half that
    assert prof.fetch_words(100, "arm") == 100.0
    assert prof.fetch_words(100, "thumb") == 50.0
    assert prof.fetch_words(100, "fits") == 50.0
    e_default = prof.fetch_word_energy()
    assert e_default > 0
    # more sets shrink the tag, so the per-read price moves with geometry
    assert prof.fetch_word_energy(icache_bytes=65536) != e_default
    # memoized: same args return the identical float
    assert prof.fetch_word_energy() == e_default


def test_top_energy_column_deterministic(tmp_path, crc_image, capsys):
    a = _write_profile(tmp_path, crc_image, "ea.jsonl")
    b = _write_profile(tmp_path, crc_image, "eb.jsonl")
    assert prof.main(["top", "--profile", a, "--stable", "--energy"]) == 0
    out_a = capsys.readouterr().out
    assert prof.main(["top", "--profile", b, "--stable", "--energy"]) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b                   # derived from units: stable
    assert "fetch_uJ" in out_a
    assert "uJ fetch energy" in out_a
    # a bigger cache prices every block higher, so output must differ
    assert prof.main(["top", "--profile", a, "--stable", "--energy",
                      "--icache-bytes", "65536"]) == 0
    assert capsys.readouterr().out != out_a


def test_finish_emits_profile_energy_metrics(crc_image):
    prof.enable()
    obs.enable(sink=None)
    with prof.run_context(benchmark="crc32", scale="small"):
        _run_block(crc_image)
    (record,) = prof.records()
    h = obs.histograms().get("profile.energy.fetch_joules")
    assert h is not None and h.count == 1
    units = sum(r["units"] + r["interp_units"] for r in record["blocks"])
    expected = prof.fetch_words(units, "arm") * prof.fetch_word_energy()
    assert abs(h.sum - expected) <= 1e-12 * expected
    counters = obs.snapshot()["counters"]
    assert counters["profile.energy.fetch_words"] == int(
        round(prof.fetch_words(units, "arm")))


def test_finish_skips_energy_metrics_when_obs_off(crc_image):
    prof.enable()
    with prof.run_context(benchmark="crc32", scale="small"):
        _run_block(crc_image)
    assert prof.records()
    assert "profile.energy.fetch_joules" not in obs.histograms()


def test_flame_export_format(tmp_path, crc_image, capsys):
    path = _write_profile(tmp_path, crc_image, "f.jsonl")
    out_file = str(tmp_path / "out.folded")
    assert prof.main(["flame", "--profile", path, "--out", out_file]) == 0
    with open(out_file) as fh:
        lines = fh.read().splitlines()
    assert lines
    pattern = re.compile(r"^crc32;arm;[^;]+;block@\d+ \d+$")
    for line in lines:
        assert pattern.match(line), "bad collapsed-stack line: %r" % line
    assert lines == sorted(lines)  # deterministic order
    # identical run → identical flame output
    path2 = _write_profile(tmp_path, crc_image, "f2.jsonl")
    groups = prof.aggregate(prof.load_records(path2))
    assert prof.collapsed_stacks(groups) == lines


def test_diff_against_self_is_all_zero(tmp_path, crc_image, capsys):
    path = _write_profile(tmp_path, crc_image, "d.jsonl")
    assert prof.main(["diff", path, path, "--stable"]) == 0
    out = capsys.readouterr().out
    deltas = re.findall(r"([+-]\d+)\s*$", out, flags=re.M)
    assert deltas and all(int(d) == 0 for d in deltas)
    assert "only-new" not in out and "only-old" not in out


def test_top_errors_without_records(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(SystemExit, match="no block-profile records"):
        prof.main(["top", "--profile", str(empty)])
    with pytest.raises(SystemExit, match="cannot read profile"):
        prof.main(["top", "--profile", str(tmp_path / "missing.jsonl")])


def test_aggregate_sums_across_runs(tmp_path, crc_image):
    path = _write_profile(tmp_path, crc_image, "multi.jsonl")
    prof.enable(path)
    with prof.run_context(benchmark="crc32", scale="small"):
        _run_block(crc_image)  # second run appends a second record
    prof.disable()
    records = prof.load_records(path)
    assert len(records) == 2
    single = prof.aggregate(records[:1])[("crc32", "arm")]
    double = prof.aggregate(records)[("crc32", "arm")]
    for entry, row in single.items():
        merged = double[entry]
        assert merged["units"] == 2 * row["units"]
        assert merged["calls"] == 2 * row["calls"]


# ----------------------------------------------------------------------
# disabled-instrumentation overhead


def test_disabled_instrumentation_overhead_under_5pct(crc_image):
    """With REPRO_OBS and REPRO_PROFILE off, the engine's hook sites
    (a ``recorder()`` call per run, ``prof is None`` branches per block
    dispatch) must stay under 5% of wall time vs the hooks short-
    circuited entirely."""
    from repro.sim.functional import engine as engine_mod

    assert not obs.core.enabled and not prof.enabled()

    class _NullProfile:
        @staticmethod
        def recorder():
            return None

    def timed_once():
        t0 = time.perf_counter()
        _run_block(crc_image)
        return time.perf_counter() - t0

    def interleaved_mins(reps=7):
        # Alternate the two variants within each rep so background-load
        # drift hits both equally instead of biasing whichever phase ran
        # during the noisy stretch.
        best_disabled = best_compiled_out = float("inf")
        real = engine_mod.obs_profile
        for _ in range(reps):
            best_disabled = min(best_disabled, timed_once())
            engine_mod.obs_profile = _NullProfile
            try:
                best_compiled_out = min(best_compiled_out, timed_once())
            finally:
                engine_mod.obs_profile = real
        return best_disabled, best_compiled_out

    _run_block(crc_image)  # warm both code paths once
    for attempt in range(5):  # min-of-N damps scheduler noise; retry
        disabled, compiled_out = interleaved_mins()
        if disabled <= compiled_out * 1.05:
            return
    assert disabled <= compiled_out * 1.05, (
        "disabled instrumentation overhead %.1f%% exceeds 5%%"
        % (100.0 * (disabled / compiled_out - 1.0)))
