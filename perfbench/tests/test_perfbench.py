"""The benchmark's own checks: timers, the layer partition, seeded inputs."""

import os
import subprocess
import sys
import threading
import time

import pytest

import jobs
import layers
import proctree

ROSTER = ["crc32", "sha", "bitcount", "fft", "qsort", "susan"]


def _collect_small(monkeypatch, tmp_path, tag):
    from repro.harness import runner

    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / (tag + "-traces")))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / (tag + "-summaries")))
    out = runner.collect(scale="small", names=["crc32"], jobs=1)
    return {k: v for k, v in out["crc32"].data.items() if k != "manifest"}


@pytest.fixture
def traced(monkeypatch, tmp_path):
    """A traced cold crc32 small collect: ``(trace, summary)``."""
    trace = layers.LayerTrace()
    patcher = layers.install(trace)
    try:
        trace.start()
        summary = _collect_small(monkeypatch, tmp_path, "traced")
        trace.stop()
    finally:
        patcher.restore()
    return trace, summary


def test_wrapped_and_unwrapped_runs_give_identical_summaries(
        traced, monkeypatch, tmp_path):
    trace, wrapped = traced
    plain = _collect_small(monkeypatch, tmp_path, "plain")
    assert wrapped == plain
    # every layer a cold paper run crosses was actually timed
    for layer in ("workloads", "compiler", "core.profiler",
                  "core.synthesizer", "core.translator", "sim.functional.arm",
                  "sim.functional.thumb", "sim.functional.fits",
                  "sim.functional.store.encode", "sim.functional.store.decode",
                  "sim.pipeline.precomp", "sim.pipeline.report",
                  "sim.cache.stack", "power", "harness"):
        assert trace.calls[layer] > 0, layer


def test_restore_puts_every_original_back():
    from repro.compiler import compile_arm
    from repro.dse import scheduler
    from repro.harness import runner
    from repro.sim.functional.arm_sim import ArmSimulator

    before = (runner.compile_arm, scheduler.evaluate_points,
              ArmSimulator.__dict__["run"])
    patcher = layers.install(layers.LayerTrace())
    assert runner.compile_arm is not compile_arm
    patcher.restore()
    assert (runner.compile_arm, scheduler.evaluate_points,
            ArmSimulator.__dict__["run"]) == before


def test_self_times_and_unattributed_sum_to_traced_wall(traced):
    trace, _summary = traced
    assert sum(trace.self_s.values()) == pytest.approx(trace.wall_s,
                                                       rel=1e-9)
    assert trace.self_s["unattributed"] < 0.10 * trace.wall_s


def test_self_time_excludes_nested_calls():
    trace = layers.LayerTrace()
    inner = trace.timed("inner", lambda: time.sleep(0.05))

    def body():
        time.sleep(0.03)
        inner()

    outer = trace.timed("outer", body)
    trace.start()
    outer()
    time.sleep(0.02)
    trace.stop()
    assert trace.self_s["outer"] == pytest.approx(0.03, abs=0.015)
    assert trace.self_s["inner"] == pytest.approx(0.05, abs=0.015)
    assert trace.self_s["unattributed"] == pytest.approx(0.02, abs=0.015)
    assert sum(trace.self_s.values()) == pytest.approx(trace.wall_s, rel=1e-9)


def test_concurrent_layers_split_the_wall_without_double_counting():
    trace = layers.LayerTrace()
    work = trace.timed("work", lambda: time.sleep(0.1))
    trace.start()
    threads = [threading.Thread(target=work) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
    trace.stop()
    assert not any(thread.is_alive() for thread in threads)
    assert trace.calls["work"] == 3
    assert sum(trace.self_s.values()) == pytest.approx(trace.wall_s, rel=1e-9)
    assert trace.self_s["work"] <= trace.wall_s


def test_generator_items_are_timed_one_window_each():
    trace = layers.LayerTrace()

    def produce():
        for i in range(3):
            time.sleep(0.01)
            yield i

    wrapped = trace.timed_generator("gen", produce)
    trace.start()
    assert list(wrapped()) == [0, 1, 2]
    trace.stop()
    assert trace.calls["gen"] == 4  # three items and the final StopIteration
    assert trace.self_s["gen"] == pytest.approx(0.03, abs=0.015)


def test_seeded_job_chain_repeats_for_a_seed_and_differs_across_seeds():
    assert jobs.job_chain(ROSTER, 7) == jobs.job_chain(ROSTER, 7)
    assert jobs.kernel_order(ROSTER, 7) == jobs.kernel_order(ROSTER, 7)
    assert jobs.job_chain(ROSTER, 7) != jobs.job_chain(ROSTER, 8)
    assert jobs.kernel_order(ROSTER, 7) != jobs.kernel_order(ROSTER, 8)


def test_job_chain_shares_a_kernel_between_consecutive_jobs():
    chain = jobs.job_chain(ROSTER, 3)
    assert len(chain) == len(ROSTER)
    for (_a, b), (c, _d) in zip(chain, chain[1:] + chain[:1]):
        assert b == c
    seen = [k for pair in chain for k in pair]
    assert sorted(seen) == sorted(ROSTER * 2)


def test_paper_points_are_in_the_sweep_grid():
    from repro.dse.space import PAPER_LABELS
    import sweep

    ids = {p["id"] for p in sweep.grid_space(jobs.GRID)["points"]}
    assert set(PAPER_LABELS) <= ids


def test_process_tree_counts_a_busy_child():
    code = "import time\nt = time.time()\nwhile time.time() - t < 0.3: pass\n" \
           "time.sleep(5)"
    proc = subprocess.Popen([sys.executable, "-c", code])
    try:
        time.sleep(1.0)
        assert proc.pid in proctree.descendants(os.getpid())
        cpu, rss = proctree.tree(os.getpid())
        assert proctree.cpu_seconds(proc.pid) >= 0.2
        assert cpu >= proctree.cpu_seconds(proc.pid)
        assert rss > proctree.peak_rss_mb(os.getpid())
    finally:
        proc.kill()
        proc.wait(5)
