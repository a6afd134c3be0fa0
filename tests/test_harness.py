"""Harness tests: the four-configuration runner, caching, figure tables."""

import json
import os

import pytest

from repro.harness import collect, run_benchmark, FIGURES, CONFIGS
from repro.harness.runner import BenchmarkSummary
from tests.oracles import paper_configs


@pytest.fixture(scope="module")
def small_data(tmp_path_factory, monkeypatch_module=None):
    cache = tmp_path_factory.mktemp("bench_cache")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        yield collect(scale="small", names=["crc32", "sha", "dijkstra"])
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


def test_summary_contains_all_configs(small_data):
    for s in small_data.values():
        for label, _isa, _size in CONFIGS:
            c = s.config(label)
            assert c["cycles"] > 0 and c["instructions"] > 0
            assert 0 < c["total_w"] < 10
            assert abs(c["frac_switching"] + c["frac_internal"] + c["frac_leakage"] - 1) < 1e-9


def test_summary_is_json_serializable(small_data):
    for s in small_data.values():
        json.dumps(s.data)


@pytest.mark.parametrize("name", ["crc32", "sha", "dijkstra"])
def test_paper_configs_match_oracle(name):
    """The harness's four configs, computed through ``dse.evaluate``,
    equal the per-access oracle field for field, bit for bit."""
    configs = run_benchmark(name, "small")["configs"]
    expected = paper_configs(name, "small")
    assert set(configs) == set(expected)
    for label, fields in expected.items():
        assert configs[label] == fields, label


def test_saving_helper(small_data):
    s = small_data["crc32"]
    assert s.saving("ARM16", "icache_energy_j") == 0.0
    assert s.saving("ARM8", "leakage_j") > 0.3


def test_cache_round_trip(tmp_path):
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path)
    try:
        first = collect(scale="small", names=["crc32"])
        # cached file exists and reloads identically
        files = list(tmp_path.iterdir())
        assert len(files) == 1
        second = collect(scale="small", names=["crc32"])
        assert first["crc32"].data == second["crc32"].data
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)


def test_every_figure_renders(small_data):
    for key, fn in FIGURES.items():
        table = fn(small_data)
        text = table.render()
        assert table.figure in text
        assert "average" in text
        assert len(table.averages) == len(table.columns)


def test_figure_column_access(small_data):
    table = FIGURES["fig13"](small_data)
    col = table.column("ARM16")
    assert set(col) == set(small_data) - set()  # power-study members present
    assert table.average("ARM16") == pytest.approx(
        sum(col.values()) / len(col)
    )


def test_mapping_fields_present(small_data):
    for s in small_data.values():
        assert 0.5 < s["static_mapping"] <= 1.0
        assert 0.5 < s["dynamic_mapping"] <= 1.0
        assert s["fits_geometry"][0] in (4, 5, 6, 7)
        assert s["fits_geometry"][1] in (3, 4)
        hist = s["expansion_histogram"]
        assert "1" in hist
