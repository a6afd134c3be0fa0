"""Shared test configuration.

Points the persistent functional-trace store at a session-scoped temp
directory so test runs never read or write the repo-level
``trace_cache/`` (individual tests still override ``REPRO_TRACE_CACHE``
for their own isolation), and gives every test the metrics registry's
process role as it found it.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    if "REPRO_TRACE_CACHE" in os.environ:
        yield
        return
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("trace_cache"))
    try:
        yield
    finally:
        os.environ.pop("REPRO_TRACE_CACHE", None)


@pytest.fixture(autouse=True)
def _restore_metrics_role():
    """A test that applies a worker's spec in this process
    (``obs.apply_spec``) marks it a worker; left so, every later
    in-process snapshot, a server's ``metrics`` op included, would drop
    all gauges."""
    from repro.obs import core, metrics

    saved = core._is_child, metrics.snapshot_dir()
    yield
    core._is_child, metrics._snapshot_dir = saved
