"""Tests for the sweep service: cache, protocol, server, and client.

End-to-end tests run a real :class:`~repro.serve.server.ServeServer`
on a unix socket in a background thread, but swap the heavy DSE compute
path for a deterministic in-test ``compute_fn`` — the lifecycle, the
global cache, single-flight coalescing, streaming, reconnect/resume and
backpressure are all exercised for real, without simulating anything.
"""

import asyncio
import json
import os
import re
import threading
import time

import pytest

from repro.dse.space import DesignPoint, DesignSpace, preset
from repro.dse.store import RESULT_SCHEMA, ResultStore
from repro.fingerprint import RESULT, fingerprint
from repro.serve import api, protocol
from repro.serve.cache import GlobalResultCache, SingleFlight
from repro.serve.client import ServeClient, ServeError, backoff_seconds
from repro.serve.protocol import ProtocolError, parse_address
from repro.serve.server import ServeServer


# ----------------------------------------------------------------------
# helpers


def tiny_space(name="tiny", sizes=(8192, 16384)):
    return DesignSpace.grid(name=name, isas=("arm",), sizes=sizes)


def make_blob(benchmark, point, scale, energy=1.0):
    """A result blob shaped like ``repro.dse.evaluate.evaluate_point``."""
    return {
        "schema": RESULT_SCHEMA,
        "benchmark": benchmark,
        "scale": scale,
        "point": point.to_dict(),
        "fingerprint": fingerprint(RESULT),
        "metrics": {"icache_energy_j": energy * (point.icache_bytes / 8192.0),
                    "miss_rate": 0.01},
        "manifest": {},
    }


def computed(server, scale, benchmark, point, key):
    """One point's outcome as the worker pool lands it: the blob is in
    the cache before the server hears of it, which hears its metrics."""
    blob = make_blob(benchmark, point, scale)
    server.cache.put(benchmark, point.point_id, scale, blob)
    return key, blob["metrics"], None


def fake_compute(server, scale, items, publish):
    """Deterministic stand-in for the DSE worker pool."""
    publish([computed(server, scale, *item) for item in items])


class ServerThread:
    """Run a ServeServer on a background thread; join on exit."""

    def __init__(self, tmp_path, tag, **kwargs):
        sock = str(tmp_path / ("%s.sock" % tag))
        kwargs.setdefault("cache_root", str(tmp_path / ("%s-cache" % tag)))
        kwargs.setdefault("state_dir", str(tmp_path / ("%s-state" % tag)))
        kwargs.setdefault("compute_fn", fake_compute)
        self.server = ServeServer(address=sock, **kwargs)
        self.ready = threading.Event()
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve_forever(self.ready)),
            daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self.ready.wait(10), "server never came up"
        return self.server

    def __exit__(self, exc_type, exc, tb):
        try:
            ServeClient(self.server.address, timeout=5.0).shutdown()
        except (OSError, ConnectionError, ServeError):
            pass
        self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "server thread failed to stop"
        return False


def client_for(server, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    kwargs.setdefault("backoff_base", 0.01)
    kwargs.setdefault("backoff_cap", 0.05)
    return ServeClient(server.address, **kwargs)


# ----------------------------------------------------------------------
# cache + single-flight


def test_cache_key_covers_every_input(tmp_path):
    cache = GlobalResultCache(str(tmp_path), code="r" * 16)
    base = cache.key("crc32", "a" * 12, "small")
    assert base == cache.key("crc32", "a" * 12, "small")  # deterministic
    assert base != cache.key("sha", "a" * 12, "small")
    assert base != cache.key("crc32", "b" * 12, "small")
    assert base != cache.key("crc32", "a" * 12, "full")
    other = GlobalResultCache(str(tmp_path), code="x" * 16)
    assert base != other.key("crc32", "a" * 12, "small")
    assert GlobalResultCache(str(tmp_path)).code == fingerprint(RESULT)


def test_cache_roundtrip_and_misses(tmp_path, monkeypatch):
    cache = GlobalResultCache(str(tmp_path / "c"))
    point = DesignPoint("arm", 8192)
    blob = make_blob("crc32", point, "small")
    assert cache.get("crc32", point.point_id, "small") is None
    cache.put("crc32", point.point_id, "small", blob)
    assert cache.get("crc32", point.point_id, "small") == blob["metrics"]
    with monkeypatch.context() as patch:
        # counting entries reads the index, and a hit decodes only the
        # line's metrics: neither parses a blob
        patch.setattr(ResultStore, "_read", None)
        assert cache.entries() == 1
        assert cache.get("crc32", point.point_id, "small") == blob["metrics"]
    assert cache.store("small").load("crc32", point.point_id) == blob

    # a torn/truncated line reads as a miss, never an exception
    other = DesignPoint("arm", 16384)
    segment = os.path.join(cache.store("small").segment_dir("crc32"),
                           "torn.jsonl")
    with open(segment, "w") as fh:
        fh.write(json.dumps(make_blob("crc32", other, "small"))[:40])
    assert cache.get("crc32", other.point_id, "small") is None
    assert cache.get("crc32", point.point_id, "small") == blob["metrics"]

    # a fingerprint change (code change) invalidates without deleting
    cache.put("crc32", point.point_id, "small", blob)
    stale = GlobalResultCache(cache.root, code="0" * 16)
    assert stale.get("crc32", point.point_id, "small") is None


def test_single_flight_claim_and_resolve():
    async def scenario():
        loop = asyncio.get_running_loop()
        flight = SingleFlight()
        fut1, owner1 = flight.claim("k", loop)
        fut2, owner2 = flight.claim("k", loop)
        assert owner1 and not owner2 and fut1 is fut2
        assert len(flight) == 1
        assert flight.resolve("k", fut1, {"x": 1}, None) is True
        assert await fut1 == ({"x": 1}, None)
        assert flight.resolve("k", fut1, None, "late") is False  # idempotent
        # a failed key can be re-claimed (retry by a later job)
        fut3, owner3 = flight.claim("k", loop)
        assert owner3 and fut3 is not fut1
        # resolving the first claim again leaves the new one pending
        assert flight.resolve("k", fut1, None, "late") is False
        assert not fut3.done() and flight.keys() == ["k"]
        flight.resolve("k", fut3, None, "boom")
        assert await fut3 == (None, "boom")
        assert len(flight) == 0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# protocol + api


def test_protocol_roundtrip_and_errors():
    msg = {"op": "status", "n": 3}
    assert protocol.decode(protocol.encode(msg)) == msg
    with pytest.raises(ProtocolError):
        protocol.decode(b"not json\n")
    with pytest.raises(ProtocolError):
        protocol.decode(b"[1, 2]\n")   # not an object
    big = {"pad": "x" * (protocol.MAX_LINE_BYTES + 1)}
    with pytest.raises(ProtocolError):
        protocol.encode(big)


def test_parse_address():
    assert parse_address("unix:/tmp/s.sock") == ("unix", "/tmp/s.sock")
    assert parse_address("/tmp/s.sock") == ("unix", "/tmp/s.sock")
    assert parse_address("tcp:127.0.0.1:9000") == ("tcp", ("127.0.0.1", 9000))
    with pytest.raises(ValueError):
        parse_address("")
    with pytest.raises(ValueError):
        parse_address("tcp:9000")


def test_validate_submit():
    space, benches, scale = api.validate_submit(
        {"space": "smoke", "benchmarks": ["crc32"], "scale": "small"})
    assert len(space) and benches == ["crc32"] and scale == "small"

    space2 = tiny_space()
    out_space, benches, _ = api.validate_submit(
        {"space": space2.to_dict(), "benchmarks": "all"})
    assert len(out_space) == len(space2)
    assert len(benches) > 1

    with pytest.raises(ProtocolError):
        api.validate_submit({"space": "no-such-preset",
                             "benchmarks": ["crc32"]})
    with pytest.raises(ProtocolError):
        api.validate_submit({"space": "smoke", "benchmarks": []})
    with pytest.raises(ProtocolError):
        api.validate_submit({"space": "smoke", "benchmarks": ["nope"]})
    with pytest.raises(ProtocolError):
        api.validate_submit({"space": "smoke", "benchmarks": ["crc32"],
                             "scale": "huge"})
    with pytest.raises(ProtocolError):
        api.validate_submit({"benchmarks": ["crc32"]})


def test_backoff_is_bounded_full_jitter():
    assert backoff_seconds(0, base=0.1, cap=5.0, rng=lambda: 1.0) == 0.1
    assert backoff_seconds(3, base=0.1, cap=5.0, rng=lambda: 1.0) == 0.8
    assert backoff_seconds(20, base=0.1, cap=5.0, rng=lambda: 1.0) == 5.0
    assert backoff_seconds(20, base=0.1, cap=5.0, rng=lambda: 0.0) == 0.0


# ----------------------------------------------------------------------
# end-to-end: lifecycle, dedupe, streaming


def test_submit_wait_then_cached_second_job(tmp_path):
    space = tiny_space()
    with ServerThread(tmp_path, "dedupe") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"], scale="small")
        assert job["status"] == "queued" and job["total"] == len(space)
        end = client.wait(job["id"])
        first = end["summary"]
        assert first["status"] == "done"
        assert first["computed"] == len(space)
        assert first["cache_hits"] == 0 and first["failed_points"] == 0
        metrics_a = {e["point_id"]: e["metrics"]
                     for e in client.watch(job["id"])
                     if e.get("type") == "point"}

        # an identical second sweep is served wholly from the cache
        job2 = client.submit(space.to_dict(), ["crc32"], scale="small")
        second = client.wait(job2["id"])["summary"]
        assert second["status"] == "done"
        assert second["cache_hits"] == len(space) and second["computed"] == 0
        metrics_b = {e["point_id"]: e["metrics"]
                     for e in client.watch(job2["id"])
                     if e.get("type") == "point"}
        assert metrics_a == metrics_b   # bit-identical via the cache

        status = client.status()["server"]
        assert status["stats"]["points_computed"] == len(space)
        assert status["cache"]["hits"] == len(space)
        assert status["cache"]["entries"] == len(space)


def test_overlapping_spaces_compute_union_once(tmp_path):
    a = tiny_space("a", sizes=(8192, 16384))
    b = tiny_space("b", sizes=(16384, 32768))       # overlaps on 16K
    with ServerThread(tmp_path, "union") as server:
        client = client_for(server)
        ja = client.submit(a.to_dict(), ["crc32"])
        client.wait(ja["id"])
        jb = client.submit(b.to_dict(), ["crc32"])
        sb = client.wait(jb["id"])["summary"]
        assert sb["cache_hits"] == 1 and sb["computed"] == 1
        assert server.stats["points_computed"] == 3  # union, exactly once


def test_watch_resume_after_seq(tmp_path):
    space = tiny_space()
    with ServerThread(tmp_path, "resume") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        client.wait(job["id"])
        seqs = [e["seq"] for e in client.watch(job["id"], after_seq=1)
                if e.get("type") == "point"]
        assert seqs == list(range(2, len(space) + 1))
        # fully caught up: only the end event remains
        events = list(client.watch(job["id"], after_seq=len(space)))
        assert [e["type"] for e in events] == ["end"]


def test_watch_sends_pending_events_in_one_write(tmp_path, monkeypatch):
    """A watch writes every event pending at a wake-up at once: watching
    a finished job costs the same few transport writes at any size."""
    writes = []
    real_write = asyncio.StreamWriter.write

    def counted(self, data):
        writes.append(data)
        return real_write(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", counted)
    with ServerThread(tmp_path, "batched") as server:
        client = client_for(server)
        counts = []
        for sizes in ((8192,), (4096, 8192, 16384, 32768, 65536)):
            space = DesignSpace.grid(name="w%d" % len(sizes),
                                     isas=("arm", "thumb", "fits"),
                                     sizes=sizes)
            job = client.submit(space.to_dict(), ["crc32", "sha"])
            client.wait(job["id"])
            del writes[:]
            events = list(client.watch(job["id"]))
            assert [e["seq"] for e in events[:-1]] == list(
                range(1, 2 * len(space) + 1))
            assert events[-1]["type"] == "end"
            counts.append(len(writes))
            assert b"".join(writes).count(b"\n") == len(events) + 1
    assert counts == [2, 2]     # the reply line, then every event at once


def test_watch_survives_mid_stream_disconnect(tmp_path):
    space = tiny_space("wide", sizes=(4096, 8192, 16384, 32768))
    with ServerThread(tmp_path, "reconnect") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        seen = []

        def on_event(event):
            if event.get("type") == "point":
                seen.append(event["seq"])
                if len(seen) == 2:
                    client.kill_connection()   # sever mid-stream

        end = client.wait(job["id"], on_event=on_event)
        assert end["summary"]["status"] == "done"
        assert seen == list(range(1, len(space) + 1))  # exactly once


def test_backpressure_rejects_with_retry(tmp_path):
    release = threading.Event()

    def stuck_compute(server, scale, items, publish):
        release.wait(20)
        fake_compute(server, scale, items, publish)

    space = tiny_space()
    with ServerThread(tmp_path, "bp", compute_fn=stuck_compute,
                      max_pending=1) as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        with pytest.raises(ServeError) as excinfo:
            client.submit(space.to_dict(), ["crc32"])
        assert excinfo.value.retry is True
        assert "queue full" in str(excinfo.value)
        release.set()
        assert client.wait(job["id"])["summary"]["status"] == "done"
        assert server.stats["jobs_rejected"] == 1


def test_concurrent_jobs_coalesce_in_flight_points(tmp_path):
    entered = threading.Event()
    release = threading.Event()

    def gated_compute(server, scale, items, publish):
        entered.set()
        release.wait(20)
        fake_compute(server, scale, items, publish)

    space = tiny_space()
    with ServerThread(tmp_path, "flight", compute_fn=gated_compute) as server:
        client = client_for(server)
        ja = client.submit(space.to_dict(), ["crc32"])
        assert entered.wait(10)
        jb = client.submit(space.to_dict(), ["crc32"])  # same keys, in flight
        # the batch writes its points to the cache as soon as it runs:
        # release it only once job B has claimed its keys
        deadline = time.time() + 10
        while server.stats["coalesced"] < len(space):
            assert time.time() < deadline, "job B never coalesced"
            time.sleep(0.01)
        release.set()
        sa = client.wait(ja["id"])["summary"]
        sb = client.wait(jb["id"])["summary"]
        assert sa["computed"] == len(space)
        assert sb["coalesced"] == len(space) and sb["computed"] == 0
        assert server.stats["points_computed"] == len(space)


def test_two_jobs_interleave_running_points(tmp_path):
    """Two concurrently submitted jobs both stream points while both are
    still running — the old single compute slot would deadlock the
    barrier here (only one batch could ever be inside compute at once)."""
    lockstep = threading.Barrier(2, timeout=15)
    release = threading.Event()

    def lockstep_compute(server, scale, items, publish):
        publish([computed(server, scale, *items[0])])
        lockstep.wait()         # requires BOTH batches in flight at once
        release.wait(15)
        publish([computed(server, scale, *item) for item in items[1:]])

    space = tiny_space()
    with ServerThread(tmp_path, "ilv", compute_fn=lockstep_compute,
                      max_running=2) as server:
        client = client_for(server)
        # different benchmarks: no shared keys, so nothing coalesces
        ja = client.submit(space.to_dict(), ["crc32"])
        jb = client.submit(space.to_dict(), ["sha"])
        deadline = time.time() + 10
        sa = sb = None
        while time.time() < deadline:
            sa = client.status(ja["id"])["job"]
            sb = client.status(jb["id"])["job"]
            if (sa["status"] == "running" and sb["status"] == "running"
                    and sa["emitted"] >= 1 and sb["emitted"] >= 1):
                break
            time.sleep(0.02)
        else:
            raise AssertionError("jobs never ran concurrently: %r / %r"
                                 % (sa, sb))
        release.set()
        assert client.wait(ja["id"])["summary"]["status"] == "done"
        assert client.wait(jb["id"])["summary"]["status"] == "done"
        assert server.stats["points_computed"] == 2 * len(space)


def test_cancel_running_job_leaves_other_batch_alone(tmp_path):
    """Cancelling one of two concurrently running jobs must not tear
    down the other job's in-flight compute batch."""
    entered = threading.Semaphore(0)
    release = threading.Event()

    def gated_compute(server, scale, items, publish):
        entered.release()
        release.wait(20)
        fake_compute(server, scale, items, publish)

    space = tiny_space()
    with ServerThread(tmp_path, "canc2", compute_fn=gated_compute,
                      max_running=2) as server:
        client = client_for(server)
        ja = client.submit(space.to_dict(), ["crc32"])
        jb = client.submit(space.to_dict(), ["sha"])
        # wait until both batches are genuinely computing, then cancel A
        assert entered.acquire(timeout=10)
        assert entered.acquire(timeout=10)
        cancelled = client.cancel(ja["id"])
        deadline = time.time() + 5
        while cancelled["status"] != "cancelled" and time.time() < deadline:
            time.sleep(0.05)
            cancelled = client.status(ja["id"])["job"]
        assert cancelled["status"] == "cancelled"
        release.set()
        sb = client.wait(jb["id"])["summary"]
        assert sb["status"] == "done"
        assert sb["emitted"] == len(space)
        assert server.stats["jobs_cancelled"] == 1


def test_compute_failure_fails_job_but_not_server(tmp_path):
    batches = []

    def half_broken(server, scale, items, publish):
        first_batch = not batches
        batches.append(len(items))
        publish([(item[2], None, "synthetic worker crash")
                 if i == 0 and first_batch
                 else computed(server, scale, *item)
                 for i, item in enumerate(items)])

    space = tiny_space()
    with ServerThread(tmp_path, "fail", compute_fn=half_broken) as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        events = []
        end = client.wait(job["id"], on_event=events.append)
        assert end["summary"]["status"] == "failed"
        assert end["summary"]["failed_points"] == 1
        errors = [e for e in events
                  if e.get("type") == "point" and "error" in e]
        assert len(errors) == 1
        assert "synthetic worker crash" in errors[0]["error"]
        # failures are not cached: a retry job recomputes only that point
        job2 = client.submit(space.to_dict(), ["crc32"])
        s2 = client.wait(job2["id"])["summary"]
        assert s2["status"] == "done"
        assert s2["cache_hits"] == len(space) - 1
        assert batches == [len(space), 1]   # retry recomputed only the miss
        # the server is still healthy
        assert client.status()["server"]["stats"]["jobs_failed"] == 1


def test_retry_claim_survives_the_failed_batch_returning(tmp_path):
    """A batch's final publish resolves only the claims it made that are
    still pending.  A failed point is not cached, so a retry job claims
    its key again; when the first batch's thread returns after that
    claim, its final publish must leave the retry's future to the retry
    job's own batch."""
    gates = (threading.Event(), threading.Event())
    entered = (threading.Event(), threading.Event())
    batches = []

    def gated(server, scale, items, publish):
        n = len(batches)
        batches.append(len(items))
        if n == 0:
            publish([(item[2], None, "synthetic worker crash") if i == 0
                     else computed(server, scale, *item)
                     for i, item in enumerate(items)])
        entered[n].set()
        gates[n].wait(20)
        if n == 1:
            publish([computed(server, scale, *item) for item in items])

    space = tiny_space()
    with ServerThread(tmp_path, "reclaim", compute_fn=gated) as server:
        client = client_for(server)
        first = client.wait(client.submit(space.to_dict(), ["crc32"])["id"])
        assert first["summary"]["status"] == "failed"
        assert len(server._compute_tasks) == 1   # its thread still runs
        retry = client.submit(space.to_dict(), ["crc32"])
        assert entered[1].wait(10)      # the retry claimed the failed key
        gates[0].set()                  # the first batch returns
        deadline = time.time() + 10
        while len(server._compute_tasks) > 1:
            assert time.time() < deadline, "the first batch never ended"
            time.sleep(0.01)
        assert client.status(retry["id"])["job"]["status"] == "running"
        gates[1].set()                  # only now the retry's batch publishes
        end = client.wait(retry["id"])["summary"]
    assert end["status"] == "done", end
    assert (end["computed"], end["cache_hits"], end["failed_points"]) == (
        1, len(space) - 1, 0)
    assert batches == [len(space), 1]


def test_cancel_requeued_job(tmp_path):
    release = threading.Event()

    def stuck_compute(server, scale, items, publish):
        release.wait(20)
        fake_compute(server, scale, items, publish)

    space = tiny_space()
    with ServerThread(tmp_path, "cancel", compute_fn=stuck_compute,
                      max_running=1) as server:
        client = client_for(server)
        running = client.submit(space.to_dict(), ["crc32"])
        queued = client.submit(space.to_dict(), ["sha"])
        cancelled = client.cancel(queued["id"])
        deadline = time.time() + 5
        while cancelled["status"] != "cancelled" and time.time() < deadline:
            time.sleep(0.05)
            cancelled = client.status(queued["id"])["job"]
        assert cancelled["status"] == "cancelled"
        release.set()
        assert client.wait(running["id"])["summary"]["status"] == "done"
        assert server.stats["jobs_cancelled"] == 1


def test_results_and_unknown_ops(tmp_path):
    space = tiny_space()
    with ServerThread(tmp_path, "results") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        client.wait(job["id"])
        results = client.results(job["id"])
        assert len(results) == len(space)
        assert all(r["metrics"]["icache_energy_j"] > 0 for r in results)
        with pytest.raises(ServeError):
            client.results("jnope")
        with pytest.raises(ServeError):
            client.request({"op": "frobnicate"})
        with pytest.raises(ServeError):
            client.submit("smoke", ["not-a-benchmark"])


def watch_lines(server, job_id):
    """The raw lines one ``watch`` of a finished job receives: the
    reply, every point event, the end event."""
    sock = protocol.connect(server.address, timeout=10.0)
    with sock, sock.makefile("rb") as stream:
        sock.sendall(protocol.encode({"op": "watch", "job": job_id}))
        lines = []
        while not lines or b'"type":"end"' not in lines[-1]:
            line = stream.readline()
            assert line, "watch stream ended early"
            lines.append(line)
    return lines


def expected_event(job_id, seq, total, benchmark, point, metrics=None,
                   error=None, cached=False, coalesced=False):
    """The point event dict a watcher must receive, built here field by
    field rather than by ``Job.emit_point``."""
    event = {"type": "point", "job": job_id, "seq": seq,
             "benchmark": benchmark, "point_id": point.point_id,
             "label": point.label, "cached": cached,
             "coalesced": coalesced, "done": seq, "total": total}
    if error is not None:
        event["error"] = error
    else:
        event["metrics"] = metrics
    return event


def blobs_reachable(root):
    """Parsed result blobs (dicts with a ``manifest``) reachable from
    ``root`` through containers and objects of the ``repro`` package."""
    import gc

    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            if "manifest" in obj:
                found.append(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return found


def test_watch_relays_the_bytes_of_every_point_kind(tmp_path):
    """A watcher receives, for every computed, failed, coalesced and
    cached point, ``protocol.encode`` of the event dict; ``results``
    returns the store's blobs of the points served without error; and
    no finished job holds a parsed blob."""
    release = threading.Event()
    batches = []

    def gated(server, scale, items, publish):
        first = not batches
        batches.append(len(items))
        if first:
            release.wait(20)
        publish([(item[2], None, "synthetic worker crash")
                 if first and item[1].icache_bytes == 8192
                 else computed(server, scale, *item) for item in items])

    space = tiny_space()
    small, large = list(space)      # 8K fails in the first batch
    metrics = {point.point_id: make_blob("crc32", point, "small")["metrics"]
               for point in space}
    with ServerThread(tmp_path, "relay", compute_fn=gated) as server:
        client = client_for(server)
        a = client.submit(space.to_dict(), ["crc32"])["id"]
        b = client.submit(space.to_dict(), ["crc32"])["id"]
        deadline = time.time() + 10
        while server.stats["coalesced"] < len(space):
            assert time.time() < deadline, "job B never coalesced"
            time.sleep(0.01)
        release.set()
        client.wait(a)
        client.wait(b)
        c = client.submit(space.to_dict(), ["crc32"])["id"]
        client.wait(c)
        crash = "synthetic worker crash"
        expected = {
            a: [expected_event(a, 1, 2, "crc32", small, error=crash),
                expected_event(a, 2, 2, "crc32", large,
                               metrics=metrics[large.point_id])],
            b: [expected_event(b, 1, 2, "crc32", small, error=crash),
                expected_event(b, 2, 2, "crc32", large, coalesced=True,
                               metrics=metrics[large.point_id])],
            c: [expected_event(c, 1, 2, "crc32", large, cached=True,
                               metrics=metrics[large.point_id]),
                expected_event(c, 2, 2, "crc32", small,
                               metrics=metrics[small.point_id])],
        }
        store = server.cache.store("small")
        for job_id, events in expected.items():
            lines = watch_lines(server, job_id)
            assert lines[1:-1] == [protocol.encode(e) for e in events]
            assert protocol.decode(lines[-1])["type"] == "end"
            served = [store.load("crc32", e["point_id"]) for e in events
                      if "error" not in e]
            assert client.results(job_id) == served
            assert all(blob["manifest"] == {} for blob in served)
        jobs = list(server.jobs.values())
        assert [blobs_reachable(job) for job in jobs] == [[], [], []]
    assert batches == [len(space), 1]


def test_metrics_read_matches_the_lines_of_a_served_store(tmp_path):
    """On every line of a store the real compute path wrote, the
    metrics read equals the parsed line's metrics; torn, other-schema
    and other-fingerprint lines are misses."""
    space = DesignSpace.grid("lines", isas=("arm", "thumb"),
                             sizes=(4096, 8192), blocks=(16, 32))
    with ServerThread(tmp_path, "lines", compute_fn=None) as server:
        client = client_for(server, timeout=300.0)
        job = client.submit(space.to_dict(), ["crc32"], scale="small")
        events = [e for e in client.watch(job["id"])
                  if e.get("type") == "point"]
        store, code = server.cache.store("small"), server.cache.code
    directory = store.segment_dir("crc32")
    lines = []
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            lines.extend(fh)
    assert len(lines) == len(space) == len(events)
    for line in lines:
        record = json.loads(line)
        assert record[2] == code
        assert store.metrics("crc32", record[1], code) == record[3]["metrics"]
        assert len(record[3]["manifest"]["counters"]) > 0
    assert {e["point_id"]: e["metrics"] for e in events} == {
        json.loads(line)[1]: json.loads(line)[3]["metrics"]
        for line in lines}

    blob = json.loads(lines[0])[3]
    known = blob["point"]["id"]
    bad = {pid: "%012x" % n for n, pid in enumerate(
        ("torn", "cut", "schema", "stale", "failed"))}
    cut = json.dumps([RESULT_SCHEMA, bad["cut"], code, blob])
    with open(os.path.join(directory, "bad.jsonl"), "w") as fh:
        # a whole line whose metrics member is cut short
        fh.write(cut[:cut.index('"metrics": ') + 30] + "\n")
        fh.write(json.dumps([RESULT_SCHEMA - 1, bad["schema"], code, blob])
                 + "\n")
        fh.write(json.dumps([RESULT_SCHEMA, bad["stale"], "0" * 16, blob])
                 + "\n")
        fh.write(json.dumps([RESULT_SCHEMA, known, "0" * 16, blob]) + "\n")
        fh.write(json.dumps([RESULT_SCHEMA, bad["failed"], None,
                             {"error": "boom", "metrics": {}}]) + "\n")
        fh.write(json.dumps([RESULT_SCHEMA, bad["torn"], code, blob]))
    store.refresh("crc32")
    for point_id in bad.values():
        assert store.metrics("crc32", point_id, code) is None, point_id
    assert store.metrics("crc32", known, code) == blob["metrics"]
    assert store.metrics("crc32", bad["stale"], "0" * 16) == blob["metrics"]
    assert store.metrics("crc32", known, "0" * 16) is None


def test_stale_socket_file_is_reclaimed(tmp_path):
    # a dead server leaves its socket file behind; the next server
    # detects nothing is listening, reclaims the path, and binds
    (tmp_path / "stale.sock").write_bytes(b"")
    with ServerThread(tmp_path, "stale") as server:
        assert client_for(server).status()["server"]["pid"] == os.getpid()


def test_real_compute_path_matches_direct_evaluation(tmp_path):
    """One real point through the actual DSE worker pool (no fake)."""
    from repro.dse.evaluate import evaluate_point

    space = DesignSpace("one", [DesignPoint("arm", 8192)])
    with ServerThread(tmp_path, "real", compute_fn=None) as server:
        client = client_for(server, timeout=300.0)
        job = client.submit(space.to_dict(), ["crc32"], scale="small")
        end = client.wait(job["id"])
        assert end["summary"]["status"] == "done"
        served = client.results(job["id"])[0]["metrics"]
    direct = evaluate_point("crc32", DesignPoint("arm", 8192), "small")
    assert served == direct["metrics"]   # bit-identical to the one-shot CLI


#: The sweep grid of one served job, per kernel: 3 ISAs x 4 sizes x
#: 4 associativities x 3 block sizes.
GRID = DesignSpace.grid("grid", isas=("arm", "thumb", "fits"),
                        sizes=(4096, 8192, 16384, 32768),
                        assocs=(1, 2, 4, 32), blocks=(16, 32, 64))


def test_grid_job_appends_one_segment_per_unit_task(tmp_path, monkeypatch):
    """The workers write the served points straight into the cache: one
    segment per (benchmark, ISA) task, and no file created per point."""
    import tempfile

    from repro.dse import evaluate

    names = ["crc32", "sha"]
    for name in names:      # a warm trace store and unit records
        for isa in ("arm", "thumb", "fits"):
            evaluate._functional(name, "small", isa)
    calls = {"mkstemp": 0, "replace": 0}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    calls["refresh"] = 0
    with ServerThread(tmp_path, "grid", compute_fn=None) as server:
        client = client_for(server, timeout=300.0)
        monkeypatch.setattr(tempfile, "mkstemp",
                            counted("mkstemp", tempfile.mkstemp))
        monkeypatch.setattr(os, "replace", counted("replace", os.replace))
        monkeypatch.setattr(ResultStore, "_refresh",
                            counted("refresh", ResultStore._refresh))
        job = client.submit(GRID.to_dict(), names, scale="small")
        summary = client.wait(job["id"])["summary"]
        monkeypatch.undo()
        assert summary["status"] == "done"
        assert summary["computed"] == 2 * len(GRID) == 288
        store = server.cache.store("small")
        segments = {name: os.listdir(store.segment_dir(name))
                    for name in names}
    # the segments are read once per job benchmark, and once per task
    # for its worker's resume check and once for its flush: never per point
    assert calls == {"mkstemp": 0, "replace": 0, "refresh": 2 + 2 * 6}
    assert {name: len(found) for name, found in segments.items()} == {
        "crc32": 3, "sha": 3}
    assert len(list(store.iter_results())) == 288


def test_second_server_on_the_same_cache_serves_hits(tmp_path):
    space = tiny_space()
    cache = str(tmp_path / "shared-cache")
    with ServerThread(tmp_path, "first", cache_root=cache) as server:
        client = client_for(server)
        first = client.wait(client.submit(space.to_dict(), ["crc32"])["id"])
        assert first["summary"]["computed"] == len(space)
    with ServerThread(tmp_path, "second", cache_root=cache) as server:
        client = client_for(server)
        second = client.wait(client.submit(space.to_dict(), ["crc32"])["id"])
        assert second["summary"]["cache_hits"] == len(space)
        assert server.stats["points_computed"] == 0


# ----------------------------------------------------------------------
# metrics op, dashboards, alerts against a live server


def _counters(snapshot):
    return snapshot.get("counters") or {}


def test_metrics_op_exposition_matches_job_manifests(tmp_path):
    """The scraped exposition validates, and the cache hit/miss counter
    deltas agree exactly with what the job summaries report."""
    from repro.obs import metrics as metrics_mod

    space = tiny_space()
    with ServerThread(tmp_path, "met") as server:
        client = client_for(server)
        before = _counters(client.metrics()["snapshot"])
        job_a = client.submit(space.to_dict(), ["crc32"])
        sum_a = client.wait(job_a["id"])["summary"]
        job_b = client.submit(space.to_dict(), ["crc32"])   # fully cached
        sum_b = client.wait(job_b["id"])["summary"]
        reply = client.metrics()
        assert reply["ok"]

        families = metrics_mod.validate_openmetrics(reply["text"])
        assert families["serve_cache_hit"]["type"] == "counter"
        assert families["serve_request_seconds"]["type"] == "histogram"

        after = _counters(reply["snapshot"])
        delta = lambda name: after.get(name, 0) - before.get(name, 0)
        assert delta("serve.cache.hit") == (
            sum_a["cache_hits"] + sum_b["cache_hits"])
        assert delta("serve.cache.miss") == sum_a["computed"]
        assert sum_b["cache_hits"] == len(space)

        hists = reply["snapshot"]["histograms"]
        for name in ("serve.request.seconds", "serve.point.seconds",
                     "serve.job.seconds", "serve.job.wait_seconds",
                     "serve.cache.lookup_seconds"):
            assert name in hists, name
        assert metrics_mod.summarize(hists["serve.point.seconds"])["count"] \
            >= 2 * len(space)


def test_metrics_op_merges_the_pool_workers_histograms(tmp_path):
    """At ``worker_jobs=2`` the server process simulates nothing: the
    timing histogram the ``metrics`` op reports comes from the pool
    workers' flushed snapshots, merged with the server's own."""
    from repro import obs

    space = DesignSpace("two", [DesignPoint("arm", 8192),
                                DesignPoint("thumb", 8192)])
    obs.reset()
    with ServerThread(tmp_path, "mw", compute_fn=None,
                      worker_jobs=2) as server:
        client = client_for(server, timeout=300.0)
        end = client.wait(client.submit(space.to_dict(), ["crc32"],
                                        scale="small")["id"])
        assert end["summary"]["status"] == "done"
        snap = client.metrics()["snapshot"]
        local = obs.histograms()
        assert "timing.runs_per_simulation" not in local
    workers = set(snap["procs"]) - {obs.core.proc_token()}
    assert workers
    runs = snap["histograms"]["timing.runs_per_simulation"]
    assert runs["count"] >= len(space)
    assert snap["histograms"]["dse.point.seconds"]["count"] >= len(space)


def test_status_reports_metrics_and_inflight_keys(tmp_path):
    space = tiny_space()
    with ServerThread(tmp_path, "statm") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        client.wait(job["id"])
        summary = client.status()["server"]
        assert summary["started_at"] <= time.time()
        assert summary["inflight_keys"] == []
        rows = summary["metrics"]
        assert rows["serve.request.seconds"]["count"] >= 1
        assert set(rows["serve.request.seconds"]) >= {
            "count", "p50", "p95", "p99", "max"}


def test_serve_cli_metrics_status_dash(tmp_path, capsys):
    from repro import obs
    from repro.obs import metrics as metrics_mod
    from repro.serve import cli

    space = tiny_space()
    with ServerThread(tmp_path, "cli") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        client.wait(job["id"])
        # a count family in the server's registry (the server runs in
        # this process) prints as a plain number, seconds in s or ms
        obs.observe("timing.runs_per_simulation", 1722.0)
        units = (r"serve\.request\.seconds +n=\d+ +p50=\d+\.\d+(ms|s) ",
                 r"timing\.runs_per_simulation +n=1 +p50=1722 ")

        assert cli.main(["metrics", "--socket", server.address]) == 0
        metrics_mod.validate_openmetrics(capsys.readouterr().out)

        assert cli.main(["metrics", "--socket", server.address,
                         "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "serve.request.seconds" in snap["histograms"]

        assert cli.main(["status", "--socket", server.address]) == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "serve.request.seconds" in out
        assert all(re.search(unit, out) for unit in units), out

        assert cli.main(["dash", "--once", "--socket", server.address]) == 0
        frame = capsys.readouterr().out
        assert "repro.serve dash" in frame
        assert "throughput:" in frame and "histograms:" in frame
        assert all(re.search(unit, frame) for unit in units), frame


def test_alerts_check_against_live_server(tmp_path, capsys):
    from repro.obs import alerts

    space = tiny_space()
    rules = tmp_path / "rules.json"
    with ServerThread(tmp_path, "alrt") as server:
        client = client_for(server)
        job = client.submit(space.to_dict(), ["crc32"])
        client.wait(job["id"])
        job2 = client.submit(space.to_dict(), ["crc32"])
        client.wait(job2["id"])

        rules.write_text(json.dumps({"rules": [
            "serve.request.seconds p99 < 60",
            "serve.cache.hit >= 1",
        ]}))
        assert alerts.main(["check", "--rules", str(rules),
                            "--serve", server.address]) == 0
        capsys.readouterr()
        rules.write_text(json.dumps({"rules": ["serve.cache.hit < 0"]}))
        assert alerts.main(["check", "--rules", str(rules),
                            "--serve", server.address]) == 1


def test_job_event_buffer_invariants():
    async def scenario():
        job = api.Job(tiny_space(), ["crc32"], "small")
        await job.start()
        for i, point in enumerate(job.space):
            await job.emit_point("crc32", point,
                                 make_blob("crc32", point, "small")["metrics"],
                                 cached=(i == 0))
        await job.finish(api.DONE)
        # each event is kept as the one line the wire carries
        assert all(isinstance(e, bytes) and e.endswith(b"\n")
                   and e.count(b"\n") == 1 for e in job.events)
        events = [protocol.decode(e) for e in job.events]
        assert [e["seq"] for e in events] == [1, 2]
        assert [e["done"] for e in events] == [1, 2]
        assert events[0]["cached"] and not events[1]["cached"]
        assert job.served == [("crc32", p.point_id) for p in job.space]
        assert job.cache_hits == 1 and job.computed == 1
        assert job.end_event()["summary"]["emitted"] == 2
        assert job.terminal

    asyncio.run(scenario())


def test_final_gauges_and_counters_after_jobs(tmp_path):
    """One gauge refresh per finished task, not per point; after the
    jobs, ``status`` and the ``metrics`` op report the final state."""
    space = DesignSpace.grid("wide", isas=("arm",),
                             sizes=(4096, 8192, 16384, 32768),
                             assocs=(1, 2, 4, 32))
    with ServerThread(tmp_path, "gauges") as server:
        refreshes = []
        update = server._update_gauges

        def counted():
            refreshes.append(1)
            update()

        server._update_gauges = counted
        client = client_for(server)
        before = _counters(client.metrics()["snapshot"])
        first = client.wait(client.submit(space.to_dict(), ["crc32"])["id"])
        assert len(refreshes) < len(space)
        second = client.wait(client.submit(space.to_dict(), ["crc32"])["id"])
        snapshot = client.metrics()["snapshot"]
        status = client.status()["server"]

    assert first["summary"]["computed"] == len(space)
    assert second["summary"]["cache_hits"] == len(space)
    stats = status["stats"]
    assert (stats["jobs_completed"], stats["points_computed"],
            stats["points_failed"], stats["cache_hits"],
            stats["cache_misses"]) == (2, len(space), 0, len(space),
                                       len(space))
    assert status["cache"]["hit_ratio"] == 0.5
    assert status["cache"]["entries"] == len(space)
    assert status["queue_depth"] == 0 and status["inflight_points"] == 0
    gauges = snapshot["gauges"]
    assert gauges["serve.queue.depth"] == 0
    assert gauges["serve.points.inflight"] == 0
    assert gauges["serve.cache.hit_ratio"] == 0.5
    after = _counters(snapshot)
    delta = {name: after.get(name, 0) - before.get(name, 0) for name in (
        "serve.points.computed", "serve.points.failed", "serve.cache.hit",
        "serve.cache.miss", "serve.jobs.completed")}
    assert delta == {"serve.points.computed": len(space),
                     "serve.points.failed": 0,
                     "serve.cache.hit": len(space),
                     "serve.cache.miss": len(space),
                     "serve.jobs.completed": 2}
