"""Persistent store for functional-simulation traces.

The functional simulators are deterministic: the trace produced by
running an image depends only on the image contents and the simulator
code.  The in-memory memo in :mod:`repro.dse.evaluate` already exploits
that *within* one worker process — this module extends it across
processes and sessions by serializing run-compressed
:class:`~repro.sim.functional.trace.ExecutionResult` traces to
compressed ``.npz`` files (plus a JSON manifest) under a shared
``trace_cache/`` directory.

Keying and versioning:

* each entry is keyed by a content hash of the executed image (code
  stream, data segment, layout constants) — *not* by benchmark name, so
  e.g. the identical ARM image simulated once per synthesis budget in
  ``fits_flow`` is fetched from the store after its first run;
* the manifest records a code-version hash over the functional-simulator
  sources; on mismatch the entry is skipped with a warning so stale
  traces can never leak across simulator changes.

Writes are atomic (temp file + ``os.replace``), and the ``.npz``
payload lands before its manifest — a missing manifest means the entry
does not exist; a torn entry is a miss.  Set ``REPRO_TRACE_CACHE`` to
relocate the store, or to ``0`` / ``off`` to disable it.
"""

import hashlib
import io
import json
import lzma
import os
import sys
import time
import zipfile
from collections import OrderedDict

import numpy as np

from repro.obs import core as obs
from repro.sim.functional.trace import ExecutionResult, publish_result

SCHEMA = "repro.trace/v3"

PAGE = 4096  # bytes per page of the stored memory delta

#: payload layout: the members below, in this order, concatenated raw
#: and compressed as one lzma stream (``blob`` in the npz), with a
#: parallel ``lengths`` list of byte counts in the manifest.  int64
#: members are stored as transposed byte planes (each of the 8 byte
#: positions contiguous).  Final memory is XORed against
#: ``image.initial_memory()`` (``flags[0]``) and only its non-zero pages
#: are kept: their indices and bytes; the manifest's ``memory_bytes``
#: sizes the dense delta.  Older schemas are re-simulated (see README).
_MEMBERS = (
    ("block_starts", np.int64),
    ("block_ends", np.int64),
    ("seg_ids", np.int64),
    ("seg_counts", np.int64),
    ("mem_packed", np.int64),
    ("console", np.uint8),
    ("page_index", np.int64),
    ("pages", np.uint8),
)

#: what reading a torn or corrupt entry can raise; both readers of an
#: entry (``TraceStore.load`` and the plane exporter) treat it as a miss
TORN_ENTRY_ERRORS = (OSError, EOFError, KeyError, ValueError,
                     lzma.LZMAError, zipfile.BadZipFile)


def _byte_planes(arr):
    """int64 array -> transposed byte-plane bytes (exactly invertible)."""
    planes = np.ascontiguousarray(arr, dtype=np.int64).view(np.uint8)
    return np.ascontiguousarray(planes.reshape(-1, 8).T).tobytes()


def _from_byte_planes(raw):
    """Inverse of :func:`_byte_planes`."""
    n = len(raw) // 8
    planes = np.frombuffer(raw, dtype=np.uint8).reshape(8, n).T
    return np.ascontiguousarray(planes).view(np.int64).ravel()

#: modules whose source text participates in the code-version hash —
#: anything that could change what a functional simulation produces.
_VERSIONED_MODULES = (
    "repro.sim.functional.trace",
    "repro.sim.functional.engine",
    "repro.sim.functional.arm_sim",
    "repro.sim.functional.thumb_sim",
    "repro.sim.functional.fits_sim",
)

_code_hash = None


def code_version_hash():
    """Content hash over the functional-simulator sources (memoized)."""
    global _code_hash
    if _code_hash is None:
        h = hashlib.sha256()
        base = os.path.dirname(os.path.abspath(__file__))
        for mod in _VERSIONED_MODULES:
            path = os.path.join(base, mod.rsplit(".", 1)[1] + ".py")
            h.update(mod.encode())
            try:
                with open(path, "rb") as f:
                    h.update(f.read())
            except OSError:
                h.update(b"<missing>")
        _code_hash = h.hexdigest()[:16]
    return _code_hash


def image_fingerprint(image):
    """Content hash of one executable image (any supported ISA)."""
    h = hashlib.sha256()
    if hasattr(image, "halfwords"):
        h.update(b"halfwords")
        h.update(np.asarray(image.halfwords, dtype=np.uint32).tobytes())
    else:
        h.update(b"words")
        h.update(np.asarray(image.words, dtype=np.uint32).tobytes())
    for attr in ("code_base", "data_base", "memory_size", "stack_top"):
        h.update(b"|%d" % getattr(image, attr, 0))
    h.update(b"|" + str(getattr(image, "entry", "")).encode())
    h.update(b"|" + bytes(getattr(image, "data_bytes", b"")))
    isa = getattr(image, "isa", None)
    if isa is not None and hasattr(isa, "opcode_table"):
        # FITS halfwords only mean something through the synthesized
        # decoder configuration — fold it into the identity.
        desc = (
            isa.k_op,
            isa.k_reg,
            sorted((num, spec.key()) for num, spec in isa.opcode_table.items()),
            sorted(isa.regmap.items()),
            sorted((cat, tuple(vals)) for cat, vals in isa.dicts.items()),
        )
        h.update(b"|isa" + repr(desc).encode())
    return h.hexdigest()[:24]


#: In-process LRU of decoded trace planes, keyed by (store root, entry
#: digest).  A warm ``load()`` returns the same ExecutionResult object
#: without touching lzma again — and because TimingPrecomp memos live on
#: the result object, repeat timing evaluations stay warm too.  Holds at
#: most :data:`PLANE_CACHE_ENTRIES` results.
_PLANE_CACHE = OrderedDict()
PLANE_CACHE_ENTRIES = 8


def clear_plane_cache():
    """Drop every cached decoded plane (tests)."""
    _PLANE_CACHE.clear()


def _plane_cache_get(cache_key):
    result = _PLANE_CACHE.get(cache_key)
    if result is not None:
        _PLANE_CACHE.move_to_end(cache_key)
    return result


def _plane_cache_put(cache_key, result):
    _PLANE_CACHE[cache_key] = result
    _PLANE_CACHE.move_to_end(cache_key)
    while len(_PLANE_CACHE) > PLANE_CACHE_ENTRIES:
        _PLANE_CACHE.popitem(last=False)
        obs.counter("trace_store.plane_cache.evict")


def _read_manifest(man_path, warn=True):
    """A valid current-code manifest dict, or None (skip-and-warn)."""
    if not os.path.exists(man_path):
        return None
    try:
        with open(man_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError):
        return None
    if manifest.get("schema") != SCHEMA:
        return None
    if manifest.get("code_hash") != code_version_hash():
        if warn:
            print(
                "trace store: skipping %s (simulator code changed: %s != %s)"
                % (manifest.get("image_hash"), manifest.get("code_hash"),
                   code_version_hash()),
                file=sys.stderr,
            )
        return None
    return manifest


def _decode_blob(manifest, npz_path):
    """Decompress one entry's blob into its member arrays.

    ``memory`` comes back dense but still XORed against the initial
    image (``flags[0]``), so the shared-memory plane exporter, which
    has no image object, can ship it as-is.  A manifest that disagrees
    with its payload raises ValueError.
    """
    with np.load(npz_path) as data:
        raw = lzma.decompress(data["blob"].tobytes())
    lengths = [int(n) for n in manifest["lengths"]]
    if sum(lengths) != len(raw):
        raise ValueError("member lengths do not sum to the payload size")
    member = {}
    offset = 0
    for (name, dtype), nbytes in zip(_MEMBERS, lengths):
        chunk = raw[offset:offset + nbytes]
        offset += nbytes
        member[name] = (_from_byte_planes(chunk) if dtype is np.int64
                        else np.frombuffer(chunk, dtype=dtype))
    index = member.pop("page_index")
    memory = np.zeros(int(manifest["memory_bytes"]), dtype=np.uint8)
    pages = memory.reshape(-1, PAGE)
    if len(index) and (index.min() < 0 or index.max() >= len(pages)):
        raise ValueError("page index outside memory_bytes")
    pages[index] = member.pop("pages").reshape(len(index), PAGE)
    member["memory"] = memory
    return member


def result_from_members(image, exit_code, member, memory_delta):
    """Build an ExecutionResult from decoded store members."""
    memory = bytearray(member["memory"].tobytes())
    if memory_delta:
        base = np.frombuffer(bytes(image.initial_memory()), dtype=np.uint8)
        memory = bytearray(
            np.bitwise_xor(member["memory"], base).tobytes())
    return ExecutionResult(
        image=image,
        exit_code=int(exit_code),
        block_starts=member["block_starts"],
        block_ends=member["block_ends"],
        seg_ids=member["seg_ids"],
        seg_counts=member["seg_counts"],
        mem_packed=member["mem_packed"],
        console=member["console"].tobytes(),
        memory=memory,
    )


class TraceStore:
    """One directory of content-addressed functional traces."""

    def __init__(self, root):
        self.root = root

    def _paths(self, key):
        return (os.path.join(self.root, key + ".npz"),
                os.path.join(self.root, key + ".json"))

    def load(self, image):
        """The stored :class:`ExecutionResult` for ``image``, or None.

        Returns None when the entry is absent or was produced by a
        different simulator code version (skip-and-warn).  Decoded
        planes come from, in order: the in-process plane cache, an
        attached shared-memory plane segment published by the sweep
        coordinator, and finally the ``.npz`` on disk.
        """
        key = image_fingerprint(image)
        npz_path, man_path = self._paths(key)
        # the manifest check stays on every load — it is what makes
        # code-version invalidation and entry deletion observable; the
        # plane cache only skips the expensive lzma decode
        manifest = _read_manifest(man_path)
        if manifest is None:
            return None
        cache_key = (os.path.abspath(self.root), key)
        cached = _plane_cache_get(cache_key)
        if cached is not None:
            obs.counter("trace_store.plane_cache.hit")
            return cached
        from repro.sim.functional import planes  # lazy: avoids import cycle

        result = planes.lookup(key, image)
        if result is None:
            try:
                member = _decode_blob(manifest, npz_path)
                result = result_from_members(
                    image, manifest["exit_code"], member,
                    bool(manifest["flags"][0]))
            except TORN_ENTRY_ERRORS:
                # a torn or corrupt entry is a miss: the caller
                # re-simulates and rewrites it
                return None
        obs.counter("trace_store.plane_cache.miss")
        _plane_cache_put(cache_key, result)
        return result

    def save(self, image, result, **manifest_extra):
        """Persist one trace; atomic, payload before manifest."""
        key = image_fingerprint(image)
        npz_path, man_path = self._paths(key)
        os.makedirs(self.root, exist_ok=True)
        memory = np.frombuffer(bytes(result.memory), dtype=np.uint8)
        base = np.frombuffer(bytes(image.initial_memory()), dtype=np.uint8)
        memory_delta = len(base) == len(memory)
        if memory_delta:
            memory = np.bitwise_xor(memory, base)
        pages = memory.reshape(-1, PAGE)
        page_index = np.flatnonzero(pages.any(axis=1))
        parts = dict(
            block_starts=result.block_starts, block_ends=result.block_ends,
            seg_ids=result.seg_ids, seg_counts=result.seg_counts,
            mem_packed=result.mem_packed,
            console=np.frombuffer(bytes(result.console), dtype=np.uint8),
            page_index=page_index, pages=pages[page_index])
        chunks = [_byte_planes(parts[name]) if dtype is np.int64
                  else parts[name].tobytes() for name, dtype in _MEMBERS]
        blob = lzma.compress(b"".join(chunks), preset=1)
        buf = io.BytesIO()
        np.savez(buf, blob=np.frombuffer(blob, dtype=np.uint8))
        manifest = {
            "schema": SCHEMA,
            "image_hash": key,
            "code_hash": code_version_hash(),
            "image_name": getattr(image, "name", "?"),
            "exit_code": int(result.exit_code),
            "num_runs": int(result.num_runs),
            "num_superblocks": int(len(result.block_starts)),
            "num_segments": int(len(result.seg_ids)),
            "dynamic_instructions": int(result.dynamic_instructions),
            "lengths": [len(chunk) for chunk in chunks],
            "memory_bytes": len(memory),
            "flags": [int(memory_delta)],
        }
        manifest.update(manifest_extra)
        _write_atomic(npz_path, buf.getvalue())
        _write_atomic(man_path, json.dumps(
            manifest, indent=1, sort_keys=True).encode())
        # the just-simulated result is the freshest decoded form there
        # is — seed the plane cache so a load right after a save (the
        # resume pattern) never pays a decode
        _plane_cache_put((os.path.abspath(self.root), key), result)
        return key


def _write_atomic(path, data):
    """Write ``data`` to ``path`` atomically; a failure leaves no temp file."""
    tmp = path + ".tmp.%d" % os.getpid()
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.abspath(os.path.join(here, "..", "..", "..", ".."))


def get_store():
    """The process-wide trace store, or None when disabled.

    ``REPRO_TRACE_CACHE`` overrides the location (``0`` / ``off`` / empty
    disables); the default is ``<repo>/trace_cache``.
    """
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none"):
            return None
        return TraceStore(env)
    return TraceStore(os.path.join(_repo_root(), "trace_cache"))


def cached_run(kind, image, runner, **manifest_extra):
    """Run ``runner()`` through the persistent trace store.

    On a store hit the functional simulation is skipped entirely; on a
    miss the fresh result is persisted for every later process/session.
    ``kind`` labels the manifest (e.g. ``"arm"``, ``"fits"``) and the
    ``trace_store.{hit,miss}`` obs counters.  The benchmark/scale
    manifest extras double as the block profiler's attribution context,
    so profile records from here carry the benchmark name.
    """
    from repro.obs import profile as obs_profile  # lazy: keeps -m runs clean

    ctx = obs_profile.run_context(benchmark=manifest_extra.get("benchmark"),
                                  scale=manifest_extra.get("scale"))
    store = get_store()
    if store is None:
        with ctx:
            return runner()
    t_load = time.perf_counter()
    result = store.load(image)
    if result is not None:
        _observe_seconds("trace_store.load_seconds", t_load)
        obs.counter("trace_store.hit")
        obs.counter("trace_store.hit.%s" % kind)
        # trace-level counters stay present whether warm or cold, so
        # manifests from cached and fresh runs remain comparable
        publish_result("sim." + kind, result)
        return result
    with obs.span("trace_store.fill", kind=kind,
                  image=getattr(image, "name", "?")), ctx:
        result = runner()
    obs.counter("trace_store.miss")
    obs.counter("trace_store.miss.%s" % kind)
    t_save = time.perf_counter()
    try:
        with obs.span("trace_store.encode", kind=kind):
            store.save(image, result, kind=kind, **manifest_extra)
    except OSError as exc:
        print("trace store: save failed (%s)" % exc, file=sys.stderr)
    _observe_seconds("trace_store.save_seconds", t_save)
    return result


def _observe_seconds(name, start):
    if obs.enabled:
        from repro.obs import metrics as obs_metrics

        obs_metrics.observe(name, time.perf_counter() - start)
