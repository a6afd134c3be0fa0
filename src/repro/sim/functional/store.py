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
  e.g. ``fits_flow``'s baseline ARM compile, the same image the paper
  run's ARM configs simulate, is fetched from the store;
* the manifest records the simulator fingerprint
  (:data:`repro.fingerprint.SIMULATOR`: the functional simulators and
  the ISA models); on mismatch the entry is skipped with a warning so
  stale traces can never leak across simulator changes.

Writes are atomic (temp file + ``os.replace``), and the ``.npz``
payload lands before its manifest — a missing manifest means the entry
does not exist; a torn entry is a miss.  Set ``REPRO_TRACE_CACHE`` to
relocate the store, or to ``0`` / ``off`` to disable it.

A manifest names the benchmark and scale of the
:func:`repro.obs.profile.run_context` its trace was saved in (neither,
outside one).  Only a save writes: a load reads the manifest and the
payload and nothing else, so a store read by warm runs stays
unwritten.  A stored trace keeps its final memory page-sparse and
builds the dense bytes when :attr:`ExecutionResult.memory` is first
read: a loaded one (:func:`result_from_members`), and a freshly
simulated one once :meth:`TraceStore.save` has written it, by the same
builder (:func:`_memory_builder`).

Beside the traces, under :data:`UNITS`, the store keeps one unit record
per (workload, scale, ISA): the image :mod:`repro.dse.evaluate` built,
its content hash and, for FITS, the flow's extras, pickled.  A warm
unit loads its image instead of compiling it (and, for FITS, instead of
searching for its ISA again).  A record may name only the classes an
image is made of (:data:`UNIT_MODULES`); one that names anything else,
is torn, or holds an image that no longer hashes to its stored hash is
a miss, with a warning (:meth:`TraceStore.load_unit`).
"""

import hashlib
import importlib
import io
import json
import lzma
import os
import pickle
import sys
import time
import zipfile
from collections import OrderedDict

import numpy as np

from repro.fingerprint import SIMULATOR, fingerprint
from repro.obs import core as obs
from repro.sim.functional.trace import ExecutionResult, publish_result

SCHEMA = "repro.trace/v3"

#: Subdirectory of the store root that holds the unit records.
UNITS = "units"

#: The modules whose classes a unit record may name: the image class of
#: each ISA and the instructions, operands and decoder configuration
#: an image holds.  Every one lies under :data:`repro.fingerprint.FLOW`,
#: which keys the records (``tests/test_fingerprint.py``).
UNIT_MODULES = frozenset({
    "repro.compiler.link", "repro.compiler.thumb_backend",
    "repro.core.translator", "repro.isa.arm.model",
    "repro.isa.thumb.model", "repro.isa.fits.spec",
})

#: what unpickling a torn, foreign or garbled unit record can raise
_BAD_RECORD_ERRORS = (pickle.UnpicklingError, EOFError, AttributeError,
                      ImportError, IndexError, KeyError, TypeError,
                      ValueError)

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

#: what reading a torn or corrupt entry can raise; ``TraceStore.load``
#: treats it as a miss
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


def _read_manifest(man_path):
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
    if manifest.get("code_hash") != fingerprint(SIMULATOR):
        print(
            "trace store: skipping %s (simulator code changed: %s != %s)"
            % (manifest.get("image_hash"), manifest.get("code_hash"),
               fingerprint(SIMULATOR)),
            file=sys.stderr,
        )
        return None
    return manifest


def _decode_blob(manifest, npz_path):
    """Decompress one entry's blob into its member arrays.

    The final memory stays as stored, page-sparse and XORed against
    the initial image (``flags[0]``); :func:`result_from_members`
    rebuilds it.  A manifest that disagrees with its payload raises
    ValueError.  The file is opened here, so a torn ``.npz`` that numpy
    refuses is closed on the way out, not left to garbage collection.
    """
    with open(npz_path, "rb") as fh, np.load(fh) as data:
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
    index = member["page_index"]
    memory_bytes = int(manifest["memory_bytes"])
    if memory_bytes % PAGE:
        raise ValueError("memory_bytes is not a whole number of pages")
    if len(index) and (index.min() < 0 or index.max() >= memory_bytes // PAGE):
        raise ValueError("page index outside memory_bytes")
    member["pages"] = member["pages"].reshape(len(index), PAGE)
    return member


def _memory_builder(image, memory_bytes, memory_delta, page_index, pages):
    """A zero-argument builder of a final memory from its stored form:
    the non-zero ``pages`` (at ``page_index``) of a ``memory_bytes``
    delta, XORed against ``image.initial_memory()`` when
    ``memory_delta``."""

    def build_memory():
        memory = np.zeros(memory_bytes, dtype=np.uint8)
        memory.reshape(-1, PAGE)[page_index] = pages
        if memory_delta:
            memory ^= np.frombuffer(bytes(image.initial_memory()),
                                    dtype=np.uint8)
        return bytearray(memory.tobytes())

    return build_memory


def result_from_members(image, manifest, member):
    """Build an ExecutionResult from one entry's decoded members.

    The final memory is built on its first read, from the page-sparse
    delta and (``flags[0]``) ``image.initial_memory()``: no timing,
    cache or power model reads it, so a loaded trace that only feeds
    them never holds the dense bytes.  A delta that does not fit the
    image raises ValueError here, not at that read.
    """
    memory_bytes = int(manifest["memory_bytes"])
    memory_delta = bool(manifest["flags"][0])
    if memory_delta and memory_bytes != image.memory_size:
        raise ValueError("memory delta does not fit the image")
    return ExecutionResult(
        image=image,
        exit_code=int(manifest["exit_code"]),
        block_starts=member["block_starts"],
        block_ends=member["block_ends"],
        seg_ids=member["seg_ids"],
        seg_counts=member["seg_counts"],
        mem_packed=member["mem_packed"],
        console=member["console"].tobytes(),
        memory=_memory_builder(image, memory_bytes, memory_delta,
                              member["page_index"], member["pages"]),
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

        Returns None when the entry is absent, torn, or was produced
        under a different simulator fingerprint (skip-and-warn).  The
        decoded result comes from the in-process plane cache, else from
        the ``.npz`` on disk.  A load writes nothing.
        """
        key = image_fingerprint(image)
        npz_path, man_path = self._paths(key)
        # the manifest check stays on every load — it is what makes
        # fingerprint invalidation and entry deletion observable; the
        # plane cache only skips the expensive lzma decode
        manifest = _read_manifest(man_path)
        if manifest is None:
            return None
        cache_key = (os.path.abspath(self.root), key)
        cached = _plane_cache_get(cache_key)
        if cached is not None:
            obs.counter("trace_store.plane_cache.hit")
            return cached
        try:
            result = result_from_members(
                image, manifest, _decode_blob(manifest, npz_path))
        except TORN_ENTRY_ERRORS:
            # a torn or corrupt entry is a miss: the caller re-simulates
            # and rewrites it
            return None
        obs.counter("trace_store.plane_cache.miss")
        _plane_cache_put(cache_key, result)
        return result

    def save(self, image, result, **manifest_extra):
        """Persist one trace; atomic, payload before manifest.

        Once both are written, ``result`` keeps its final memory as the
        stored pages, like a loaded trace, and builds the same bytes on
        its next read; a failed write leaves it as it was.
        """
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
        pages = pages[page_index]
        parts = dict(
            block_starts=result.block_starts, block_ends=result.block_ends,
            seg_ids=result.seg_ids, seg_counts=result.seg_counts,
            mem_packed=result.mem_packed,
            console=np.frombuffer(bytes(result.console), dtype=np.uint8),
            page_index=page_index, pages=pages)
        chunks = [_byte_planes(parts[name]) if dtype is np.int64
                  else parts[name].tobytes() for name, dtype in _MEMBERS]
        blob = lzma.compress(b"".join(chunks), preset=1)
        buf = io.BytesIO()
        np.savez(buf, blob=np.frombuffer(blob, dtype=np.uint8))
        manifest = {
            "schema": SCHEMA,
            "image_hash": key,
            "code_hash": fingerprint(SIMULATOR),
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
        result.memory = _memory_builder(image, len(memory), memory_delta,
                                       page_index, pages)
        # the just-simulated result is the freshest decoded form there
        # is — seed the plane cache so a load right after a save (the
        # resume pattern) never pays a decode
        _plane_cache_put((os.path.abspath(self.root), key), result)
        return key

    def _unit_path(self, key):
        return os.path.join(self.root, UNITS, key + ".pkl")

    def load_unit(self, key):
        """The ``(image, extras)`` stored under ``key``, or None.

        An absent record is a silent miss.  A record that names a global
        outside :data:`UNIT_MODULES`, is torn, or holds an image whose
        :func:`image_fingerprint` is not its stored hash is a miss with
        a warning; the caller rebuilds the unit and rewrites it.
        """
        path = self._unit_path(key)
        try:
            with open(path, "rb") as fh:
                stored_hash, image, extras = _UnitUnpickler(fh).load()
            if image_fingerprint(image) == stored_hash:
                return image, extras
            problem = "its image does not hash to the stored hash"
        except FileNotFoundError:
            return None
        except OSError as exc:
            problem = str(exc)
        except _BAD_RECORD_ERRORS as exc:
            problem = "%s: %s" % (type(exc).__name__, exc)
        print("trace store: unit record %s is unusable (%s); rebuilding it"
              % (key, problem), file=sys.stderr)
        return None

    def save_unit(self, key, image, extras):
        """Persist one unit record (atomic)."""
        path = self._unit_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        _write_atomic(path, pickle.dumps(
            (image_fingerprint(image), image, extras),
            protocol=pickle.HIGHEST_PROTOCOL))


class _UnitUnpickler(pickle.Unpickler):
    """Resolves only classes defined in :data:`UNIT_MODULES`, by plain
    (undotted) name: a record can make objects of those classes and
    reach nothing else."""

    def find_class(self, module, name):
        if module in UNIT_MODULES and "." not in name:
            found = getattr(importlib.import_module(module), name, None)
            if isinstance(found, type) and found.__module__ == module:
                return found
        raise pickle.UnpicklingError("%s.%s is not an image class"
                                     % (module, name))


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


def cached_run(kind, image, runner):
    """Run ``runner()`` through the persistent trace store.

    On a store hit the functional simulation is skipped entirely; on a
    miss the fresh result is persisted for every later process/session.
    ``kind`` labels the manifest (e.g. ``"arm"``, ``"fits"``) and the
    ``trace_store.{hit,miss}`` obs counters.  A saved manifest names
    the benchmark and scale of the enclosing
    :func:`repro.obs.profile.run_context`, the same attribution the
    block profiler gives the run's records.
    """
    from repro.obs import profile as obs_profile  # lazy: keeps -m runs clean

    store = get_store()
    if store is None:
        return runner()
    t_load = time.perf_counter()
    result = store.load(image)
    if result is not None:
        obs.observe("trace_store.load_seconds", time.perf_counter() - t_load)
        obs.counter("trace_store.hit")
        obs.counter("trace_store.hit.%s" % kind)
        # trace-level counters stay present whether warm or cold, so
        # manifests from cached and fresh runs remain comparable
        publish_result("sim." + kind, result)
        return result
    with obs.span("trace_store.fill", kind=kind,
                  image=getattr(image, "name", "?")):
        result = runner()
    obs.counter("trace_store.miss")
    obs.counter("trace_store.miss.%s" % kind)
    ctx = obs_profile.current_context()
    t_save = time.perf_counter()
    try:
        with obs.span("trace_store.encode", kind=kind):
            store.save(image, result, kind=kind,
                       benchmark=ctx.get("benchmark"), scale=ctx.get("scale"))
    except OSError as exc:
        print("trace store: save failed (%s)" % exc, file=sys.stderr)
    obs.observe("trace_store.save_seconds", time.perf_counter() - t_save)
    return result
