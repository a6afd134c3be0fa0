"""Shared-memory handoff of decoded trace planes.

The sweep coordinator decodes each trace-store entry **once**, copies
the decoded columnar members into one ``multiprocessing.shared_memory``
segment per entry, and ships a small descriptor (segment name + member
offsets) to the persistent pool workers inside the task payload.
Workers attach zero-copy: numpy views straight into the shared pages,
no decompression, no duplication of the planes across worker processes.

Coordinator side — :class:`PlaneBus`:

* ``export_for(store, benchmark, scale)`` scans the store's manifests
  for current-code entries recorded for that benchmark/scale and
  exports each into its own segment, returning the descriptors;
* ``close()`` unlinks every segment.  Workers that already attached
  keep a reference to the mapping, so on Linux the pages stay valid for
  as long as any attached result is alive — unlink only removes the
  name.

Segment ownership: the coordinator's ``multiprocessing`` resource
tracker holds each segment's one registration, so a coordinator that
dies without ``close()`` (SIGKILL) still has its segments unlinked once
every process reporting to that tracker — it and its workers — is gone.
Attaching a segment registers it with the attaching process's tracker
too.  A worker forked after the coordinator's tracker started (or
spawned by it) reports to that same tracker, whose registrations are a
set: the attach adds nothing, and the worker must leave the
registration alone.  A worker with a tracker of its own (forked before
the coordinator's started, or started outside it) must unregister, or
its tracker would unlink the live segment when the worker exits.  Each
descriptor names the coordinator's tracker, and :func:`lookup`
unregisters only under a different one.

Worker side — :func:`attach` registers descriptors (idempotent), and
:func:`lookup` lazily attaches a segment the first time the entry is
requested, reconstructing the :class:`ExecutionResult` from read-only
views.  The final memory is shipped as stored, page-sparse: the
non-zero pages of its XOR delta and their indices.  The worker rebuilds
it against ``image.initial_memory()`` at lookup, since only it holds
the image object, so a result's dense memory is private and freed with
it rather than pinned in every attached worker.  Any attach failure
(segment already unlinked, descriptor stale) silently falls back to the
on-disk path in ``store.load``.
"""

import json
import os

import numpy as np

from repro.obs import core as obs
from repro.sim.functional import store as store_mod

try:
    from multiprocessing import resource_tracker, shared_memory
except ImportError:  # pragma: no cover - shm is optional on exotic builds
    resource_tracker = None
    shared_memory = None

#: entries whose decoded members exceed this many bytes are not
#: exported — a single pathological trace should not pin hundreds of
#: megabytes of shared pages for the whole sweep
_MAX_EXPORT_BYTES = 256 << 20


def available():
    """Whether shared-memory plane handoff can be used at all."""
    return shared_memory is not None


def _tracker_id():
    """Identity of this process's resource tracker: the device and inode
    of its pipe, which every process reporting to it shares."""
    st = os.fstat(resource_tracker.getfd())
    return (st.st_dev, st.st_ino)


class PlaneBus:
    """Coordinator-side registry of exported plane segments."""

    def __init__(self):
        self._exported = {}  # entry key -> descriptor
        self._segments = []  # live SharedMemory handles, ours to unlink

    def export_entry(self, store, manifest):
        """Export one store entry; its descriptor, or None on failure."""
        key = manifest.get("image_hash")
        if not key:
            return None
        if key in self._exported:
            return self._exported[key]
        npz_path, _man_path = store._paths(key)
        try:
            member = store_mod._decode_blob(manifest, npz_path)
        except store_mod.TORN_ENTRY_ERRORS:
            return None
        blobs = []
        members = []
        offset = 0
        for name, arr in member.items():
            raw = np.ascontiguousarray(arr)
            data = raw.tobytes()
            members.append((name, offset, len(data), raw.dtype.str))
            blobs.append(data)
            offset += len(data)
        if offset > _MAX_EXPORT_BYTES:
            return None
        try:
            shm = shared_memory.SharedMemory(create=True,
                                             size=max(1, offset))
        except OSError:
            return None
        pos = 0
        for data in blobs:
            shm.buf[pos:pos + len(data)] = data
            pos += len(data)
        self._segments.append(shm)
        desc = {
            "key": key,
            "shm": shm.name,
            "tracker": _tracker_id(),
            "exit_code": int(manifest["exit_code"]),
            "memory_bytes": int(manifest["memory_bytes"]),
            "memory_delta": bool(manifest["flags"][0]),
            "members": members,
        }
        self._exported[key] = desc
        obs.counter("dse.planes.exported")
        obs.counter("dse.planes.exported_bytes", offset)
        return desc

    def export_for(self, store, benchmark, scale):
        """Descriptors for every current-code entry of (benchmark, scale)."""
        descs = []
        try:
            names = sorted(os.listdir(store.root))
        except OSError:
            return descs
        for name in names:
            if not name.endswith(".json") or name.endswith(".tmp"):
                continue
            manifest = store_mod._read_manifest(
                os.path.join(store.root, name), warn=False)
            if manifest is None:
                continue
            if manifest.get("benchmark") != benchmark:
                continue
            if scale is not None and manifest.get("scale") != scale:
                continue
            desc = self.export_entry(store, manifest)
            if desc is not None:
                descs.append(desc)
        return descs

    def close(self):
        """Unlink every exported segment (attached workers keep theirs)."""
        for shm in self._segments:
            try:
                shm.close()
            except OSError:
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass
        self._segments = []
        self._exported = {}


#: worker-side registry: entry key -> {"desc": ..., "shm": SharedMemory
#: or None until first lookup}.  Attached handles are kept for the life
#: of the process — closing a segment with live numpy views into it is
#: an error, and the warm plane cache holds such views indefinitely.
_REGISTRY = {}


def clear_registry():
    """Forget every registered descriptor (tests)."""
    _REGISTRY.clear()


def attach(descriptors):
    """Register coordinator-exported descriptors in this process.

    Idempotent; a newer descriptor replaces an older one for the same
    entry only if the old segment was never actually attached (its bus
    may already be gone).
    """
    for desc in descriptors or ():
        entry = _REGISTRY.get(desc["key"])
        if entry is None or (entry["shm"] is None
                             and entry["desc"]["shm"] != desc["shm"]):
            _REGISTRY[desc["key"]] = {"desc": desc, "shm": None}


def lookup(key, image):
    """ExecutionResult for a registered entry, or None.

    Attaches the shared segment on first use; on any failure the
    descriptor is dropped and the caller falls back to disk.
    """
    entry = _REGISTRY.get(key)
    if entry is None or shared_memory is None:
        return None
    desc = entry["desc"]
    try:
        if entry["shm"] is None:
            shm = shared_memory.SharedMemory(name=desc["shm"])
            # attaching registered the segment with our resource tracker;
            # under a tracker of our own that registration would unlink
            # it when we exit — the coordinator's tracker owns it
            if _tracker_id() != tuple(desc["tracker"]):
                resource_tracker.unregister("/" + desc["shm"].lstrip("/"),
                                            "shared_memory")
            entry["shm"] = shm
        shm = entry["shm"]
        member = {}
        for name, offset, nbytes, dtype in desc["members"]:
            view = np.frombuffer(shm.buf, dtype=np.dtype(dtype),
                                 count=nbytes // np.dtype(dtype).itemsize,
                                 offset=offset)
            view.flags.writeable = False
            member[name] = view
        result = store_mod.result_from_members(
            image, desc["exit_code"], member, desc["memory_bytes"],
            desc["memory_delta"])
    except (OSError, ValueError, KeyError):
        _REGISTRY.pop(key, None)
        return None
    obs.counter("trace_store.planes.attached")
    return result


def registry_size():
    return len(_REGISTRY)


def _dump_descriptor(desc):  # pragma: no cover - debugging helper
    return json.dumps(desc, indent=1, sort_keys=True)
