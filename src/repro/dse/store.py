"""The result store: design-point evaluations, written once per task.

One store layout serves both the ``python -m repro.dse sweep --store``
directories and the sweep service's global cache
(:class:`repro.serve.cache.GlobalResultCache` is a view on one store
per scale and result fingerprint)::

    <store>/
        space.json                          # the swept DesignSpace + sweep args
        results/<bench>/<writer>.jsonl      # one segment per writing task

A writer is one sweep task (or one cache ``put`` caller): it opens its
own segment, named by its pid and a random token, on its first write,
appends and flushes one JSON line per evaluated point, and closes the
segment when the task ends.  A line is ``[schema, point_id,
fingerprint, record]``: a result blob with its result fingerprint, or a
failure record ``{"schema", "benchmark", "point_id", "error"}`` with
``null``.  No point creates a file of its own, and no two writers
append to one file, so several sweeps or servers may share a store.

Readers keep a per-benchmark index of where each point's winning line
sits, built from the lines' heads alone (about 4 microseconds a line);
a record is parsed only when it is read, and
:meth:`ResultStore.metrics` decodes only a result line's ``metrics``
member, which is all the sweep service streams of a point (a line is
mostly its manifest).  The index is built on a benchmark's first
lookup and refreshed incrementally, by a consumed byte offset per
segment: whole-store reads and :meth:`ResultStore.count` (a sweep's
live progress) refresh first, point lookups see other writers' later
lines after :meth:`ResultStore.refresh`, and a store sees its own
writes at once.  A line without its newline — the torn
tail of a killed writer — is skipped.  Results are keyed by
``(benchmark, point_id)``, the point id being the point's content
hash, so resume skips everything already stored regardless of task
order, crashes, or how the space was re-declared.  A blob computed by
other code (another :mod:`repro.fingerprint` result fingerprint)
counts as pending; per point, a current-code result beats any other
line, so a retry in another segment supersedes a failure without
rewriting it.  :meth:`ResultStore.gc` compacts each benchmark's
segments into one and deletes the files of previous layouts
(``results/<bench>--<id>.json``, ``failures/``, the ``progress/``
heartbeats), which no reader opens.
"""

import json
import os
import re
import tempfile
import threading

from repro.fingerprint import RESULT, fingerprint

#: Bump when the segment line layout changes; lines of another schema
#: are skipped (and their points re-evaluated) rather than misread.
RESULT_SCHEMA = 2

SEGMENT_SUFFIX = ".jsonl"

#: The head of a segment line as ``json.dumps`` writes it: schema,
#: point id, and the result fingerprint (``null`` for a failure).  Point
#: ids and fingerprints are hex digests, which JSON never escapes.
_HEAD = re.compile(rb'\[%d, "(\w+)", (?:"(\w*)"|null), ' % RESULT_SCHEMA)

#: Where a result record's metrics member starts (:meth:`ResultStore.metrics`).
_METRICS = b'"metrics": '
_DECODER = json.JSONDecoder()


def atomic_write_json(path, data):
    """Write JSON to ``path`` atomically (same-directory temp + replace)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(data))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _listdir(path):
    try:
        return os.listdir(path)
    except OSError:
        return []


class _Index:
    """Where one benchmark's winning line per point sits."""

    __slots__ = ("code", "offsets", "results", "failures", "torn",
                 "superseded")

    def __init__(self, code):
        self.code = code        # the current result fingerprint
        self.offsets = {}       # segment name -> bytes consumed
        self.results = {}       # point id -> (current, segment, offset, length)
        self.failures = {}      # point id -> (segment, offset, length)
        self.torn = 0           # complete lines without this schema's head
        self.superseded = 0     # lines a later or current line replaced

    def add(self, point_id, code, where):
        if code is None:
            if point_id in self.failures:
                self.superseded += 1
            self.failures[point_id] = where
            return
        current = code == self.code
        old = self.results.get(point_id)
        if old is not None:
            self.superseded += 1
            if old[0] and not current:
                return
        self.results[point_id] = (current,) + where

    def consume(self, segment, offset, data):
        """Index the complete lines of ``data``, read from ``segment`` at
        ``offset``; returns how many bytes they span."""
        end = data.rfind(b"\n") + 1
        start = 0
        while start < end:
            stop = data.index(b"\n", start)
            head = _HEAD.match(data, start, stop)
            if head is None:
                self.torn += 1
            else:
                point_id, code = head.groups()
                self.add(point_id.decode(),
                         code if code is None else code.decode(),
                         (segment, offset + start, stop - start))
            start = stop + 1
        return end

    def current(self, point_id):
        where = self.results.get(point_id)
        return where is not None and where[0]

    def failure(self, point_id):
        """Where the failure line of a point no current result
        supersedes sits, or None."""
        if self.current(point_id):
            return None
        return self.failures.get(point_id)


class ResultStore:
    """Directory-backed store of per-(benchmark, point) result lines.

    Thread-safe: a server's event loop and compute threads share one
    instance.  Indexes are built lazily, on the first read of a
    benchmark, and hold no records.
    """

    def __init__(self, root):
        self.root = os.path.expanduser(root)
        self.results_dir = os.path.join(self.root, "results")
        self._lock = threading.Lock()
        self._index = {}        # benchmark -> _Index
        self._segments = {}     # benchmark -> open segment of this writer
        self._writer = None

    # -- store metadata -------------------------------------------------

    @property
    def space_path(self):
        return os.path.join(self.root, "space.json")

    def write_space(self, space, benchmarks, scale):
        meta = space.to_dict()
        meta["benchmarks"] = list(benchmarks)
        meta["scale"] = scale
        atomic_write_json(self.space_path, meta)

    def read_space(self):
        """The stored space metadata dict, or None when absent/torn."""
        try:
            with open(self.space_path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # -- writing --------------------------------------------------------

    def segment_dir(self, benchmark):
        return os.path.join(self.results_dir, benchmark)

    def save(self, result):
        """Append one evaluation blob to this writer's segment."""
        self._append(result["benchmark"], result["point"]["id"],
                     result.get("fingerprint") or "", result)

    def save_failure(self, benchmark, point_id, error):
        self._append(benchmark, point_id, None,
                     {"schema": RESULT_SCHEMA, "benchmark": benchmark,
                      "point_id": point_id, "error": str(error)})

    def _append(self, benchmark, point_id, code, record):
        line = (json.dumps([RESULT_SCHEMA, point_id, code, record])
                + "\n").encode()
        with self._lock:
            segment = self._segments.get(benchmark)
            if segment is None:
                if self._writer is None:
                    self._writer = "%d-%s" % (os.getpid(), os.urandom(4).hex())
                os.makedirs(self.segment_dir(benchmark), exist_ok=True)
                segment = open(os.path.join(self.segment_dir(benchmark),
                                            self._writer + SEGMENT_SUFFIX), "ab")
                self._segments[benchmark] = segment
            offset = segment.tell()
            segment.write(line)
            segment.flush()
            index = self._index.get(benchmark)
            if index is not None:
                # this writer's own lines need no refresh to be seen
                name = self._writer + SEGMENT_SUFFIX
                index.add(point_id, code, (name, offset, len(line) - 1))
                index.offsets[name] = offset + len(line)

    def close(self):
        """Close this writer's segments (a later write opens new ones)."""
        with self._lock:
            for segment in self._segments.values():
                segment.close()
            self._segments = {}
            self._writer = None

    # -- reading --------------------------------------------------------

    def refresh(self, benchmark):
        """Index the complete lines appended to ``benchmark``'s segments
        since the last refresh (by other writers, or other stores)."""
        with self._lock:
            self._refresh(benchmark)

    def _refresh(self, benchmark):
        """:meth:`refresh` with the lock held; returns the index."""
        index = self._index.get(benchmark)
        if index is None:
            index = self._index[benchmark] = _Index(fingerprint(RESULT))
        try:
            entries = sorted(os.scandir(self.segment_dir(benchmark)),
                             key=lambda entry: entry.name)
        except OSError:
            return index
        for entry in entries:
            if not entry.name.endswith(SEGMENT_SUFFIX):
                continue
            done = index.offsets.get(entry.name, 0)
            try:
                if entry.stat().st_size <= done:
                    continue
                with open(entry.path, "rb") as fh:
                    fh.seek(done)
                    data = fh.read()
            except OSError:
                continue
            index.offsets[entry.name] = done + index.consume(
                entry.name, done, data)
        return index

    def _indexed(self, benchmark):
        """The benchmark's index, built on first use; the lock is held."""
        index = self._index.get(benchmark)
        return index if index is not None else self._refresh(benchmark)

    def _benchmarks(self):
        try:
            return sorted(entry.name for entry in os.scandir(self.results_dir)
                          if entry.is_dir())
        except OSError:
            return []

    def _indexes(self):
        """``(benchmark, index)`` for every benchmark, refreshed, in
        benchmark order; the lock is held."""
        return [(benchmark, self._refresh(benchmark))
                for benchmark in self._benchmarks()]

    def _line(self, benchmark, where):
        """The bytes of the line at ``where`` (segment, offset, length),
        or None when it cannot be read back."""
        segment, offset, length = where
        try:
            with open(os.path.join(self.segment_dir(benchmark), segment),
                      "rb") as fh:
                fh.seek(offset)
                return fh.read(length)
        except OSError:
            return None

    def _read(self, benchmark, where):
        """The record of the line at ``where``, or None when it cannot
        be read back."""
        line = self._line(benchmark, where)
        try:
            return None if line is None else json.loads(line)[3]
        except ValueError:
            return None

    def has(self, benchmark, point_id):
        """True when the point has a result computed by the current code."""
        with self._lock:
            return self._indexed(benchmark).current(point_id)

    def load(self, benchmark, point_id):
        """One result blob (current code when there is one), or None."""
        with self._lock:
            where = self._indexed(benchmark).results.get(point_id)
        return None if where is None else self._read(benchmark, where[1:])

    def metrics(self, benchmark, point_id, code):
        """The ``metrics`` member of the point's winning line when that
        line is a result of ``code`` (a result fingerprint), else None.

        Only that member is decoded: the point and the manifest, most of
        a line's bytes, are never parsed.  ``evaluate_point`` writes
        ``metrics`` before ``manifest`` and a point dict has no such
        key, so the line's first ``"metrics": `` is the record's own.
        """
        with self._lock:
            where = self._indexed(benchmark).results.get(point_id)
        line = None if where is None else self._line(benchmark, where[1:])
        head = None if line is None else _HEAD.match(line)
        if head is None or head.group(2) != code.encode():
            return None
        start = line.find(_METRICS, head.end())
        if start < 0:
            return None
        try:
            metrics, _end = _DECODER.raw_decode(
                line.decode(), start + len(_METRICS))
        except ValueError:
            return None
        return metrics if isinstance(metrics, dict) else None

    def count(self, benchmark, point_ids):
        """``(done, failed)`` among ``point_ids``: how many have a
        current-code result, and how many a failure no such result
        supersedes.  Indexes the lines appended since the last read
        first."""
        with self._lock:
            index = self._refresh(benchmark)
            return (sum(map(index.current, point_ids)),
                    sum(index.failure(p) is not None for p in point_ids))

    def failure(self, benchmark, point_id):
        """The point's failure record, or None when it has none or a
        current-code result supersedes it."""
        with self._lock:
            where = self._indexed(benchmark).failure(point_id)
        return None if where is None else self._read(benchmark, where)

    def iter_results(self):
        """Yield one valid result blob per point, sorted by benchmark and
        point id."""
        with self._lock:
            located = [(benchmark, index.results[point_id][1:])
                       for benchmark, index in self._indexes()
                       for point_id in sorted(index.results)]
        for benchmark, where in located:
            blob = self._read(benchmark, where)
            if blob is not None:
                yield blob

    def completed_keys(self):
        """``(benchmark, point_id)`` pairs with a current-code result."""
        with self._lock:
            return {(benchmark, point_id)
                    for benchmark, index in self._indexes()
                    for point_id, where in index.results.items()
                    if where[0]}

    def to_trajectory_records(self, commit=None, scale=None, names=None):
        """Bridge this sweep's results into metrics-trajectory records.

        Returns the :mod:`repro.obs.regress` records for every valid
        result blob, so DSE sweeps feed the same append-only commit
        history (``bench_history/trajectory.jsonl``) as harness runs::

            store = ResultStore(root)
            TrajectoryStore().append(store.to_trajectory_records())
        """
        from repro.obs.regress import current_commit, records_from_dse_store

        if commit is None:
            commit = current_commit()
        return records_from_dse_store(self, commit, scale=scale, names=names)

    def failures(self):
        """Failure records of points no current result supersedes."""
        with self._lock:
            located = [(benchmark, where)
                       for benchmark, index in self._indexes()
                       for where in map(index.failure, sorted(index.failures))
                       if where is not None]
        records = (self._read(benchmark, where) for benchmark, where in located)
        return [record for record in records if record is not None]

    # -- garbage collection ---------------------------------------------

    def gc(self):
        """Prune what killed and superseded work leaves; returns a report.

        Precondition: no sweep is writing the store.

        * each benchmark's segments are compacted into one holding the
          winning line per point: torn lines and lines a later or
          current-code line superseded (a failure a retry fixed, a
          result re-evaluated by newer code) are dropped;
        * files of previous layouts: per-point results
          (``results/<bench>--<id>.json``, ``.tmp-*``), ``failures/``
          and the ``progress/`` heartbeats.

        Current results are never dropped.  Returns ``{"torn": n,
        "superseded": n, "legacy": n}``.
        """
        report = {"torn": 0, "superseded": 0}
        self.close()
        with self._lock:
            self._index = {}
            for benchmark in self._benchmarks():
                self._compact(benchmark, report)
            self._index = {}
        report["legacy"] = self._remove_legacy()
        return report

    def _compact(self, benchmark, report):
        """Fold one benchmark's segments into one; the lock is held."""
        directory = self.segment_dir(benchmark)
        segments = sorted(name for name in os.listdir(directory)
                          if name.endswith(SEGMENT_SUFFIX))
        index = self._refresh(benchmark)
        # bytes past a segment's last newline: a killed writer's tail
        torn = index.torn + sum(
            os.path.getsize(os.path.join(directory, name))
            > index.offsets.get(name, 0) for name in segments)
        failures = [index.failure(p) for p in sorted(index.failures)]
        superseded = index.superseded + failures.count(None)
        report["torn"] += torn
        report["superseded"] += superseded
        if len(segments) <= 1 and not (torn or superseded):
            return
        kept = [index.results[p][1:] for p in sorted(index.results)]
        kept += [where for where in failures if where is not None]
        data = {}
        for name in segments:
            with open(os.path.join(directory, name), "rb") as fh:
                data[name] = fh.read()
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gc-",
                                   suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            # the winning lines, byte for byte
            fh.writelines(data[name][offset:offset + length] + b"\n"
                          for name, offset, length in kept)
        os.replace(tmp, os.path.join(
            directory, "gc-%d-%s%s" % (os.getpid(), os.urandom(4).hex(),
                                       SEGMENT_SUFFIX)))
        for name in segments:
            os.unlink(os.path.join(directory, name))

    def _remove_legacy(self):
        """Delete the files of previous layouts; returns how many."""
        dirs = [os.path.join(self.root, name)
                for name in ("failures", "progress")]
        paths = [os.path.join(self.results_dir, name)
                 for name in _listdir(self.results_dir)
                 if name.endswith(".json")]
        paths += [os.path.join(directory, name)
                  for directory in dirs for name in _listdir(directory)]
        removed = 0
        for path in paths:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        for directory in dirs:
            try:
                os.rmdir(directory)
            except OSError:
                pass
        return removed

    def __repr__(self):
        return "<ResultStore %s>" % self.root
