"""Resumable on-disk result store for design-space sweeps.

Layout (one directory per sweep)::

    <store>/
        space.json                     # the swept DesignSpace + sweep args
        results/<bench>--<pid>.json    # one blob per completed evaluation
        failures/<bench>--<pid>.json   # last error per failed evaluation

Results are keyed by ``(benchmark, point_id)`` where the point id is the
point's content hash — restarting a sweep (``--resume``, the default)
skips everything already on disk, regardless of task order, process
crashes, or how the space was re-declared.  Each blob records the result
fingerprint of the code that computed it (:mod:`repro.fingerprint`);
resume treats a blob from other code as pending, so it is re-evaluated
and overwritten instead of mixing code versions in one frontier.  Every
write goes through a same-directory temp file + ``os.replace`` so
parallel workers and Ctrl-C can never leave a torn blob behind; a
torn/garbage blob from an older run is treated as absent and
re-evaluated.
"""

import json
import os
import tempfile

from repro.fingerprint import RESULT, fingerprint

#: Bump when the result-blob layout changes; stale blobs are skipped
#: (and re-evaluated) rather than misread.
RESULT_SCHEMA = 1


def atomic_write_json(path, data):
    """Write JSON to ``path`` atomically (same-directory temp + replace)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=parent, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _current(blob):
    return blob is not None and blob.get("fingerprint") == fingerprint(RESULT)


class ResultStore:
    """Directory-backed store of per-(benchmark, point) result blobs."""

    def __init__(self, root):
        self.root = os.path.expanduser(root)
        self.results_dir = os.path.join(self.root, "results")
        self.failures_dir = os.path.join(self.root, "failures")

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

    # -- result keys ----------------------------------------------------

    @staticmethod
    def key(benchmark, point_id):
        return "%s--%s" % (benchmark, point_id)

    def result_path(self, benchmark, point_id):
        return os.path.join(self.results_dir, self.key(benchmark, point_id) + ".json")

    def failure_path(self, benchmark, point_id):
        return os.path.join(self.failures_dir, self.key(benchmark, point_id) + ".json")

    # -- results --------------------------------------------------------

    def has(self, benchmark, point_id):
        """True when the point has a result computed by the current code."""
        return _current(self.load(benchmark, point_id))

    def load(self, benchmark, point_id):
        """One result blob, or None when missing/torn/stale."""
        try:
            with open(self.result_path(benchmark, point_id)) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if data.get("schema") != RESULT_SCHEMA:
            return None
        return data

    def save(self, result):
        """Persist one evaluation blob (atomic); clears any failure mark."""
        benchmark = result["benchmark"]
        point_id = result["point"]["id"]
        atomic_write_json(self.result_path(benchmark, point_id), result)
        try:
            os.unlink(self.failure_path(benchmark, point_id))
        except OSError:
            pass

    def save_failure(self, benchmark, point_id, error):
        atomic_write_json(
            self.failure_path(benchmark, point_id),
            {"schema": RESULT_SCHEMA, "benchmark": benchmark,
             "point_id": point_id, "error": str(error)},
        )

    def iter_results(self):
        """Yield every valid result blob (sorted by file name)."""
        try:
            names = sorted(os.listdir(self.results_dir))
        except OSError:
            return
        for fname in names:
            if not fname.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.results_dir, fname)) as fh:
                    data = json.load(fh)
            except (OSError, ValueError):
                continue
            if data.get("schema") != RESULT_SCHEMA:
                continue
            yield data

    def completed_keys(self):
        """``(benchmark, point_id)`` pairs with a current-code result."""
        return {(data["benchmark"], data["point"]["id"])
                for data in self.iter_results() if _current(data)}

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
        """List of failure record dicts (empty when none)."""
        out = []
        try:
            names = sorted(os.listdir(self.failures_dir))
        except OSError:
            return out
        for fname in names:
            try:
                with open(os.path.join(self.failures_dir, fname)) as fh:
                    out.append(json.load(fh))
            except (OSError, ValueError):
                continue
        return out

    # -- garbage collection ---------------------------------------------

    @property
    def progress_dir(self):
        return os.path.join(self.root, "progress")

    def gc(self, stale_after=None):
        """Prune debris a killed sweep leaves behind; returns a report.

        Three kinds of garbage accumulate in a store that sweeps are
        killed over (Ctrl-C, OOM, per-point timeout kills):

        * stale worker heartbeats under ``progress/`` — last-gasp files
          from dead pids that inflate the next run's worker count;
        * orphaned failure records — a failure mark whose point now has
          a valid result (the worker was killed between writing the
          result and clearing the mark), or a torn/garbage failure file;
        * ``.tmp-*`` leftovers from atomic writes interrupted mid-flight
          in ``results/`` and ``failures/``.

        Valid results are never touched.  Returns
        ``{"heartbeats": n, "failures": n, "tmp": n}``.
        """
        from repro.dse import progress as progress_mod

        if stale_after is None:
            stale_after = progress_mod.STALE_AFTER
        report = {"heartbeats": 0, "failures": 0, "tmp": 0}
        report["heartbeats"] = progress_mod.prune_heartbeats(
            self.progress_dir, stale_after=stale_after)

        done = self.completed_keys()
        try:
            names = os.listdir(self.failures_dir)
        except OSError:
            names = []
        for fname in names:
            path = os.path.join(self.failures_dir, fname)
            if fname.startswith(".tmp-"):
                kind = "tmp"
            elif fname.endswith(".json"):
                try:
                    with open(path) as fh:
                        record = json.load(fh)
                    orphaned = ((record["benchmark"], record["point_id"])
                                in done)
                except (OSError, ValueError, KeyError, TypeError):
                    orphaned = True     # torn or garbage record
                if not orphaned:
                    continue
                kind = "failures"
            else:
                continue
            try:
                os.unlink(path)
                report[kind] += 1
            except OSError:
                pass

        try:
            names = os.listdir(self.results_dir)
        except OSError:
            names = []
        for fname in names:
            if not fname.startswith(".tmp-"):
                continue
            try:
                os.unlink(os.path.join(self.results_dir, fname))
                report["tmp"] += 1
            except OSError:
                pass
        return report

    def __repr__(self):
        return "<ResultStore %s>" % self.root
