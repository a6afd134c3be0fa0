"""Superblock profiler for the block-compiled simulation engine.

The block engine (:mod:`repro.sim.functional.engine`) turns executed
control flow into compiled superblocks; this module attributes *where a
simulation's wall-clock actually goes* at that same granularity:

* per-superblock executed units, dispatch wall time, and call counts,
* codegen cost (seconds spent ``exec()``-compiling each block),
* every compile / fallback / throttle decision (cold interpreted
  visits, amortization-gate deferrals, closure-fallback terminators),

without perturbing simulation semantics — profiler-enabled runs are
bit-identical on :class:`~repro.sim.functional.trace.ExecutionResult`
(asserted in ``tests/test_obs_profile.py``).  Overhead is per *block
dispatch* (two ``perf_counter`` calls around a function that executes
tens-to-thousands of instructions), never per instruction.

Enabling:

* ``REPRO_PROFILE=jsonl:<path>`` (or a bare path) — append one JSON
  record per engine run to ``<path>``;
* ``REPRO_PROFILE=memory`` (or ``1``) — keep records in-process (tests);
* programmatically, :func:`enable` / :func:`disable`.

The configuration rides along in :func:`repro.obs.core.export_spec`, so
DSE scheduler workers and parallel harness collects inherit it.

Attribution context: simulators do not know which benchmark they are
running, so the caller that does (``dse.evaluate._functional``, which
the harness and every sweep go through) wraps the whole build in
:func:`run_context`; records then carry ``benchmark`` and ``scale``
alongside the ISA and image name, and ``cached_run`` writes the same
two fields into the trace-store manifest.

Analysis CLI::

    python -m repro.obs.profile top   --profile prof.jsonl [-n 20]
    python -m repro.obs.profile top   --profile prof.jsonl --energy
    python -m repro.obs.profile flame --profile prof.jsonl --out out.folded
    python -m repro.obs.profile diff  --profile old.jsonl new.jsonl

``top`` ranks hot superblocks per (benchmark, ISA); ``--stable`` prints
only deterministic columns (no wall time), which is what the CI
determinism gate compares across two runs.  ``--energy`` adds a dynamic
I-cache fetch-energy column: each block's exact fetch-word footprint
recorded off the superblock table (words-per-iteration weighted by
iteration counts — no re-derivation; pre-columnar records fall back to
units times the ISA's bytes-per-instruction), priced per 32-bit fetch
word by the :mod:`repro.power.cache_power` read-access model at
``--icache-bytes`` / ``--tech`` (defaults: the paper's 8 KiB at 350nm)
— deterministic, so it composes with ``--stable``.  ``flame`` emits collapsed-stack lines
(``benchmark;isa;func;block@entry weight``) consumable by
flamegraph.pl / speedscope; ``diff`` aligns two profile files per block
and reports unit/time deltas.

Every :meth:`BlockRecorder.finish` also folds the run's total fetch
energy into the ``profile.energy.fetch_joules`` metrics histogram (and
a ``profile.energy.fetch_words`` counter) when obs is enabled, so live
dashboards and OpenMetrics exposition see per-run energy without
reparsing profile JSONL.
"""

import argparse
import contextlib
import contextvars
import json
import os
import sys
import time

#: Bump when the record layout changes.
PROFILE_SCHEMA = 2

PROFILE_ENV = "REPRO_PROFILE"

_active = False
_path = None          # None while active → in-memory records
_records = []         # memory-mode store
_run_ctx = contextvars.ContextVar("repro.obs.profile.ctx", default=None)


def enabled():
    """True when engine runs should record block profiles."""
    return _active


def enable(path=None):
    """Turn profiling on.  ``path=None`` keeps records in memory."""
    global _active, _path
    _active = True
    _path = os.path.expanduser(path) if path else None


def disable():
    global _active, _path
    _active = False
    _path = None


def clear():
    """Drop in-memory records (tests)."""
    del _records[:]


def records():
    """The in-memory records collected so far (memory mode)."""
    return list(_records)


def configure_from_env(env=None):
    """Apply ``REPRO_PROFILE``; returns True when profiling is enabled."""
    env = os.environ if env is None else env
    spec = (env.get(PROFILE_ENV) or "").strip()
    if not spec or spec == "0" or spec.lower() == "off":
        return False
    if spec.startswith("jsonl:"):
        enable(spec[len("jsonl:"):])
    elif spec.lower() in ("1", "on", "memory", "mem"):
        enable(None)
    else:
        enable(spec)  # bare path
    return True


def export_spec():
    """Picklable profiling configuration for worker processes."""
    if not _active:
        return None
    return {"path": _path}


def apply_spec(spec):
    """Recreate the configuration captured by :func:`export_spec`."""
    if spec is None:
        if _active:
            disable()
        return
    enable(spec.get("path"))


@contextlib.contextmanager
def run_context(benchmark=None, scale=None):
    """Attribute engine runs inside the block to ``benchmark``/``scale``."""
    token = _run_ctx.set({"benchmark": benchmark, "scale": scale})
    try:
        yield
    finally:
        _run_ctx.reset(token)


def current_context():
    return _run_ctx.get() or {}


def _emit(record):
    if _path is None:
        _records.append(record)
        return
    parent = os.path.dirname(_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    # one short-lived append per engine run: safe across many workers
    # (single write), and no fd outlives the run that produced it
    with open(_path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def recorder():
    """A fresh :class:`BlockRecorder`, or None when profiling is off."""
    if not _active:
        return None
    return BlockRecorder()


# ----------------------------------------------------------------------
# dynamic I-cache fetch energy (the paper's power model, per superblock)

#: bytes fetched per executed instruction — ARM is fixed 32-bit; Thumb
#: and the synthesized FITS encodings are 16-bit
_ISA_FETCH_BYTES = {"arm": 4, "thumb": 2, "fits": 2}

_word_energy_cache = {}


def fetch_word_energy(icache_bytes=8192, tech="350nm", fetch_bits=32):
    """Dynamic energy (J) of one 32-bit fetch-word read from the I-cache.

    One cache read access (decode + tag compare + data-bit drive, from
    :class:`repro.power.cache_power.CachePowerModel`) plus the output
    drive per access — the per-fetch dynamic component, excluding
    time-proportional clock/leakage terms that cannot be attributed to
    a single block.  Memoized per (geometry, tech, width).
    """
    key = (icache_bytes, tech, fetch_bits)
    energy = _word_energy_cache.get(key)
    if energy is None:
        from repro.power import CachePowerModel
        from repro.power.technology import tech_node
        from repro.sim.cache import CacheGeometry

        node = tech_node(tech)
        model = CachePowerModel(CacheGeometry(icache_bytes), node,
                                fetch_bits=fetch_bits)
        energy = model.read_energy + node.e_output_access
        _word_energy_cache[key] = energy
    return energy


def fetch_words(units, isa):
    """Fetch footprint of ``units`` executed instructions, in 32-bit words."""
    return units * _ISA_FETCH_BYTES.get(isa, 4) / 4.0


def _row_fetch_words(row, isa):
    """A row's fetch footprint in 32-bit words: the superblock table's
    exact per-entry total when the record carries one (schema v2),
    else derived from unit counts (pre-columnar records)."""
    words = row.get("fetch_words")
    if words is not None:
        return words
    return fetch_words(row["units"] + row["interp_units"], isa)


def _emit_energy_metrics(isa, rows):
    """Fold one finished run's fetch energy into ``profile.energy.*``.

    Advisory: the metrics registry must never turn a simulation into a
    failure, so any error (including an unknown tech table) is dropped.
    """
    from repro.obs import core as obs_core

    if not obs_core.enabled:
        return
    try:
        words = sum(_row_fetch_words(row, isa) for row in rows)
        obs_core.observe("profile.energy.fetch_joules",
                         words * fetch_word_energy())
        obs_core.counter("profile.energy.fetch_words", int(round(words)))
    except Exception:
        pass


# per-entry stat slots (list-backed for cheap hot-path accumulation)
_CALLS, _UNITS, _SECONDS, _COMPILED, _COMPILE_S, _SCAN_UNITS, _FALLBACKS, \
    _INTERP_VISITS, _INTERP_UNITS, _INTERP_S, _THROTTLED = range(11)


class BlockRecorder:
    """Accumulates per-superblock attribution for one engine run.

    The engine drives four hooks — :meth:`compiled` (codegen),
    :meth:`call` (one dispatch of a compiled block), :meth:`interp`
    (one cold interpreted run, with the throttle flag), and
    :meth:`finish` (emit the run record).
    """

    __slots__ = ("blocks", "_t0")

    def __init__(self):
        self.blocks = {}
        self._t0 = time.perf_counter()

    def _slot(self, entry):
        b = self.blocks.get(entry)
        if b is None:
            b = self.blocks[entry] = [0, 0, 0.0, 0, 0.0, 0, 0, 0, 0, 0.0, 0]
        return b

    def compiled(self, entry, seconds, scan_units, fallbacks):
        b = self._slot(entry)
        b[_COMPILED] = 1
        b[_COMPILE_S] += seconds
        b[_SCAN_UNITS] = scan_units
        b[_FALLBACKS] = fallbacks

    def call(self, entry, units, seconds):
        b = self._slot(entry)
        b[_CALLS] += 1
        b[_UNITS] += units
        b[_SECONDS] += seconds

    def interp(self, entry, units, seconds, throttled):
        b = self._slot(entry)
        b[_INTERP_VISITS] += 1
        b[_INTERP_UNITS] += units
        b[_INTERP_S] += seconds
        if throttled:
            b[_THROTTLED] += 1

    def finish(self, isa, image_name, func_of_index=None, totals=None,
               fetch_words_of_entry=None):
        """Build and emit the run record; returns it.

        ``fetch_words_of_entry`` is the engine's exact per-entry fetch
        footprint off the superblock table (words-per-iteration times
        iteration counts); when given, every row carries it as
        ``fetch_words`` and energy pricing uses it directly.
        """
        wall = time.perf_counter() - self._t0
        ctx = current_context()
        rows = []
        for entry in sorted(self.blocks):
            b = self.blocks[entry]
            func = "?"
            if func_of_index is not None and 0 <= entry < len(func_of_index):
                func = str(func_of_index[entry])
            row = {
                "entry": entry,
                "func": func,
                "calls": b[_CALLS],
                "units": b[_UNITS],
                "seconds": b[_SECONDS],
                "compiled": bool(b[_COMPILED]),
                "compile_seconds": b[_COMPILE_S],
                "scan_units": b[_SCAN_UNITS],
                "fallbacks": b[_FALLBACKS],
                "interp_visits": b[_INTERP_VISITS],
                "interp_units": b[_INTERP_UNITS],
                "interp_seconds": b[_INTERP_S],
                "throttled_visits": b[_THROTTLED],
            }
            if fetch_words_of_entry is not None:
                row["fetch_words"] = int(fetch_words_of_entry.get(entry, 0))
            rows.append(row)
        record = {
            "kind": "block_profile",
            "schema": PROFILE_SCHEMA,
            "benchmark": ctx.get("benchmark"),
            "scale": ctx.get("scale"),
            "isa": isa,
            "image": image_name,
            "engine": "block",
            "pid": os.getpid(),
            "wall_seconds": wall,
            "totals": dict(totals or {}),
            "blocks": rows,
        }
        _emit(record)
        _emit_energy_metrics(isa, rows)
        return record


# ----------------------------------------------------------------------
# analysis: loading, aggregation, CLI


def iter_records(path):
    """Yield block-profile records from a JSONL file, skipping garbage."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict) and record.get("kind") == "block_profile":
                yield record


def load_records(path):
    return list(iter_records(path))


def record_label(record):
    """Attribution label: the benchmark when known, else the image name."""
    return record.get("benchmark") or record.get("image") or "?"


def aggregate(records, benchmark=None, isa=None):
    """Merge records into ``{(label, isa): {entry: row}}``.

    Multiple runs of the same (label, isa) — e.g. a budget image the
    synthesis flow had to simulate beside its baseline — sum their
    counts; ``func`` and ``compiled`` come from the last record seen
    (they are stable per image).
    """
    groups = {}
    for record in records:
        label = record_label(record)
        if benchmark is not None and label != benchmark:
            continue
        if isa is not None and record.get("isa") != isa:
            continue
        group = groups.setdefault((label, record.get("isa", "?")), {})
        for row in record.get("blocks", ()):
            entry = row["entry"]
            agg = group.get(entry)
            if agg is None:
                group[entry] = dict(row)
                continue
            for key in ("calls", "units", "seconds", "compile_seconds",
                        "fallbacks", "interp_visits", "interp_units",
                        "interp_seconds", "throttled_visits"):
                agg[key] += row.get(key, 0)
            if "fetch_words" in row:
                agg["fetch_words"] = (agg.get("fetch_words") or 0) \
                    + row["fetch_words"]
            agg["func"] = row.get("func", agg["func"])
            agg["compiled"] = bool(row.get("compiled")) or agg["compiled"]
    return groups


def _status(row):
    bits = []
    if row.get("compiled"):
        bits.append("compiled")
    if row.get("fallbacks"):
        bits.append("fallback=%d" % row["fallbacks"])
    if row.get("throttled_visits"):
        bits.append("throttled=%d" % row["throttled_visits"])
    if not row.get("compiled"):
        bits.append("interp")
    return ",".join(bits)


_SORT_KEYS = {
    "units": lambda r: (-(r["units"] + r["interp_units"]), r["entry"]),
    "seconds": lambda r: (-(r["seconds"] + r["interp_seconds"]), r["entry"]),
    "calls": lambda r: (-(r["calls"] + r["interp_visits"]), r["entry"]),
}


def render_top(groups, limit=20, sort="units", stable=False,
               energy_per_word=None):
    """Per-(benchmark, ISA) hot-block ranking as text lines.

    ``energy_per_word`` (J per 32-bit fetch word, from
    :func:`fetch_word_energy`) adds a per-block dynamic fetch-energy
    column and a per-group total.
    """
    lines = []
    for label, isa in sorted(groups):
        rows = sorted(groups[(label, isa)].values(), key=_SORT_KEYS[sort])
        total_units = sum(r["units"] + r["interp_units"] for r in rows) or 1
        total_s = sum(r["seconds"] + r["interp_seconds"] for r in rows)
        if lines:
            lines.append("")
        head = "%s/%s: %d blocks, %s units" % (
            label, isa, len(rows), "{:,}".format(total_units))
        if energy_per_word is not None:
            total_words = sum(_row_fetch_words(r, isa) for r in rows)
            head += ", %.3f uJ fetch energy" % (
                total_words * energy_per_word * 1e6)
        if not stable:
            head += ", %.3fs attributed" % total_s
        lines.append(head)
        energy_col = " %10s" % "fetch_uJ" if energy_per_word is not None else ""
        if stable:
            header = "%6s %-22s %10s %14s %8s%s  %s" % (
                "entry", "func", "calls", "units", "units%", energy_col,
                "status")
        else:
            header = "%6s %-22s %10s %14s %8s%s %10s %10s  %s" % (
                "entry", "func", "calls", "units", "units%", energy_col,
                "wall_ms", "codegen_ms", "status")
        lines.append(header)
        lines.append("-" * len(header))
        for row in rows[:limit]:
            units = row["units"] + row["interp_units"]
            calls = row["calls"] + row["interp_visits"]
            cell = ""
            if energy_per_word is not None:
                cell = " %10.4f" % (
                    _row_fetch_words(row, isa) * energy_per_word * 1e6)
            if stable:
                lines.append("%6d %-22s %10s %14s %7.1f%%%s  %s" % (
                    row["entry"], row["func"][:22], "{:,}".format(calls),
                    "{:,}".format(units), 100.0 * units / total_units,
                    cell, _status(row)))
            else:
                lines.append("%6d %-22s %10s %14s %7.1f%%%s %10.2f %10.2f  %s" % (
                    row["entry"], row["func"][:22], "{:,}".format(calls),
                    "{:,}".format(units), 100.0 * units / total_units,
                    cell, (row["seconds"] + row["interp_seconds"]) * 1e3,
                    row["compile_seconds"] * 1e3, _status(row)))
    return lines


def collapsed_stacks(groups, weight="units"):
    """Collapsed-stack (flame-graph) lines, deterministically ordered.

    One frame stack per superblock — ``label;isa;func;block@entry`` —
    weighted by executed units (exact, deterministic) or attributed
    wall time in integer microseconds (``weight="seconds"``).
    """
    out = {}
    for (label, isa), rows in groups.items():
        for row in rows.values():
            if weight == "seconds":
                value = int(round(
                    (row["seconds"] + row["interp_seconds"]) * 1e6))
            else:
                value = row["units"] + row["interp_units"]
            if not value:
                continue
            frame = "%s;%s;%s;block@%d" % (label, isa, row["func"], row["entry"])
            out[frame] = out.get(frame, 0) + value
    return ["%s %d" % (frame, out[frame]) for frame in sorted(out)]


def render_diff(groups_a, groups_b, limit=20, stable=False):
    """Per-block deltas between two aggregated profiles (B minus A)."""
    lines = []
    keys = sorted(set(groups_a) | set(groups_b))
    for key in keys:
        label, isa = key
        a = groups_a.get(key, {})
        b = groups_b.get(key, {})
        entries = sorted(set(a) | set(b))
        rows = []
        for entry in entries:
            ra = a.get(entry)
            rb = b.get(entry)
            units_a = (ra["units"] + ra["interp_units"]) if ra else 0
            units_b = (rb["units"] + rb["interp_units"]) if rb else 0
            s_a = (ra["seconds"] + ra["interp_seconds"]) if ra else 0.0
            s_b = (rb["seconds"] + rb["interp_seconds"]) if rb else 0.0
            func = (rb or ra)["func"]
            note = "" if (ra and rb) else ("only-new" if rb else "only-old")
            rows.append((entry, func, units_a, units_b, s_a, s_b, note))
        rows.sort(key=lambda r: (-abs(r[3] - r[2]), r[0]))
        if lines:
            lines.append("")
        lines.append("%s/%s: %d blocks compared" % (label, isa, len(rows)))
        if stable:
            header = "%6s %-22s %14s %14s %14s  %s" % (
                "entry", "func", "units_old", "units_new", "d_units", "note")
        else:
            header = "%6s %-22s %14s %14s %14s %10s  %s" % (
                "entry", "func", "units_old", "units_new", "d_units",
                "d_wall_ms", "note")
        lines.append(header)
        lines.append("-" * len(header))
        for entry, func, ua, ub, sa, sb, note in rows[:limit]:
            if stable:
                lines.append("%6d %-22s %14s %14s %+14d  %s" % (
                    entry, func[:22], "{:,}".format(ua), "{:,}".format(ub),
                    ub - ua, note))
            else:
                lines.append("%6d %-22s %14s %14s %+14d %+10.2f  %s" % (
                    entry, func[:22], "{:,}".format(ua), "{:,}".format(ub),
                    ub - ua, (sb - sa) * 1e3, note))
    return lines


def _load_groups(path, args):
    try:
        recs = load_records(path)
    except OSError as exc:
        raise SystemExit("error: cannot read profile %s (%s) — run with "
                         "%s=jsonl:<path> first" % (path, exc, PROFILE_ENV))
    if not recs:
        raise SystemExit(
            "error: no block-profile records in %s (run with "
            "%s=jsonl:<path>)" % (path, PROFILE_ENV))
    return aggregate(recs, benchmark=args.benchmark, isa=args.isa)


def _default_profile():
    spec = (os.environ.get(PROFILE_ENV) or "").strip()
    if spec.startswith("jsonl:"):
        return spec[len("jsonl:"):]
    if spec and spec.lower() not in ("0", "off", "1", "on", "memory", "mem"):
        return spec
    return None


def cmd_top(args):
    groups = _load_groups(args.profile, args)
    if not groups:
        print("no blocks matched the filters", file=sys.stderr)
        return 1
    energy = None
    if args.energy:
        try:
            energy = fetch_word_energy(icache_bytes=args.icache_bytes,
                                       tech=args.tech)
        except (KeyError, ValueError) as exc:
            raise SystemExit("error: cannot price fetch energy (%s)" % exc)
    print("\n".join(render_top(groups, limit=args.n, sort=args.sort,
                               stable=args.stable, energy_per_word=energy)))
    return 0


def cmd_flame(args):
    groups = _load_groups(args.profile, args)
    lines = collapsed_stacks(groups, weight=args.weight)
    if not lines:
        print("no nonzero-weight blocks to export", file=sys.stderr)
        return 1
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("wrote %d collapsed stacks to %s" % (len(lines), args.out))
    else:
        sys.stdout.write(text)
    return 0


def cmd_diff(args):
    old = _load_groups(args.profiles[0], args)
    new = _load_groups(args.profiles[1], args)
    print("\n".join(render_diff(old, new, limit=args.n, stable=args.stable)))
    return 0


def _add_common(p):
    p.add_argument("--benchmark", default=None,
                   help="restrict to one benchmark/image label")
    p.add_argument("--isa", default=None, help="restrict to one ISA")
    p.add_argument("-n", type=int, default=20,
                   help="rows per (benchmark, ISA) group (default 20)")
    p.add_argument("--stable", action="store_true",
                   help="deterministic columns only (no wall time) — for "
                   "CI determinism comparisons")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Block-engine profiler analysis: rank hot superblocks, "
        "export flame graphs, diff two runs (schema v%d)." % PROFILE_SCHEMA,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("top", help="rank hot superblocks per (benchmark, ISA)")
    p.add_argument("--profile", default=_default_profile(), required=_default_profile() is None,
                   help="profile JSONL written via %s=jsonl:<path>" % PROFILE_ENV)
    p.add_argument("--sort", default="units", choices=sorted(_SORT_KEYS),
                   help="ranking key (default: units — deterministic)")
    p.add_argument("--energy", action="store_true",
                   help="add a per-block dynamic I-cache fetch-energy "
                   "column (cache_power read model x fetch footprint; "
                   "deterministic, composes with --stable)")
    p.add_argument("--icache-bytes", type=int, default=8192,
                   help="I-cache size pricing --energy (default: 8192, "
                   "the paper's baseline)")
    p.add_argument("--tech", default="350nm",
                   help="tech node pricing --energy (default: 350nm)")
    _add_common(p)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("flame", help="collapsed-stack (flame-graph) export")
    p.add_argument("--profile", default=_default_profile(), required=_default_profile() is None,
                   help="profile JSONL written via %s=jsonl:<path>" % PROFILE_ENV)
    p.add_argument("--weight", default="units", choices=("units", "seconds"),
                   help="frame weight: executed units (deterministic) or "
                   "attributed wall time in µs")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--benchmark", default=None)
    p.add_argument("--isa", default=None)
    p.set_defaults(func=cmd_flame)

    p = sub.add_parser("diff", help="per-block deltas between two profiles")
    p.add_argument("profiles", nargs=2, metavar="PROFILE",
                   help="old and new profile JSONL files")
    _add_common(p)
    p.set_defaults(func=cmd_diff)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


configure_from_env()


if __name__ == "__main__":
    sys.exit(main())
