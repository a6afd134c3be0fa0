"""Execution traces shared by the ARM and FITS functional simulators.

The trace is *columnar and run-length compressed*: the canonical form is
a **superblock table** (one row per distinct straight-line run — its
static start/end instruction indices) plus a **run-length execution
stream** of ``(superblock_id, iteration_count)`` segments.  Hot loops
collapse to one table row plus one segment, which is exactly what the
timing and cache replay passes want: per-block work is done once and
folded in weighted by iteration counts (see
:mod:`repro.sim.pipeline.timing` and
:func:`repro.sim.cache.stack.profile_spans_rle`).

The flat per-boundary view (``run_starts``/``run_ends``, one entry per
dynamic run) is still available as a lazily-materialized property —
``np.repeat`` over the segments — for per-access consumers such as the
reference :func:`~repro.sim.pipeline.timing.simulate_timing`; the
encoder's round trip is property-tested in ``tests/test_trace_rle.py``.
"""

from array import array

import numpy as np

from repro.obs import core as obs

#: Boundary packing: one machine word per run boundary,
#: ``start * PACK + end``.  Static instruction indices are far below
#: 2**20 for every image this project builds (the engine guards this at
#: run start), so the packed form is exactly invertible and lets the
#: generated block code emit *one* array append per boundary instead of
#: two — and the run-length encoder segment on a single array compare.
PACK_SHIFT = 20
PACK = 1 << PACK_SHIFT
PACK_MASK = PACK - 1


def rle_encode_packed(bounds, rep_index=(), rep_extra=()):
    """Run-length encode a packed per-boundary stream into the columnar
    form.

    Args:
        bounds: per-boundary ``start*PACK + end`` words.
        rep_index / rep_extra: optional batched-repeat records from the
            block engine: the boundary at ``rep_index[i]`` stands for
            ``1 + rep_extra[i]`` consecutive identical boundaries.

    Returns:
        ``(block_starts, block_ends, seg_ids, seg_counts)`` — the
        superblock table (sorted by ``(start, end)``: the packed word
        *is* that sort key) and the segment stream; the exact
        per-boundary stream is recovered as
        ``np.repeat(block_starts[seg_ids], seg_counts)`` (same for
        ends).
    """
    b = np.asarray(bounds, dtype=np.int64)
    if len(b) == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy(), z.copy()
    # maximal segments of consecutive identical boundaries
    change = np.empty(len(b), dtype=bool)
    change[0] = True
    np.not_equal(b[1:], b[:-1], out=change[1:])
    first = np.flatnonzero(change)
    seg_counts = np.diff(np.append(first, len(b)))
    if len(rep_index):
        # fold the engine's batched backedge repeats into their segments
        idx = np.asarray(rep_index, dtype=np.int64)
        extra = np.asarray(rep_extra, dtype=np.int64)
        seg_of = np.searchsorted(first, idx, side="right") - 1
        np.add.at(seg_counts, seg_of, extra)
    uniq, seg_ids = np.unique(b[first], return_inverse=True)
    return (uniq >> PACK_SHIFT, uniq & PACK_MASK,
            seg_ids.astype(np.int64), seg_counts)


class ExecutionResult:
    """Everything a completed functional simulation produced.

    Attributes:
        image: the executed :class:`~repro.compiler.link.Image` (or FITS
            equivalent).
        exit_code: value of r0 at the exit SWI.
        block_starts / block_ends: the superblock table — numpy int64
            arrays, one row per distinct straight-line run; row ``b``
            covers static instruction indices
            ``block_starts[b] .. block_ends[b]`` inclusive.
        seg_ids / seg_counts: the run-length execution stream — segment
            ``i`` executed superblock ``seg_ids[i]`` exactly
            ``seg_counts[i]`` consecutive times.
        mem_packed: the data accesses in order, one int64 per record,
            ``addr*2 | is_store``.
        console: bytes written via the putc SWI.
        memory: final memory image (for checksum validation).  It may
            be given as a zero-argument callable that builds it; the
            first read calls it and keeps the bytes.  A trace loaded
            from the store does this, since no timing, cache or power
            model reads the memory.

    Derived lazily from those: the flat per-boundary view
    ``run_starts``/``run_ends`` (one entry per dynamic run) and the
    split access view ``mem_addrs`` (uint32) / ``mem_is_store``
    (uint8).
    """

    def __init__(self, image, exit_code, block_starts, block_ends, seg_ids,
                 seg_counts, mem_packed, console=b"", memory=None):
        self.image = image
        self.exit_code = exit_code
        self.block_starts = np.asarray(block_starts, dtype=np.int64)
        self.block_ends = np.asarray(block_ends, dtype=np.int64)
        self.seg_ids = np.asarray(seg_ids, dtype=np.int64)
        self.seg_counts = np.asarray(seg_counts, dtype=np.int64)
        self.mem_packed = np.asarray(mem_packed, dtype=np.int64)
        self.console = console
        self.memory = memory
        self._run_starts = None
        self._run_ends = None
        self._mem_addrs = None
        self._mem_is_store = None
        self._exec_counts = None

    @property
    def memory(self):
        if callable(self._memory):
            self._memory = self._memory()
        return self._memory

    @memory.setter
    def memory(self, value):
        self._memory = value

    # --- lazily derived flat views -------------------------------------

    @property
    def mem_addrs(self):
        if self._mem_addrs is None:
            self._mem_addrs = (self.mem_packed >> 1).astype(np.uint32)
        return self._mem_addrs

    @property
    def mem_is_store(self):
        if self._mem_is_store is None:
            self._mem_is_store = (self.mem_packed & 1).astype(np.uint8)
        return self._mem_is_store

    @property
    def num_mem_accesses(self):
        return len(self.mem_packed)

    @property
    def run_starts(self):
        if self._run_starts is None:
            self._run_starts = np.repeat(
                self.block_starts[self.seg_ids], self.seg_counts)
        return self._run_starts

    @property
    def run_ends(self):
        if self._run_ends is None:
            self._run_ends = np.repeat(
                self.block_ends[self.seg_ids], self.seg_counts)
        return self._run_ends

    def block_totals(self):
        """Total iteration count per superblock (numpy int64)."""
        totals = np.zeros(len(self.block_starts), dtype=np.int64)
        np.add.at(totals, self.seg_ids, self.seg_counts)
        return totals

    # --- derived counts ------------------------------------------------

    @property
    def num_runs(self):
        return int(self.seg_counts.sum())

    @property
    def dynamic_instructions(self):
        """Total executed instruction count."""
        lens = self.block_ends - self.block_starts + 1
        return int(np.dot(lens[self.seg_ids], self.seg_counts))

    @property
    def num_static(self):
        """Static instruction count of the executed image (any ISA)."""
        if hasattr(self.image, "instrs"):
            return len(self.image.instrs)
        return len(self.image.halfwords)

    def exec_counts(self):
        """Per-static-instruction execution counts (numpy int64)."""
        if self._exec_counts is None:
            totals = self.block_totals()
            n = self.num_static
            delta = np.zeros(n + 1, dtype=np.int64)
            np.add.at(delta, self.block_starts, totals)
            np.add.at(delta, self.block_ends + 1, -totals)
            self._exec_counts = np.cumsum(delta[:-1])
        return self._exec_counts

    def taken_counts(self):
        """Per-static-instruction counts of *taken* control transfers.

        A run ends at index ``i`` when the instruction at ``i``
        transferred control (or was the exit SWI); the count of runs
        ending at ``i`` is how many times it was taken.
        """
        counts = np.zeros(self.num_static, dtype=np.int64)
        np.add.at(counts, self.block_ends, self.block_totals())
        return counts

    def read_word(self, addr):
        return int.from_bytes(self.memory[addr : addr + 4], "little")

    def read_bytes(self, addr, count):
        return bytes(self.memory[addr : addr + count])


class TraceBuilder:
    """Mutable accumulator used by simulators while executing.

    Backed by compact :mod:`array` buffers rather than Python lists,
    one machine word per record, in *packed* form: run boundaries are a
    single ``start*PACK + end`` stream and data accesses a single
    ``addr*2 | is_store`` stream, so the block engine's generated code
    pays one C-level append per boundary and one extend element per
    access.  A hot loop's self-backedge iterations are further batched
    into a single :meth:`flush_repeat` call (a local counter inside the
    generated block replaces the per-iteration append).
    :meth:`build_result` run-length encodes everything into the
    columnar :class:`ExecutionResult` once, vectorized.

    ``add_mem`` takes one already-packed ``addr*2 + is_store`` word —
    the per-instruction closure handlers bind it once and pay a single
    C-level append per access; here it *is* ``mem.append``.
    """

    def __init__(self):
        self.bounds = array("q")
        self.rep_index = array("q")
        self.rep_extra = array("q")
        self.mem = array("q")
        self.add_mem = self.mem.append
        self.console = bytearray()

    def add_boundary(self, start, end):
        """Record one run boundary (interpreted path)."""
        self.bounds.append(start * PACK + end)

    def flush_repeat(self, start, end, count):
        """Record ``count`` consecutive identical ``(start, end)``
        boundaries batched by a generated block's backedge counter."""
        self.bounds.append(start * PACK + end)
        if count > 1:
            self.rep_index.append(len(self.bounds) - 1)
            self.rep_extra.append(count - 1)

    def build_result(self, image, exit_code, memory):
        """Run-length encode the accumulated trace into the columnar
        :class:`ExecutionResult` (one vectorized pass)."""
        bs, be, sid, sc = rle_encode_packed(self.bounds, self.rep_index,
                                            self.rep_extra)
        return ExecutionResult(
            image=image,
            exit_code=exit_code,
            block_starts=bs, block_ends=be, seg_ids=sid, seg_counts=sc,
            mem_packed=self.mem,
            console=bytes(self.console),
            memory=memory,
        )


def _instr_kind(ins):
    """Histogram label for one static instruction (opcode over class)."""
    if ins is None:
        return "cont"  # continuation halfword (Thumb BL low half)
    op = getattr(ins, "op", None)
    name = getattr(op, "name", None)
    if name:
        return name
    return type(ins).__name__


def publish_result(prefix, result):
    """Feed one completed simulation into the observability layer.

    Called by every functional simulator after a run: records trace-level
    counters and — behind the ``REPRO_OBS_OPCODES`` sampling knob, since
    this walk is O(static instructions) — a per-opcode histogram of
    dynamic execution counts.
    """
    if not obs.enabled:
        return
    obs.counter(prefix + ".executions")
    obs.counter(prefix + ".instructions", result.dynamic_instructions)
    obs.counter(prefix + ".runs", result.num_runs)
    obs.counter(prefix + ".superblocks", len(result.block_starts))
    obs.counter(prefix + ".segments", len(result.seg_ids))
    obs.counter(prefix + ".mem_accesses", result.num_mem_accesses)
    if not obs.opcode_sampling():
        return
    image = result.image
    static = getattr(image, "instrs", None)
    if static is None:
        static = getattr(image, "instr_at", None)
    if static is None:
        static = getattr(image, "records", None)
    if static is None:
        return
    counts = result.exec_counts()
    hist = {}
    for i, ins in enumerate(static):
        kind = _instr_kind(ins)
        hist[kind] = hist.get(kind, 0) + int(counts[i])
    for kind, count in sorted(hist.items()):
        if count:
            obs.counter("%s.opcode.%s" % (prefix, kind), count)
