"""Trace-driven timing model of the dual-issue in-order core.

The functional simulators emit run-compressed traces (straight-line
stretches between taken control transfers).  Timing is computed as:

* **base issue cycles** per distinct run, from a dual-issue scoreboard
  walk (RAW dependencies incl. a flags pseudo-register, one memory port,
  one multiplier, load-use and multiply result latencies, multi-cycle
  load/store-multiple) — memoized, since the dynamic trace repeats a
  small set of runs;
* **control-flow penalties** from a backward-taken/forward-not-taken
  static predictor (taken-branch redirect bubble, mispredict penalty,
  indirect-return penalty);
* **cache penalties** from line-granular I-cache simulation over each
  run's address span and the D-cache event counts of the memory trace
  (counted per set; only sets that can evict are simulated).

The same walk produces what the power model needs: fetch-word request
counts and Hamming toggles on the instruction bus (real encodings).
"""

import numpy as np

from repro.obs import core as obs
from repro.sim.cache.model import CacheGeometry, SetAssociativeCache, publish_stats
from repro.sim.cache.stack import expand_line_spans, profile_spans_rle
from repro.sim.pipeline.meta import arm_meta, fits_meta, thumb_meta, FLAGS


class TimingConfig:
    """Core and memory-system parameters (SA-1100-like defaults)."""

    def __init__(
        self,
        issue_width=2,
        icache_miss_penalty=24,
        dcache_miss_penalty=24,
        mispredict_penalty=2,
        taken_redirect_penalty=1,
        indirect_penalty=1,
        frequency_hz=200e6,
        icache_block=32,
        icache_assoc=32,
        dcache_bytes=8 * 1024,
        dcache_block=32,
        dcache_assoc=32,
    ):
        self.issue_width = issue_width
        self.icache_miss_penalty = icache_miss_penalty
        self.dcache_miss_penalty = dcache_miss_penalty
        self.mispredict_penalty = mispredict_penalty
        self.taken_redirect_penalty = taken_redirect_penalty
        self.indirect_penalty = indirect_penalty
        self.frequency_hz = frequency_hz
        self.icache_block = icache_block
        self.icache_assoc = icache_assoc
        self.dcache_bytes = dcache_bytes
        self.dcache_block = dcache_block
        self.dcache_assoc = dcache_assoc

    def icache_geometry(self, size_bytes):
        return CacheGeometry(size_bytes, self.icache_block, self.icache_assoc)

    def dcache_geometry(self):
        return CacheGeometry(self.dcache_bytes, self.dcache_block, self.dcache_assoc)


class TimingReport:
    """Everything the experiments read out of one timing simulation."""

    def __init__(self, **kw):
        self.__dict__.update(kw)

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def seconds(self):
        return self.cycles / self.frequency_hz

    @property
    def icache_misses_per_million(self):
        if not self.icache_requests:
            return 0.0
        return 1e6 * self.icache_misses / self.icache_requests

    def __repr__(self):
        return (
            "<TimingReport %d instrs, %d cycles, IPC %.3f, I$ %d/%d miss, D$ %d/%d miss>"
            % (
                self.instructions,
                self.cycles,
                self.ipc,
                self.icache_misses,
                self.icache_requests,
                self.dcache_misses,
                self.dcache_accesses,
            )
        )


def metadata_for(image):
    """Pick the metadata adapter matching the image's ISA.

    Memoized on the image: the metadata is a pure function of the
    (immutable) instruction stream, and one image is timed many times —
    the harness's two cache sizes, every budget of a FITS flow, every
    store-hit sweep of a DSE worker.
    """
    meta = getattr(image, "_timing_meta", None)
    if meta is None:
        from repro.core.translator import FitsImage
        from repro.compiler.thumb_backend import ThumbImage

        if isinstance(image, FitsImage):
            meta = fits_meta(image)
        elif isinstance(image, ThumbImage):
            meta = thumb_meta(image)
        else:
            meta = arm_meta(image)
        try:
            image._timing_meta = meta
        except AttributeError:
            pass
    return meta


def _popcount_u32(values):
    """Vectorized popcount over a uint32 array, as int64.

    Signed on purpose: mixed with int64 counts, a uint64 popcount would
    promote to float64 and send ``np.dot`` through BLAS.
    """
    return np.bitwise_count(values.astype(np.uint32)).astype(np.int64)


class _FetchGeometry:
    """Word-granular view of an image's code stream for fetch accounting."""

    def __init__(self, image):
        if hasattr(image, "halfwords"):
            halves = np.asarray(image.halfwords, dtype=np.uint32)
            if len(halves) % 2:
                halves = np.append(halves, np.uint32(0))
            self.words = (halves[0::2] | (halves[1::2] << np.uint32(16))).astype(np.uint32)
            self.instr_bytes = 2
        else:
            self.words = np.asarray(image.words, dtype=np.uint32)
            self.instr_bytes = 4
        self.code_base = image.code_base
        # toggle prefix: toggles[j] = popcount(words[j] ^ words[j-1])
        if len(self.words) > 1:
            xors = self.words[1:] ^ self.words[:-1]
            toggles = _popcount_u32(xors)
        else:
            toggles = np.zeros(0, dtype=np.int64)
        self.toggle_prefix = np.concatenate([[0, 0], np.cumsum(toggles)])
        self.max_word_toggles = int(toggles.max()) if len(toggles) else 0

    def word_index(self, instr_index):
        return (instr_index * self.instr_bytes) // 4

    def byte_addr(self, instr_index):
        return self.code_base + instr_index * self.instr_bytes

    def internal_toggles(self, ws, we):
        """Toggles between consecutive words fetched within one run."""
        return self.toggle_prefix[we + 1] - self.toggle_prefix[ws + 1]


def _run_cycles(start, end, meta, issue_width):
    """Base issue cycles for one straight-line run (no cache effects)."""
    cycle = 0
    ready = {}
    i = start
    while i <= end:
        m = meta[i]
        # operand stalls
        for r in m.reads:
            t = ready.get(r, 0)
            if t > cycle:
                cycle = t
        issued = 1
        for w in m.writes:
            ready[w] = cycle + m.latency
        if (
            issue_width >= 2
            and i < end
            and not m.is_control
            and m.extra_cycles == 0
        ):
            n = meta[i + 1]
            dual = True
            if n.extra_cycles:
                dual = False
            elif m.is_mem and n.is_mem:
                dual = False  # one memory port
            elif m.is_mul and n.is_mul:
                dual = False  # one multiplier
            else:
                writes = set(m.writes)
                if writes.intersection(n.reads) or writes.intersection(n.writes):
                    dual = False
                else:
                    for r in n.reads:
                        if ready.get(r, 0) > cycle:
                            dual = False
                            break
            if dual:
                for w in n.writes:
                    ready[w] = cycle + n.latency
                issued = 2
        cycle += 1 + m.extra_cycles
        i += issued
    return cycle


def _dcache_stats(mem_addrs, geometry):
    """Exact LRU event counts of the D-cache over one access stream.

    LRU sets are independent, so a set that never holds more distinct
    lines than it has ways misses once per distinct line and never
    evicts: those sets are counted, and only the accesses of sets over
    that limit are walked through :class:`SetAssociativeCache`.
    Consecutive accesses to one line are hits that leave the LRU order
    as it is, so they are folded out of the walk.
    """
    lines = (mem_addrs >> np.uint32(geometry.block_shift)).astype(np.int64)
    accesses = len(lines)
    if accesses > 1:
        lines = lines[np.concatenate(([True], lines[1:] != lines[:-1]))]
    distinct = np.unique(lines)
    per_set = np.bincount(distinct & geometry.set_mask,
                          minlength=geometry.num_sets)
    over = per_set > geometry.associativity
    misses = len(distinct)
    evictions = 0
    if over.any():
        walked = lines[over[lines & geometry.set_mask]]
        dcache = SetAssociativeCache(geometry)
        access = dcache.access_line
        for line in walked.tolist():
            access(line)
        misses += dcache.misses - dcache.compulsory_misses
        evictions = dcache.evictions
    return {
        "accesses": accesses,
        "hits": accesses - misses,
        "misses": misses,
        "fills": misses,
        "compulsory_misses": len(distinct),
        "evictions": evictions,
    }


def _core_signature(config):
    """The :class:`TimingConfig` axes the geometry-invariant phase
    depends on.  I-cache size/assoc/block and the miss penalties are
    applied at report assembly, and frequency only scales seconds —
    everything listed here changes base issue cycles, control-flow
    penalties, or the D-cache simulation."""
    return (config.issue_width, config.mispredict_penalty,
            config.taken_redirect_penalty, config.indirect_penalty,
            config.dcache_bytes, config.dcache_block, config.dcache_assoc)


class TimingPrecomp:
    """Geometry-invariant phase of one timing simulation.

    Everything :func:`simulate_timing` derives that does not depend on
    the I-cache geometry: instruction metadata, the fetch-word view,
    per-unique-run base cycles and end-of-run penalties, fetch
    request/toggle totals, the not-taken penalty, and the
    (config-fixed) D-cache event counts.  Instances are memoized per
    ``(ExecutionResult, core-config signature)`` on the result object
    (see :func:`precompute_timing`), so evaluating another cache point
    for the same trace costs only the I-cache phase plus O(1) assembly.
    """

    def __init__(self, result, config, meta):
        # memoized on ``result``, so it keeps what it needs of the result
        # rather than the result: the back-reference would be a cycle, and
        # every trace the functional memo evicts, with its image, would
        # wait for the cyclic collector
        self.image = result.image
        self.instructions = result.dynamic_instructions
        self._blocks = (result.block_starts, result.block_ends)
        self._segments = (result.seg_ids, result.seg_counts)
        self.meta = meta
        fetch = getattr(result.image, "_fetch_geometry", None)
        if fetch is None:
            fetch = _FetchGeometry(result.image)
            try:
                result.image._fetch_geometry = fetch
            except AttributeError:
                pass
        self.fetch = fetch

        # the superblock table already is the distinct-run set, and
        # per-row totals come straight off the segment stream — no
        # expansion, no np.unique over the dynamic trace
        u_start = result.block_starts
        u_end = result.block_ends
        counts = result.block_totals()
        self.num_unique = len(u_start)
        self.num_runs = result.num_runs

        # --- per-unique-run quantities ---------------------------------
        # the scoreboard walk is a pure function of (instruction stream,
        # issue width, run bounds): share it across precomps of the same
        # image — but only when ``meta`` is the image's own memoized
        # metadata, an explicitly passed vector must not poison the memo
        cycles_memo = None
        if meta is getattr(result.image, "_timing_meta", None):
            cycles_memo = getattr(result.image, "_run_cycles_memo", None)
            if cycles_memo is None:
                try:
                    cycles_memo = result.image._run_cycles_memo = {}
                except AttributeError:
                    cycles_memo = None
        iw = config.issue_width
        base_cycles = np.empty(self.num_unique, dtype=np.int64)
        end_penalty = np.empty(self.num_unique, dtype=np.int64)
        for k in range(self.num_unique):
            s, e = int(u_start[k]), int(u_end[k])
            if cycles_memo is None:
                base_cycles[k] = _run_cycles(s, e, meta, iw)
            else:
                ck = (iw, s, e)
                c = cycles_memo.get(ck)
                if c is None:
                    c = cycles_memo[ck] = _run_cycles(s, e, meta, iw)
                base_cycles[k] = c
            m = meta[e]
            if m.is_cond_branch:
                end_penalty[k] = (
                    config.taken_redirect_penalty if m.is_backward
                    else config.mispredict_penalty
                )
            elif m.is_control:
                # unconditional branch / call: redirect bubble; returns
                # and pc-loads: indirect penalty
                end_penalty[k] = config.indirect_penalty
            else:
                end_penalty[k] = 0

        u_ws = (u_start * fetch.instr_bytes) // 4
        u_we = (u_end * fetch.instr_bytes) // 4
        u_requests = u_we - u_ws + 1
        u_toggles = fetch.toggle_prefix[u_we + 1] - fetch.toggle_prefix[u_ws + 1]

        self.total_base = int(np.dot(base_cycles, counts))
        self.total_taken_penalty = int(np.dot(end_penalty, counts))
        self.icache_requests = int(np.dot(u_requests, counts))
        fetch_toggles = int(np.dot(u_toggles, counts))

        # --- boundary toggles (between the last word of run k and the
        # first word of run k+1) ----------------------------------------
        # every boundary is either a self-repeat (within a segment: last
        # word of block b -> first word of block b, count-1 times) or a
        # segment join — both vectorize over segments
        max_boundary = 0
        sid = result.seg_ids
        cnt = result.seg_counts
        if len(sid):
            self_x = _popcount_u32(fetch.words[u_we] ^ fetch.words[u_ws])
            fetch_toggles += int(np.dot(self_x[sid], cnt - 1))
            rep = cnt > 1
            if rep.any():
                max_boundary = int(self_x[sid[rep]].max())
            if len(sid) > 1:
                inter = _popcount_u32(
                    fetch.words[u_we[sid[:-1]]] ^ fetch.words[u_ws[sid[1:]]]
                )
                fetch_toggles += int(inter.sum())
                max_boundary = max(max_boundary, int(inter.max()))
        self.fetch_toggles = fetch_toggles
        self.max_fetch_toggles = max(fetch.max_word_toggles, max_boundary)

        # --- not-taken penalties (backward not-taken mispredicts) ------
        exec_counts = result.exec_counts()
        taken_counts = result.taken_counts()
        bw_cond = None
        if meta is getattr(result.image, "_timing_meta", None):
            bw_cond = getattr(result.image, "_timing_bw_cond", None)
        if bw_cond is None:
            bw_cond = np.fromiter(
                (m.is_cond_branch and m.is_backward for m in meta),
                dtype=bool, count=len(meta))
            if meta is getattr(result.image, "_timing_meta", None):
                try:
                    result.image._timing_bw_cond = bw_cond
                except AttributeError:
                    pass
        not_taken = (np.asarray(exec_counts, dtype=np.int64)[bw_cond]
                     - np.asarray(taken_counts, dtype=np.int64)[bw_cond])
        self.total_nt_penalty = (
            int(not_taken[not_taken > 0].sum()) * config.mispredict_penalty)

        # --- D-cache (identical for every I-cache point) ---------------
        self.dcache_stats = _dcache_stats(result.mem_addrs,
                                          config.dcache_geometry())

        #: block_bytes -> flat I-cache line-access sequence (np.int64)
        self._lines = {}
        #: block_bytes -> per-superblock (start_line, end_line) spans
        self._spans = {}

    def lines_for(self, block_bytes):
        """The I-cache line-access sequence at one block size (memoized,
        vectorized span expansion — order matters and is preserved)."""
        lines = self._lines.get(block_bytes)
        if lines is None:
            sl, el = self.line_spans_for(block_bytes)
            sid, cnt = self._segments
            lines = self._lines[block_bytes] = expand_line_spans(
                np.repeat(sl[sid], cnt), np.repeat(el[sid], cnt))
        return lines

    def line_spans_for(self, block_bytes):
        """Per-superblock inclusive I-cache line spans at one block size
        (memoized) — the columnar stack kernel's table input."""
        spans = self._spans.get(block_bytes)
        if spans is None:
            fetch = self.fetch
            shift = block_bytes.bit_length() - 1
            starts, ends = self._blocks
            sl = ((starts * fetch.instr_bytes
                   + fetch.code_base) >> shift).astype(np.int64)
            el = ((ends * fetch.instr_bytes
                   + fetch.code_base) >> shift).astype(np.int64)
            spans = self._spans[block_bytes] = (sl, el)
        return spans


def precompute_timing(result, config=None, meta=None):
    """The memoized geometry-invariant phase for one (trace, config).

    Cached on the result object keyed by the config's core signature, so
    repeated :func:`simulate_timing` calls (different cache sizes, the
    harness's four configurations, a DSE chunk) share one scoreboard
    walk, fetch analysis, and D-cache count.  An explicitly passed
    ``meta`` bypasses the cache (the memo could not tell two metadata
    vectors apart).
    """
    config = config or TimingConfig()
    if meta is not None:
        return TimingPrecomp(result, config, meta)
    sig = _core_signature(config)
    cache = getattr(result, "_timing_precomps", None)
    if cache is None:
        cache = result._timing_precomps = {}
    pre = cache.get(sig)
    if pre is None:
        with obs.span("stage.simulate", phase="precompute",
                      image=getattr(result.image, "name", "?")):
            pre = cache[sig] = TimingPrecomp(result, config,
                                             metadata_for(result.image))
        obs.counter("timing.precomputations")
    else:
        obs.counter("timing.precomp_hits")
    return pre


def _assemble_report(pre, config, icache_bytes, icache_stats):
    """Fold I-cache stats into a precomputation: the geometry-dependent
    phase, shared by the reference path and the stack-distance path."""
    cycles = (
        pre.total_base
        + pre.total_taken_penalty
        + pre.total_nt_penalty
        + icache_stats["misses"] * config.icache_miss_penalty
        + pre.dcache_stats["misses"] * config.dcache_miss_penalty
    )

    if obs.enabled:
        publish_stats("cache.icache", icache_stats)
        publish_stats("cache.dcache", pre.dcache_stats)
        obs.counter("timing.simulations")
        obs.counter("timing.unique_runs", pre.num_unique)
        obs.counter("timing.cycles", int(cycles))
        obs.observe("timing.runs_per_simulation", pre.num_runs)

    return TimingReport(
        image=pre.image,
        config=config,
        icache_bytes=icache_bytes,
        instructions=pre.instructions,
        cycles=int(cycles),
        base_cycles=pre.total_base,
        frequency_hz=config.frequency_hz,
        icache_requests=pre.icache_requests,
        icache_line_accesses=icache_stats["accesses"],
        icache_misses=icache_stats["misses"],
        icache_compulsory=icache_stats["compulsory_misses"],
        dcache_accesses=pre.dcache_stats["accesses"],
        dcache_misses=pre.dcache_stats["misses"],
        fetch_toggles=pre.fetch_toggles,
        max_fetch_toggles=pre.max_fetch_toggles,
        taken_transfers=pre.num_runs,
        fetch_word_bits=32,
        max_words_per_cycle=max(1, (config.issue_width * pre.fetch.instr_bytes) // 4),
        instr_bytes=pre.fetch.instr_bytes,
        code_lines=(len(pre.fetch.words) * 4 + config.icache_block - 1) // config.icache_block,
    )


def simulate_timing(result, icache_bytes, config=None, meta=None):
    """Simulate timing + fetch activity for one execution trace.

    Args:
        result: :class:`~repro.sim.functional.trace.ExecutionResult`.
        icache_bytes: instruction-cache size for this configuration.
        config: :class:`TimingConfig`.
        meta: precomputed instruction metadata (else derived).

    Returns:
        :class:`TimingReport`.
    """
    with obs.span("stage.simulate", phase="timing",
                  image=getattr(result.image, "name", "?"),
                  icache_bytes=icache_bytes):
        return _simulate_timing(result, icache_bytes, config, meta)


def _simulate_timing(result, icache_bytes, config=None, meta=None):
    config = config or TimingConfig()
    pre = precompute_timing(result, config, meta)

    # --- I-cache line simulation over the reference LRU model ----------
    icache = SetAssociativeCache(config.icache_geometry(icache_bytes))
    access = icache.access_line
    for line in pre.lines_for(config.icache_block).tolist():
        access(line)

    return _assemble_report(pre, config, icache_bytes, icache.stats())


class TimingBatch:
    """Multi-geometry timing evaluation over one shared analysis pass.

    Declared up front with every ``(icache_bytes, config)`` pair the
    caller will ask for; the first :meth:`report` call triggers the
    shared work (the geometry-invariant precomputation plus one
    stack-distance pass per distinct block size) and every report then
    assembles in O(1).  Reports are bit-identical to
    ``simulate_timing(result, size, config)`` — the stack kernel's
    equivalence to the reference LRU model is property-tested in
    ``tests/test_stack.py``.
    """

    def __init__(self, result, specs, meta=None):
        self.result = result
        self._meta = meta
        self.specs = [(int(size), config or TimingConfig())
                      for size, config in specs]
        if not self.specs:
            raise ValueError("TimingBatch needs at least one (size, config) spec")
        sigs = {_core_signature(config) for _size, config in self.specs}
        if len(sigs) > 1:
            raise ValueError(
                "TimingBatch specs mix core configs (%d distinct issue/"
                "penalty/D-cache signatures) — batch per signature instead"
                % len(sigs)
            )
        self._sig = sigs.pop()
        self._profiles = {}  # block_bytes -> StackDistanceProfile
        self._pre = None

    def _precomp(self):
        if self._pre is None:
            self._pre = precompute_timing(self.result, self.specs[0][1],
                                          self._meta)
        return self._pre

    def _profile(self, block_bytes):
        profile = self._profiles.get(block_bytes)
        if profile is None:
            geometries = [config.icache_geometry(size)
                          for size, config in self.specs
                          if config.icache_block == block_bytes]
            pre = self._precomp()
            with obs.span("stage.simulate", phase="stack",
                          image=getattr(self.result.image, "name", "?"),
                          block=block_bytes, geometries=len(geometries)):
                sl, el = pre.line_spans_for(block_bytes)
                profile = profile_spans_rle(
                    sl, el, self.result.seg_ids, self.result.seg_counts,
                    geometries)
            self._profiles[block_bytes] = profile
        return profile

    def report(self, icache_bytes, config=None):
        """The :class:`TimingReport` for one declared cache point."""
        config = config or TimingConfig()
        if _core_signature(config) != self._sig:
            raise ValueError(
                "report() config does not match this batch's core signature"
            )
        with obs.span("stage.simulate", phase="timing",
                      image=getattr(self.result.image, "name", "?"),
                      icache_bytes=icache_bytes):
            profile = self._profile(config.icache_block)
            stats = profile.stats(config.icache_geometry(icache_bytes))
            return _assemble_report(self._precomp(), config, icache_bytes, stats)


def simulate_timing_multi(result, specs, meta=None):
    """Timing reports for many cache points of one trace in one pass.

    ``specs`` is a sequence of ``(icache_bytes, TimingConfig-or-None)``
    pairs sharing a core signature (see :func:`_core_signature`).
    Returns one :class:`TimingReport` per spec, in order, bit-identical
    to calling :func:`simulate_timing` per spec — at the cost of a
    single geometry-invariant precomputation plus one stack-distance
    pass per distinct block size, instead of a full LRU simulation per
    point.
    """
    batch = TimingBatch(result, specs, meta=meta)
    return [batch.report(size, config) for size, config in batch.specs]
