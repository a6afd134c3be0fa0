"""One-pass multi-geometry LRU analysis (Mattson stack distances).

:class:`~repro.sim.cache.model.SetAssociativeCache` answers "how many
misses?" for *one* geometry per pass over the line trace, so a design
sweep over G cache points costs G full simulations.  This module
computes the exact same event counts for **every** ``(size,
associativity)`` pair sharing a block size in a single pass, using the
classic stack-distance construction (Mattson et al. 1970, extended to
set-associative bit-selection caches by Hill & Smith 1989):

* Maintain the lines in LRU order (an unbounded "stack"; lines are
  never removed, only moved to the top).
* On a reuse of line ``x``, the lines above ``x`` on the stack are
  exactly the distinct lines touched since the previous access to
  ``x``.  For a cache with ``2^k`` sets (bit-selection indexing), the
  ones that *conflict* with ``x`` are those agreeing with ``x`` in the
  low ``k`` bits; with LRU replacement the access hits iff fewer than
  ``associativity`` of them intervened.
* First touches are compulsory misses in every geometry.

Per intervening line ``y`` the number of trailing bits in which ``y``
agrees with ``x`` says at which set counts it conflicts; a suffix sum
over those agreements is the conflict count for every ``k`` at once.
Evictions fall out analytically: occupancy of a set only ever grows,
so the fills that do *not* evict are exactly the first ``min(distinct
lines mapping to the set, assoc)`` fills, and ``evictions = misses -
Σ_s min(D_s, assoc)``.

Equivalence conditions (all guaranteed by
:class:`~repro.sim.cache.model.CacheGeometry` and asserted bit-identical
against the reference model by ``tests/test_stack.py`` and
``tests/test_trace_rle.py``): power-of-two set counts with
bit-selection indexing, true LRU replacement, no invalidations, and a
shared block size.

:func:`profile_spans_rle` reads the columnar trace directly.  A Python
walk finds which LRU-stack transitions the stream takes and how often
each fires; every reused line those transitions touch is then scored
in vectorized numpy slabs.
"""

import numpy as np

from repro.obs import core as obs


def expand_line_spans(start_lines, end_lines):
    """Flatten inclusive line spans into one line-access sequence.

    ``start_lines[i] .. end_lines[i]`` (inclusive) are the cache lines a
    straight-line run touches in ascending order.  Pure-numpy
    replacement for the nested ``for line in range(a, b + 1)`` loop.
    """
    ls = np.asarray(start_lines, dtype=np.int64)
    le = np.asarray(end_lines, dtype=np.int64)
    lengths = le - ls + 1
    total = int(lengths.sum())
    if total == len(ls):  # every run stays within one line
        return ls.copy()
    starts = np.repeat(ls, lengths)
    # position within each span: global index minus the span's offset
    span_offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return starts + (np.arange(total, dtype=np.int64) - span_offsets)


class StackDistanceProfile:
    """Exact LRU event counts for every profiled ``(size, assoc)`` pair.

    Produced by :func:`profile_spans_rle`; :meth:`stats` answers any
    geometry whose set count and associativity were covered by the
    profiling pass with the same dict
    :meth:`~repro.sim.cache.model.SetAssociativeCache.stats` returns.
    """

    def __init__(self, block_bytes, accesses, distinct_lines, counts_by_k, amax):
        self.block_bytes = block_bytes
        self.accesses = accesses
        self.distinct_lines = distinct_lines  # np.int64, one entry per line
        self._counts = counts_by_k            # k -> np.int64[amax + 1]
        self.amax = amax

    @property
    def compulsory_misses(self):
        return len(self.distinct_lines)

    def covers(self, geometry):
        k = geometry.num_sets.bit_length() - 1
        return (geometry.block_bytes == self.block_bytes
                and k in self._counts
                and geometry.associativity <= self.amax)

    def misses(self, geometry):
        """Exact LRU miss count for one covered geometry."""
        if not self.covers(geometry):
            raise ValueError(
                "geometry %r not covered by this profile (block %d, "
                "set counts %s, assoc <= %d)"
                % (geometry, self.block_bytes,
                   sorted(1 << k for k in self._counts), self.amax)
            )
        row = self._counts[geometry.num_sets.bit_length() - 1]
        conflicts = int(row[geometry.associativity:].sum())
        return self.compulsory_misses + conflicts

    def stats(self, geometry):
        """Event counts for one geometry, bit-identical to the dict a
        :class:`~repro.sim.cache.model.SetAssociativeCache` fed the same
        line sequence would return from ``stats()``."""
        misses = self.misses(geometry)
        # Non-evicting fills: set occupancy only grows, so the first
        # min(D_s, assoc) fills of each set land in free ways and every
        # later fill evicts.
        per_set = np.bincount(
            (self.distinct_lines & (geometry.num_sets - 1)).astype(np.int64),
            minlength=geometry.num_sets,
        )
        free_fills = int(np.minimum(per_set, geometry.associativity).sum())
        return {
            "accesses": self.accesses,
            "hits": self.accesses - misses,
            "misses": misses,
            "fills": misses,
            "compulsory_misses": self.compulsory_misses,
            "evictions": misses - free_fills,
        }

    def __repr__(self):
        return "<StackDistanceProfile %d accesses, %d lines, %dB blocks>" % (
            self.accesses, self.compulsory_misses, self.block_bytes)


#: Upper bound on the (reuse, intervening line) pairs one numpy scoring
#: slab holds, so the scoring pass's memory stays flat however many
#: transitions fire; a single transition wider than this scores alone.
_SLAB = 1 << 14


class _Scorer:
    """Scores reuse queries into per-geometry conflict histograms.

    A query is one reuse of line ``x = stack[d]`` by a block whose span
    starts at line ``s``, fired ``w`` times.  Its intervening lines are
    the lines above ``x`` on ``stack`` (``stack[:d]``, top first) plus
    the span's earlier lines ``s .. x - 1``, which the block has just
    moved above ``x``; a span line already above ``x`` counts once.
    Queries are buffered per stack and scored a slab at a time.
    """

    def __init__(self, ks, amax):
        self.nk = len(ks)
        self.kmax = ks[-1]
        self.amax = amax
        # tmap[t]: how many of the queried ks an intervening line with
        # trailing agreement t conflicts at (ks is ascending, so they
        # form a prefix)
        self.tmap = np.asarray(
            [sum(1 for k in ks if k <= t) for t in range(self.kmax + 1)],
            dtype=np.intp)
        self.rows = np.zeros((self.nk, amax + 1), dtype=np.int64)
        self._reset()

    def _reset(self):
        self._lines = []    # stack prefixes, concatenated
        self._base = []     # per stack: its prefix's offset in _lines
        self._nq = []       # per stack: its number of queries
        self._depths = []   # per query: depth of x on its stack
        self._starts = []   # per stack: span start s
        self._weights = []  # per stack: times fired
        self._pairs = 0

    def add(self, stack, depths, start, end, weight):
        """Queue ``stack[d]`` reused by the span ``start .. end`` for
        every ``d`` in ``depths``, ``weight`` times each."""
        self._base.append(len(self._lines))
        self._lines += stack[:max(depths) + 1]
        self._nq.append(len(depths))
        self._depths += depths
        self._starts.append(start)
        self._weights.append(weight)
        # above-x lines plus an upper bound on the span's earlier lines
        self._pairs += sum(depths) + len(depths) * (end - start)
        if self._pairs >= _SLAB:
            self.flush()

    def flush(self):
        if not self._nq:
            return
        lines = np.asarray(self._lines, dtype=np.int64)
        depths = np.asarray(self._depths, dtype=np.int64)
        owner = np.repeat(np.arange(len(self._nq)), self._nq)
        base = np.asarray(self._base, dtype=np.int64)[owner]
        x = lines[base + depths]
        start = np.asarray(self._starts, dtype=np.int64)[owner]
        weight = np.asarray(self._weights, dtype=np.int64)[owner]
        self._reset()
        nq = len(depths)
        qid = np.arange(nq)

        # the lines above x on its stack ...
        above_q = np.repeat(qid, depths)
        above = lines[np.arange(len(above_q))
                      + np.repeat(base - (np.cumsum(depths) - depths), depths)]
        # ... minus the span lines before x, counted next ...
        keep = (above < start[above_q]) | (above > x[above_q])
        # ... as the span's lines s .. x - 1
        span_len = x - start
        span_q = np.repeat(qid, span_len)
        span = (np.arange(len(span_q))
                + np.repeat(start - (np.cumsum(span_len) - span_len), span_len))
        q = np.concatenate((above_q[keep], span_q))
        xor = x[q] ^ np.concatenate((above[keep], span))
        # trailing agreement capped at kmax: the bit kmax stops the count
        xor |= 1 << self.kmax
        t = np.bitwise_count((xor & -xor) - 1)
        hist = np.bincount(q * (self.nk + 1) + self.tmap[t],
                           minlength=nq * (self.nk + 1)).reshape(nq, self.nk + 1)
        # suffix sum: conflicts at ks[i] are the lines agreeing with x in
        # >= ks[i] trailing bits (tmap > i), capped at amax, which
        # changes no verdict at any queried associativity
        conflicts = np.cumsum(hist[:, :0:-1], axis=1)[:, ::-1]
        np.minimum(conflicts, self.amax, out=conflicts)
        cells = conflicts + np.arange(self.nk) * (self.amax + 1)
        np.add.at(self.rows.reshape(-1), cells, weight[:, None])


def profile_spans_rle(line_starts, line_ends, seg_ids, seg_counts,
                      geometries):
    """One stack-distance pass over the columnar trace, never expanded.

    Args:
        line_starts / line_ends: per-superblock inclusive line spans —
            row ``b`` of the superblock table touches cache lines
            ``line_starts[b] .. line_ends[b]`` in ascending order on
            every iteration.
        seg_ids / seg_counts: the run-length execution stream.
        geometries: :class:`~repro.sim.cache.model.CacheGeometry`
            instances sharing one block size; their set counts and
            associativities bound what the returned profile answers.

    Returns a :class:`StackDistanceProfile` whose :meth:`stats` are
    bit-identical to a per-access LRU walk of the expanded line
    sequence (``expand_line_spans`` over the per-run spans) —
    property-tested against ``tests/oracles.profile_lines`` in
    ``tests/test_trace_rle.py``.

    Exactness rests on one structural invariant: executing a block
    leaves its span lines on top of the LRU stack in span order, so the
    stack contents after any prefix of the stream are a pure function
    of the distinct-block execution order.  The kernel runs a DFA whose
    states are the interned stack tuples (top first): the first
    iteration of a segment is a pure function of ``(stack, block)``,
    memoized as a transition that records the successor state and the
    depth of each span line the block reuses, and iterations 2..n of a
    segment reuse the block's own span, a fixed set of queries
    weighted by the iteration count.  Loop bodies re-enter from the
    same state, so aligned 8-segment windows of the stream are memoized
    whole by ``(entry state, chunk)``.  The walk only counts how often
    each transition fires; every (transition, reused line) query is
    then scored once, weighted, by :class:`_Scorer`.
    Consecutive-duplicate folding (the event path folds them before
    walking) happens exactly at two places: one-line blocks repeating
    (all of iterations 2..n), and a segment whose first line equals the
    previous segment's last line.
    """
    geometries = list(geometries)
    if not geometries:
        raise ValueError("profile_spans_rle needs at least one geometry")
    block = geometries[0].block_bytes
    for g in geometries:
        if g.block_bytes != block:
            raise ValueError(
                "geometries mix block sizes (%d vs %d): stack-distance "
                "profiles are exact only at a fixed block size"
                % (block, g.block_bytes)
            )
    ks = sorted({g.num_sets.bit_length() - 1 for g in geometries})
    amax = max(g.associativity for g in geometries)

    sl = np.asarray(line_starts, dtype=np.int64)
    el = np.asarray(line_ends, dtype=np.int64)
    sid = np.asarray(seg_ids, dtype=np.int64)
    cnt = np.asarray(seg_counts, dtype=np.int64)
    if len(sl) and int(sl.min()) < 0:
        raise ValueError("line numbers must be non-negative")
    widths = el - sl + 1
    accesses = int(np.dot(widths[sid], cnt)) if len(sid) else 0
    if len(sid):
        used = np.unique(sid)
        distinct = np.unique(expand_line_spans(sl[used], el[used]))
    else:
        distinct = np.zeros(0, dtype=np.int64)

    # DFA over LRU states: a state is the interned full stack content
    # (line tuple, top first) — the complete replacement state, so two
    # histories reaching the same stack share all future transitions.
    # Transitions are keyed by state_id * n_blocks + block.
    nblocks = len(sl)
    starts = sl.tolist()
    ends = el.tolist()
    tops = [None] * nblocks  # block -> its span, top first
    state_ids = {(): 0}
    state_stacks = [()]
    trans = {}    # key -> next state
    reuses = {}   # key -> (folded first line, depths of the reused lines)

    def transition(key):
        """Successor state of one transition, recording its reuses:
        span lines found on the parent stack are reuses, the rest first
        touches (compulsory misses, counted globally from the union of
        executed block footprints)."""
        p, b = divmod(key, nblocks)
        parent = state_stacks[p]
        s = starts[b]
        top = tops[b]
        if top is None:
            top = tops[b] = tuple(range(ends[b], s - 1, -1))
        # consecutive duplicate across the segment join: the event
        # path folds it before walking
        folded1 = 1 if parent and parent[0] == s else 0
        find = parent.index
        depths = []
        for x in range(s + folded1, ends[b] + 1):
            try:
                depths.append(find(x))
            except ValueError:
                pass
        reuses[key] = folded1, tuple(depths)
        # successor: the span moves to the top in span order
        out = list(top)
        prev = 0
        for c in sorted(depths + [0] if folded1 else depths):
            out += parent[prev:c]
            prev = c + 1
        out += parent[prev:]
        child = tuple(out)
        nstate = state_ids.get(child)
        if nstate is None:
            nstate = state_ids[child] = len(state_stacks)
            state_stacks.append(child)
        trans[key] = nstate
        return nstate

    # Chunked walk: the DFA chain revisits the same short block
    # sequences constantly (loop bodies re-entered from the same
    # state), so aligned CH-segment windows are memoized whole by
    # ``(entry state, raw chunk bytes)``.  A chunk hit replaces CH
    # dict-per-segment steps with one lookup and one count; a walked
    # chunk appends its transitions to ``path``, and every transition's
    # fire count is tallied from ``path`` and the chunk hits at the end.
    _CH = 8
    seg_b = sid.tolist()
    n_seg = len(seg_b)
    cell = np.int16 if nblocks <= 0x7FFF else np.int64
    raw = sid.astype(cell).tobytes()
    isz = np.dtype(cell).itemsize
    chunks = {}   # (state, chunk bytes) -> [end state, path offset, hits]
    path = []     # transition key of every walked segment
    state = 0
    with obs.span("cache.stack.rle_pass", segments=len(sid),
                  geometries=len(geometries)):
        for i in range(0, n_seg, _CH):
            ck = (state, raw[i * isz:(i + _CH) * isz])
            hit = chunks.get(ck)
            if hit is not None:
                state = hit[0]
                hit[2] += 1
                continue
            offset = len(path)
            for b in seg_b[i:i + _CH]:
                key = state * nblocks + b
                state = trans.get(key)
                if state is None:
                    state = transition(key)
                path.append(key)
            chunks[ck] = [state, offset, 0]

    # fire counts: once per walked segment, plus each chunk's hits for
    # its CH transitions (only the last chunk is shorter, and it is
    # never hit: no earlier key has its length)
    path = np.asarray(path, dtype=np.int64)
    times = np.ones(len(path), dtype=np.int64)
    hits = [(c[1], c[2]) for c in chunks.values() if c[2]]
    if hits:
        offset, extra = np.asarray(hits, dtype=np.int64).T
        np.add.at(times, (offset[:, None] + np.arange(_CH)).ravel(),
                  np.repeat(extra, _CH))
    keys, which = np.unique(path, return_inverse=True)
    fired = np.zeros(len(keys), dtype=np.int64)
    np.add.at(fired, which, times)

    scorer = _Scorer(ks, amax)
    folded = 0
    # first iterations: each fired transition's reuses, weighted
    for key, n in zip(keys.tolist(), fired.tolist()):
        folded1, depths = reuses[key]
        folded += folded1 * n
        if depths:
            p, b = divmod(key, nblocks)
            scorer.add(state_stacks[p], depths, starts[b], ends[b], n)
    # iterations 2..n of every segment: the stack top is exactly the
    # block's own span, so each line's intervening lines are the rest
    # of the span — one query per line, weighted by the totals
    steady = np.zeros(nblocks, dtype=np.int64)
    if n_seg:
        np.add.at(steady, sid, cnt - 1)
    for b in np.flatnonzero(steady).tolist():
        total = int(steady[b])
        if ends[b] == starts[b]:
            # one-line block: every extra iteration is a consecutive
            # duplicate, folded by the event path
            folded += total
            continue
        top = tops[b]
        scorer.add(top, tuple(range(len(top))), starts[b], ends[b], total)
    scorer.flush()
    rows = scorer.rows

    # folded duplicates are conflict-count-0 accesses in every geometry
    if folded:
        rows[:, 0] += folded

    counts_by_k = {k: rows[j].copy() for j, k in enumerate(ks)}
    if obs.enabled:
        obs.counter("cache.stack.rle_passes")
        obs.counter("cache.stack.rle_segments", len(sid))
        obs.counter("cache.stack.rle_states", len(state_stacks))
        obs.counter("cache.stack.rle_transitions", len(trans))
        obs.counter("cache.stack.accesses", accesses)
        obs.counter("cache.stack.folded_repeats", folded)
        obs.counter("cache.stack.distinct_lines", len(distinct))
        obs.counter("cache.stack.geometries", len(geometries))
    return StackDistanceProfile(block, accesses, distinct, counts_by_k, amax)
