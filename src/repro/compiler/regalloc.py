"""Linear-scan register allocation at the IR level.

The allocator assigns each virtual register either a physical register or
a stack slot *before* instruction selection; the back ends then emit
final machine code directly, using two reserved scratch registers for
spill traffic and immediate materialization.

Intervals are the classic Poletto–Sarkar kind (no lifetime holes): a
vreg's interval covers from its first definition to the last position at
which it is live, with loop-carried values extended over whole blocks by
the liveness sets.  Intervals that span a call site must live in a
callee-saved register (or a slot), because calls clobber the
caller-saved set.

Allocations are memoized per IR function (:func:`allocate_registers`),
and so are the intervals every scan of a function starts from: the ARM
unit, the FITS flow's baseline and budgets and the Thumb back end all
allocate the same functions, and every kernel links the same runtime
library.
"""

import bisect
import weakref

from repro.compiler.liveness import analyze
from repro.ir.instructions import Bin, Mov, VReg
from repro.obs import core as obs

#: ARM register roles used by both back ends.
CALLER_SAVED = (0, 1, 2, 3)
CALLEE_SAVED = (4, 5, 6, 7, 8, 9, 10, 11)
SCRATCH0 = 12  # ip — assembler scratch, never allocated
SP = 13
SCRATCH1 = 14  # lr — usable as scratch after the prologue saves it


class Interval:
    __slots__ = ("vid", "start", "end", "crosses_call", "reg", "slot", "weight")

    def __init__(self, vid, start, end):
        self.vid = vid
        self.start = start
        self.end = end
        self.crosses_call = False
        self.reg = None
        self.slot = None
        #: estimated dynamic access count (uses weighted by loop depth);
        #: the allocator spills the cheapest interval, not the longest
        self.weight = 0.0

    def __repr__(self):
        loc = "r%d" % self.reg if self.reg is not None else "slot%s" % self.slot
        return "<%%%d [%d,%d]%s %s>" % (
            self.vid,
            self.start,
            self.end,
            "*" if self.crosses_call else "",
            loc,
        )


class Allocation:
    """Mapping from virtual registers to physical registers or slots.

    It keeps its function's name, not the function: the memo that holds
    it is weakly keyed by that function.
    """

    def __init__(self, func, intervals, num_slots):
        self.name = func.name
        self.intervals = {iv.vid: iv for iv in intervals}
        self.num_slots = num_slots
        self.used_callee_saved = sorted(
            {iv.reg for iv in intervals if iv.reg is not None and iv.reg not in CALLER_SAVED}
        )

    def location(self, vreg):
        """``('r', n)`` or ``('s', slot)`` for a vreg (accepts VReg or id)."""
        vid = getattr(vreg, "id", vreg)
        iv = self.intervals[vid]
        if iv.reg is not None:
            return ("r", iv.reg)
        return ("s", iv.slot)

    @property
    def spill_count(self):
        return self.num_slots


def build_intervals(func):
    """Liveness-derived live intervals plus sorted call positions.

    Positions are *doubled*: instruction ``p`` reads its operands at
    ``2p`` and writes its result at ``2p+1``.  This separates the death
    of an operand from the birth of a result in the same instruction —
    they may share a register (read-then-write) — while two values that
    are simultaneously live at an instruction never can.  Function
    arguments are defined at position -1 (before the first read).
    """
    info = analyze(func)
    points = {}
    weights = {}

    # loop depth per instruction: the builder lays loops out contiguously,
    # so an edge targeting an earlier block opens a loop region in layout
    # order — count how many such regions cover each block
    block_index = {blk.label: i for i, blk in enumerate(func.blocks)}
    depth_bump = [0] * (len(func.blocks) + 1)
    for i, blk in enumerate(func.blocks):
        for succ in blk.successors():
            j = block_index[succ]
            if j <= i:
                depth_bump[j] += 1
                depth_bump[i + 1] -= 1
    depth_of_block = []
    acc = 0
    for i in range(len(func.blocks)):
        acc += depth_bump[i]
        depth_of_block.append(acc)
    instr_depth = []
    for i, blk in enumerate(func.blocks):
        instr_depth.extend([min(depth_of_block[i], 5)] * len(blk.instrs))

    def bump_weight(vid, index):
        weights[vid] = weights.get(vid, 0.0) + 10.0 ** instr_depth[index]

    def extend(vid, pos):
        iv = points.get(vid)
        if iv is None:
            points[vid] = [pos, pos]
        else:
            if pos < iv[0]:
                iv[0] = pos
            if pos > iv[1]:
                iv[1] = pos

    for vid in range(func.num_args):
        extend(vid, -1)

    for blk in func.blocks:
        first, last = info.block_range[blk.label]
        for vid in info.live_in[blk.label]:
            extend(vid, 2 * first)
        for vid in info.live_out[blk.label]:
            extend(vid, 2 * last + 1)
        index = first
        for ins in blk.instrs:
            for v in ins.uses():
                extend(v.id, 2 * index)
                bump_weight(v.id, index)
            for v in ins.defs():
                extend(v.id, 2 * index + 1)
                bump_weight(v.id, index)
            index += 1

    # a call at instruction c clobbers caller-saved registers "between"
    # the argument reads (2c) and the result write (2c+1)
    calls = [2 * c for c in info.call_positions]
    intervals = []
    for vid, (start, end) in points.items():
        iv = Interval(vid, start, end)
        iv.weight = weights.get(vid, 0.0)
        i = bisect.bisect_left(calls, start)
        iv.crosses_call = i < len(calls) and calls[i] < end
        intervals.append(iv)
    intervals.sort(key=lambda iv: (iv.start, iv.end))

    # Coalescing hints: when an op's destination is born exactly where its
    # left operand dies, reusing the operand's register makes the result a
    # two-operand (rd == rn) instruction — free for ARM, and exactly the
    # shape the FITS two-operand formats want (paper Section 3.3).
    by_vid = {iv.vid: iv for iv in intervals}
    hints = {}
    pos = 0
    for blk in func.blocks:
        for ins in blk.instrs:
            if isinstance(ins, (Bin, Mov)):
                src = ins.lhs if isinstance(ins, Bin) else ins.src
                if isinstance(src, VReg) and ins.dst.id != src.id:
                    d = by_vid.get(ins.dst.id)
                    s = by_vid.get(src.id)
                    if (
                        d is not None
                        and s is not None
                        and d.start == 2 * pos + 1
                        and s.end == 2 * pos
                    ):
                        hints[ins.dst.id] = src.id
            pos += 1
    return intervals, calls, hints, by_vid


#: IR function → {(caller pool, callee pool): Allocation}.  Weakly
#: keyed, so a function's allocations die with it.
_MEMO = weakref.WeakKeyDictionary()

#: IR function → ``(rows, hints)``: its intervals as ``(vid, start, end,
#: crosses_call, weight)`` rows, in scan order, and its coalescing
#: hints.  They depend only on the function, so every fresh scan of it
#: starts from them.  Weakly keyed like :data:`_MEMO`.
_INTERVALS = weakref.WeakKeyDictionary()


@obs.timed("regalloc.allocate")
def allocate_registers(func, caller_saved=CALLER_SAVED, callee_saved=CALLEE_SAVED):
    """Run linear scan for ``func``; returns an :class:`Allocation`.

    ``caller_saved``/``callee_saved`` parameterize the physical register
    pools: the ARM back end uses r0-r3 / r4-r11, the Thumb back end the
    low-register subset r0-r3 / r4-r5 (r6/r7 are its scratches), which is
    where Thumb's higher register pressure comes from.

    The result is memoized per function and pools, and shared: treat it
    as read-only.  A spill-free allocation also serves other pools
    (:func:`_reusable`).  A memo hit publishes the same ``regalloc.*``
    counters and samples as a fresh scan, plus ``regalloc.memo_hits``.
    """
    pools = (tuple(caller_saved), tuple(callee_saved))
    memo = _MEMO.get(func)
    if memo is None:
        memo = _MEMO[func] = {}
    alloc = memo.get(pools) or _reusable(memo, pools)
    if alloc is None:
        alloc = _linear_scan(func, *pools)
    elif obs.enabled:
        obs.counter("regalloc.memo_hits")
    memo[pools] = alloc
    if obs.enabled:
        obs.counter("regalloc.functions")
        obs.counter("regalloc.intervals", len(alloc.intervals))
        obs.counter("regalloc.spills", alloc.num_slots)
        obs.observe("regalloc.spills_per_function", alloc.num_slots)
    return alloc


def _reusable(memo, pools):
    """A memoized allocation that a fresh scan under ``pools`` would
    reproduce exactly, or None.

    Linear scan takes the first free register in pool order (caller
    pool first) and spills only when every allowed register is busy.  A
    scan that spilled nothing therefore never looked past the last
    callee-saved register it used, and never reached its spill choice:
    a scan under pools that agree with its own up to that register makes
    every choice the same.  Every pool in the tree is a prefix of r4-r11
    with the same caller pool, so a spill-free allocation serves every
    pool that holds the callee-saved registers it used.
    """
    caller, callee = pools
    for (have_caller, have_callee), alloc in memo.items():
        if alloc.num_slots or have_caller != caller:
            continue
        used = {iv.reg for iv in alloc.intervals.values()} - set(caller)
        depth = max((have_callee.index(r) + 1 for r in used), default=0)
        if callee[:depth] == have_callee[:depth]:
            return alloc
    return None


def _interval_rows(func):
    """Build and memoize ``func``'s interval rows and hints."""
    with obs.span("regalloc.build_intervals", func=func.name):
        intervals, _calls, hints, _by_vid = build_intervals(func)
    rows = [(iv.vid, iv.start, iv.end, iv.crosses_call, iv.weight)
            for iv in intervals]
    _INTERVALS[func] = (rows, hints)
    return rows, hints


def _linear_scan(func, caller_saved, callee_saved):
    """One fresh linear scan of ``func`` over the given pools (tuples)."""
    rows, hints = _INTERVALS.get(func) or _interval_rows(func)
    intervals = []
    for vid, start, end, crosses_call, weight in rows:
        iv = Interval(vid, start, end)
        iv.crosses_call = crosses_call
        iv.weight = weight
        intervals.append(iv)
    by_vid = {iv.vid: iv for iv in intervals}
    active = []  # sorted by end
    free = {r: True for r in caller_saved + callee_saved}
    next_slot = [0]

    def take(pools):
        for pool in pools:
            for r in pool:
                if free[r]:
                    free[r] = False
                    return r
        return None

    def spill_slot():
        slot = next_slot[0]
        next_slot[0] += 1
        return slot

    for iv in intervals:
        # expire: with doubled positions, an operand dying at a read slot
        # (2p) ends strictly before a result born at the write slot (2p+1),
        # so strict comparison preserves read-then-write register sharing
        keep = []
        for a in active:
            if a.end < iv.start:
                free[a.reg] = True
            else:
                keep.append(a)
        active[:] = keep

        pools = (callee_saved,) if iv.crosses_call else (caller_saved, callee_saved)
        allowed_set = set(pools[0]) | (set(pools[1]) if len(pools) > 1 else set())
        reg = None
        hint_vid = hints.get(iv.vid)
        if hint_vid is not None:
            hinted = by_vid[hint_vid].reg
            if hinted is not None and hinted in allowed_set and free.get(hinted):
                free[hinted] = False
                reg = hinted
        if reg is None:
            reg = take(pools)
        if reg is not None:
            iv.reg = reg
            active.append(iv)
            active.sort(key=lambda x: x.end)
            continue

        allowed = set(pools[0]) | (set(pools[1]) if len(pools) > 1 else set())
        candidates = [a for a in active if a.reg in allowed]
        # spill the cheapest interval (fewest loop-weighted accesses),
        # breaking ties toward the one that lives longest
        victim = min(candidates, key=lambda x: (x.weight, -x.end), default=None)
        if victim is not None and (victim.weight, -victim.end) < (iv.weight, -iv.end):
            iv.reg = victim.reg
            victim.reg = None
            victim.slot = spill_slot()
            active.remove(victim)
            active.append(iv)
            active.sort(key=lambda x: x.end)
        else:
            iv.slot = spill_slot()

    return Allocation(func, intervals, next_slot[0])
