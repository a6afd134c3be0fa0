"""Block-compiled execution engine shared by the functional simulators.

The three functional simulators (:mod:`~repro.sim.functional.arm_sim`,
:mod:`~repro.sim.functional.thumb_sim`,
:mod:`~repro.sim.functional.fits_sim`) are decoders: each turns its
image into one :mod:`~repro.sim.functional.semantics` operation per
static index and hands them to :func:`execute` in a :class:`Program`.
Every operation carries its semantics twice, side by side in that
module: a closure for the interpreter and a source template for
codegen.  The engine builds every closure up front, then discovers
*superblocks* lazily from the executed control flow: the first time
control reaches index ``i`` the run starting there is interpreted
through the closures (one call per instruction, a run boundary recorded
on every taken control transfer); once an entry is hot the stretch from
``i`` is ``exec()``-compiled into a single generated Python function.
The scan runs **through** conditional branches — a conditional branch
becomes an inline guarded early return (the taken path records its run
boundary and exits; the fall-through path simply keeps executing inside
the same function) — and only stops at an unconditional transfer, an
operation with no template, or the block-size cap.  Subsequent visits
dispatch through a ``{entry index: block fn}`` table.  Inside a block
there are no per-instruction calls or comparisons: each operation's
template is inlined, and memory-access trace records are *batched* —
buffered in local temporaries and appended to the trace once per block
exit instead of once per access.  Run boundaries (and the
executed-instruction budget tally) are maintained by the generated code
itself through a shared state list, recording exactly the boundaries
the interpreter would.

An operation without a template (only ``Invalid``, the index control
must never reach) ends the block at its closure: pending trace records
are flushed first so the access order is preserved, and the closure
raises :class:`SimulationError`, as it does when interpreted.

Compiled and interpreted execution produce bit-identical
:class:`~repro.sim.functional.trace.ExecutionResult` objects: same run
boundaries, same memory-access records in the same order, same console
bytes, final memory, exit code, and dynamic instruction count.  The test
oracle is this engine with :data:`COMPILE_THRESHOLD` raised to
``sys.maxsize`` — every run interpreted — compared across ISAs,
workloads, scales and budgets in ``tests/test_engine.py`` and, on
generated programs, in ``tests/test_differential_fuzz.py``.

Instruction-budget enforcement: the budget is checked at every *run
boundary* (taken control transfer or program exit), never mid-run.  The
overshoot is therefore bounded by the length of the current straight-
line run — identical whether the run was compiled or interpreted, so a
too-small ``max_instructions`` raises :class:`SimulationError` at
exactly the same executed-instruction count either way.

Observability (when enabled): every run publishes
``sim.engine.blocks_compiled`` / ``sim.engine.units_compiled`` /
``sim.engine.fallback_instrs`` counters, a ``sim.engine.avg_block_len``
gauge, and counts ``sim.engine.runs.block``.

Profiling (``REPRO_PROFILE``, see :mod:`repro.obs.profile`): when
active, the dispatch loop additionally attributes executed units and
wall time to each superblock entry, times every ``exec()`` compilation,
and records throttle/fallback decisions — one profile record per run.
The hooks live on the per-dispatch path (a block executes many units
per call), never per instruction, and leave the executed semantics
untouched: profiler-on runs are bit-identical.
"""

import re
import struct
import time

from repro.obs import core as obs
from repro.sim.functional.semantics import (
    EXEC_GLOBALS,
    SimulationError,
    jump_resolver,
    where,
)
from repro.sim.functional.trace import PACK, TraceBuilder, publish_result

#: repro.obs.profile, bound on first use.  Importing it eagerly would pull
#: it into sys.modules whenever ``repro`` loads, making every
#: ``python -m repro.obs.profile`` run trip runpy's re-execution warning.
obs_profile = None


def _profile_mod():
    global obs_profile
    if obs_profile is None:
        from repro.obs import profile
        obs_profile = profile
    return obs_profile


#: Blocks longer than this are split; a split point behaves exactly like
#: a sequential fall-through, so the cap only bounds codegen size.
MAX_BLOCK_LEN = 192

#: A block entry is compiled on its Nth visit; colder entries are
#: interpreted through the per-instruction closures.  This keeps
#: codegen cost off code that never repeats (large images with long
#: one-shot init/table-build phases) while hot loops still compile on
#: their second visit.
COMPILE_THRESHOLD = 2

#: Global codegen budget: a new block is compiled only once the
#: executed-instruction count exceeds ``units_compiled * COMPILE_AMORT``
#: — i.e. codegen is throttled to a fixed fraction of execution
#: progress.  Loop-dominated programs hit the gate almost never (their
#: executed count races ahead), while sprawling low-reuse code (a large
#: image where every block runs a handful of times) stays mostly
#: interpreted instead of paying ~2µs/instruction of compile time it
#: can never amortize.  Deterministic: depends only on instruction
#: counts, never on wall-clock.
COMPILE_AMORT = 200

#: The first this-many compiled units are exempt from the amortization
#: gate, so small loop-dominated programs compile their entire working
#: set up front; only large images feel the throttle.
COMPILE_FREE_UNITS = 512

#: Minimum scanned units before a superblock may end by chaining into
#: another compiled block's entry (dedups overlapping compilations of
#: the same stretch without splitting short hot loops).
CHAIN_MIN_UNITS = 48


class Program:
    """One decoded image plus the machine state of one run.

    ``ops`` holds one :mod:`~repro.sim.functional.semantics` operation
    per static index.  ``seq_next`` is None when the sequential
    successor of index ``i`` is always ``i + 1`` (ARM, Thumb); FITS
    passes its per-halfword atom successor table.  The rest is the state
    the operations' closures and the generated block code share:
    registers (sp at the image's stack top), memory, the NZCV flags,
    the trace, the exit code and the computed-jump helper ``index_of``.
    """

    __slots__ = ("image", "isa", "ops", "seq_next", "regs", "mem", "flags",
                 "trace", "exit_code", "index_of")

    def __init__(self, image, isa, ops, seq_next=None):
        self.image = image
        self.isa = isa
        self.ops = ops
        self.seq_next = seq_next
        self.regs = [0] * 16
        self.regs[13] = image.stack_top
        self.mem = image.initial_memory()
        self.flags = [False, False, False, False]  # N, Z, C, V
        self.trace = TraceBuilder()
        self.exit_code = [None]
        self.index_of = jump_resolver(image, isa)


class Simulator:
    """Decode an image, execute it, publish the run.

    Subclasses name their ``isa`` and decode in :meth:`program`.  Each
    binds ``run`` as an attribute of its own class, so perfbench's
    per-ISA layer timers can wrap one ISA's runs.
    """

    isa = None

    def __init__(self, image, max_instructions=200_000_000):
        self.image = image
        self.max_instructions = max_instructions

    def run(self):
        """Simulate from the entry until the exit SWI; returns
        :class:`~repro.sim.functional.trace.ExecutionResult`."""
        if not obs.enabled:
            return execute(self.program(), self.max_instructions)
        with obs.span("stage.simulate", isa=self.isa, image=self.image.name):
            result = execute(self.program(), self.max_instructions)
        publish_result("sim." + self.isa, result)
        return result

    def program(self):
        """A fresh :class:`Program` for one run."""
        raise NotImplementedError


def execute(program, max_instructions):
    """Run ``program`` to completion; returns :class:`ExecutionResult`."""
    if len(program.ops) >= PACK:
        raise SimulationError(
            "image too large for packed trace boundaries (%d >= %d static "
            "indices)" % (len(program.ops), PACK))
    runner = _BlockRunner(program, prof=_profile_mod().recorder())
    runner.run(max_instructions)
    if obs.enabled:
        obs.counter("sim.engine.runs.block")
    result = program.trace.build_result(
        program.image, program.exit_code[0], program.mem)
    if runner.prof is not None:
        runner.prof.finish(
            isa=program.isa,
            image_name=getattr(program.image, "name", "?"),
            func_of_index=getattr(program.image, "func_of_index", None),
            totals={
                "blocks_compiled": runner.blocks_compiled,
                "units_compiled": runner.units_compiled,
                "fallback_instrs": runner.fallback_instrs,
            },
            fetch_words_of_entry=_fetch_words_by_entry(result),
        )
    return result


def _fetch_words_by_entry(result):
    """Exact per-entry I-cache fetch-word totals off the superblock
    table: rows aggregated by entry index, words-per-iteration weighted
    by iteration counts — the profiler prices fetch energy from this
    footprint directly instead of re-deriving it from unit counts."""
    instr_bytes = 2 if hasattr(result.image, "halfwords") else 4
    totals = result.block_totals().tolist()
    out = {}
    for s, e, n in zip(result.block_starts.tolist(),
                       result.block_ends.tolist(), totals):
        words = (e * instr_bytes) // 4 - (s * instr_bytes) // 4 + 1
        out[s] = out.get(s, 0) + words * n
    return out


def _budget_error(program, limit):
    return SimulationError(
        "instruction budget exceeded (%d) in %s" % (limit, program.image.name)
    )


def _fault_error(program, idx, exc):
    return SimulationError("memory fault near %s: %s"
                           % (where(program.image, program.isa, idx), exc))


# ----------------------------------------------------------------------
# block engine — lazy superblock discovery + exec() codegen


#: Fixed parameter list of every generated block factory.  The factory
#: is called once per compiled block and returns the zero-argument
#: block function, which closes over these fast local cells.  ``_st``
#: is the shared run-accounting state ``[run_start, executed]``; the
#: generated exits append one packed ``start*PACK + end`` run-boundary
#: record via ``_ra`` and bump the executed tally, so the dispatch loop
#: only checks the budget.  ``_xm`` extends the packed memory-access
#: stream.  ``_fr`` is the trace builder's ``flush_repeat``: a block
#: whose hot backedge is batched counts iterations in a local (``_bn``)
#: and flushes them as one run-length record on exit.
_FACTORY_PARAMS = ("H", "regs", "mem", "flags", "_xm", "_ra", "_fr", "_st",
                   "index_of", "unpack_from", "pack_into", "console",
                   "exit_code")


def _flush_lines(pending):
    """Statements appending the batched trace records — one extend of
    packed ``addr*2 | is_store`` words.  ``pending`` is every access
    temp assigned since block entry — each dynamic execution reaches
    exactly one exit, so the full prefix is appended exactly once."""
    if not pending:
        return []
    return ["_xm((%s,))" % ", ".join(
        "%s*2+1" % temp if store else "%s*2" % temp
        for temp, store in pending)]


def _boundary_stmts(count_end, target_expr):
    """Record one run boundary ending at ``count_end`` (mirrors the
    interpreter's bookkeeping statement for statement)."""
    return [
        "_ra(_st[0]*%d + %d)" % (PACK, count_end),
        "_st[1] += %d - _st[0]" % (count_end + 1),
        "_st[0] = %s" % target_expr,
    ]


#: Marker expanded by :func:`_apply_reg_cache` into the write-back of
#: cached register/flag locals; placed on every path that leaves the
#: generated function (so other blocks and fallback closures always see
#: canonical ``regs``/``flags`` state).
_SYNC = "__SYNC__"

#: Marker expanded by :meth:`_BlockRunner._assemble` into the flush of
#: the batched-backedge iteration counter (``_bn``); placed before
#: every run-boundary emission and every function exit so the batched
#: records land in exact stream order.  Stripped when the block has no
#: batched backedge.
_FLUSH = "__FLUSHRB__"


def _expand_flush(body, batch_site):
    """Expand (or strip) the :data:`_FLUSH` markers in a block body."""
    if batch_site is None:
        repl = ""
        out = []
        for line in body:
            if line.strip() == _FLUSH:
                continue
            out.append(line.replace(_FLUSH + "; ", repl))
        return out
    start, count_end = batch_site
    inline = "_bn and _fr(%d, %d, _bn); _bn = 0" % (start, count_end)
    out = []
    for line in body:
        if line.strip() == _FLUSH:
            indent = line[:len(line) - len(line.lstrip())]
            out.append(indent + "_bn and _fr(%d, %d, _bn)" % (start, count_end))
            out.append(indent + "_bn = 0")
        else:
            out.append(line.replace(_FLUSH, inline))
    return out

_REG_RE = re.compile(r"regs\[(\d+)\]")
_FLAG_RE = re.compile(r"flags\[(\d+)\]")
#: A write is ``regs[i] = `` at the start of a statement — the start of
#: a (possibly indented) line, or after ``: ``/``; `` in a one-liner.
_REG_WRITE_RE = re.compile(r"(?:^\s*|[:;] )regs\[(\d+)\] = ")
_FLAG_WRITE_RE = re.compile(r"(?:^\s*|[:;] )flags\[(\d+)\] = ")


def _strip_sync(body):
    """Drop the sync markers (register caching disabled)."""
    out = []
    for line in body:
        if line.strip() == _SYNC:
            continue
        out.append(line.replace(_SYNC + "; ", ""))
    return out


def _apply_reg_cache(body):
    """Rewrite ``regs[i]``/``flags[i]`` references into block-local
    variables, loaded once at entry and written back at every exit.

    Inside a hot loop (backedge ``continue``) the cached locals persist
    across iterations, eliminating nearly all shared-list traffic.
    Every exit path carries a :data:`_SYNC` marker that expands to the
    write-back of the *written* subset, so the shared lists are
    canonical whenever control leaves the block.  Returns
    ``(prologue_lines, rewritten_body)``.
    """
    used_r, used_f, written_r, written_f = set(), set(), set(), set()
    for line in body:
        for m in _REG_RE.finditer(line):
            used_r.add(int(m.group(1)))
        for m in _FLAG_RE.finditer(line):
            used_f.add(int(m.group(1)))
        for m in _REG_WRITE_RE.finditer(line):
            written_r.add(int(m.group(1)))
        for m in _FLAG_WRITE_RE.finditer(line):
            written_f.add(int(m.group(1)))
    sync = ["regs[%d] = _g%d" % (r, r) for r in sorted(written_r)]
    sync += ["flags[%d] = _f%d" % (f, f) for f in sorted(written_f)]
    sync_inline = "; ".join(sync)
    out = []
    for line in body:
        line = _REG_RE.sub(lambda m: "_g" + m.group(1), line)
        line = _FLAG_RE.sub(lambda m: "_f" + m.group(1), line)
        if _SYNC not in line:
            out.append(line)
        elif line.strip() == _SYNC:
            indent = line[:len(line) - len(line.lstrip())]
            out.extend(indent + s for s in sync)
        elif sync_inline:
            out.append(line.replace(_SYNC, sync_inline))
        else:
            out.append(line.replace(_SYNC + "; ", ""))
    prologue = ["_g%d = regs[%d]" % (r, r) for r in sorted(used_r)]
    prologue += ["_f%d = flags[%d]" % (f, f) for f in sorted(used_f)]
    return prologue, out


class _BlockRunner:
    """Executes one :class:`Program` through lazily-compiled blocks.

    ``prof`` (a :class:`repro.obs.profile.BlockRecorder` or None) turns
    on per-superblock attribution: each dispatch and each cold
    interpreted run is timed and its executed-unit delta (read off the
    shared run-accounting state) credited to the entry index.
    """

    def __init__(self, program, prof=None):
        self.program = program
        self.prof = prof
        seq = program.seq_next
        self.handlers = [op.closure(program, i, i + 1 if seq is None else seq[i])
                         for i, op in enumerate(program.ops)]
        self.blocks = {}
        self.hot = {}  # entry index -> visit count, below threshold
        self.state = [0, 0, 0]  # [run_start, executed, budget limit]
        self.blocks_compiled = 0
        self.units_compiled = 0
        self.fallback_instrs = 0
        self._batch_site = None  # (start, count_end) of the batched site

    def _seq(self, idx):
        seq = self.program.seq_next
        return idx + 1 if seq is None else seq[idx]

    def _dyn_exit(self, body, count_end):
        """Exit through a runtime-computed ``_nxt`` (boundary iff taken)."""
        body.append(_FLUSH)
        body.append(
            "if _nxt != %d: _ra(_st[0]*%d + %d); _st[1] += %d - _st[0]; "
            "_st[0] = _nxt" % (count_end + 1, PACK, count_end, count_end + 1))
        body.append("return _nxt")

    def _backedge_stmts(self, start, pending, count_end):
        """Taken transfer back to the block's own entry: record the run
        boundary and re-enter via ``continue`` instead of returning to
        the dispatch loop — a hot loop body then iterates entirely
        inside its generated function.  The budget is checked before
        looping (the dispatch loop raises on the returned-over-budget
        path); flushing the access prefix per iteration is safe because
        every iteration re-executes the same straight-line prefix.

        The first backedge site of a block is *batched*: iterations bump
        a local counter (``_bn``) instead of appending a trace record
        each, and the
        accumulated count is flushed as one run-length record wherever
        a :data:`_FLUSH` marker expands — before every other boundary
        and on every exit, so the boundary stream order is exact.  The
        executed tally still moves per iteration, so budget enforcement
        is unchanged.  Later backedge sites (rare: several conditional
        branches back to the same entry) emit directly, flushing the
        batched site first to preserve order."""
        stmts = _flush_lines(pending)
        if self._batch_site is None:
            self._batch_site = (start, count_end)
            stmts.append("_st[1] += %d - _st[0]" % (count_end + 1))
            stmts.append("if _st[0] != %d: _ra(_st[0]*%d + %d); "
                         "_st[0] = %d" % (start, PACK, count_end, start))
            stmts.append("else: _bn += 1")
            stmts.append("if _st[1] > _st[2]: %s; %s; return %d"
                         % (_FLUSH, _SYNC, start))
            stmts.append("continue")
            return stmts
        stmts.append(_FLUSH)
        stmts += _boundary_stmts(count_end, "%d" % start)
        stmts.append("if _st[1] > _st[2]: %s; return %d" % (_SYNC, start))
        stmts.append("continue")
        return stmts

    def _compile_block(self, start):
        """Scan + codegen one superblock entered at ``start``."""
        ops = self.program.ops
        blocks = self.blocks
        body = []
        pending = []  # (temp_name, is_store) accumulated since block entry
        units = 0
        fallbacks = 0
        idx = start
        self._batch_site = None
        while True:
            if units >= CHAIN_MIN_UNITS and idx != start and idx in blocks:
                # reached another compiled block's entry: chain to it
                # instead of re-compiling the overlap (the run stays
                # open across the static fall-through — no boundary).
                # Only after a minimum scan length: chaining too eagerly
                # would split short hot loops at interior entries and
                # forfeit the in-block backedge.
                body.extend(_flush_lines(pending))
                body.append(_FLUSH)
                body.append(_SYNC)
                body.append("return %d" % idx)
                break
            template = ops[idx].template(idx)
            units += 1
            count_end = self._seq(idx) - 1
            if template is None:
                # no template: flush the batch, sync cached locals back
                # (the closure reads the shared lists), let the closure
                # terminate the block.  No sync *after* the call — the
                # locals are stale then, and nothing downstream reads
                # them.
                body.extend(_flush_lines(pending))
                body.append(_SYNC)
                body.append("_nxt = H[%d]()" % idx)
                self._dyn_exit(body, count_end)
                fallbacks += 1
                break
            body.extend(template.lines)
            pending.extend(template.addrs)
            if template.cond is not None:
                # conditional transfer: guarded early exit, then the
                # superblock continues along the fall-through path
                target = int(template.nxt)
                if target == count_end + 1:
                    # branch to the next instruction: never a boundary,
                    # but the taken side effects still happen
                    if template.taken_lines:
                        body.append("if %s: %s" % (
                            template.cond, "; ".join(template.taken_lines)))
                elif target == start:
                    body.append("if %s:" % template.cond)
                    for line in template.taken_lines:
                        body.append(" " + line)
                    for line in self._backedge_stmts(start, pending, count_end):
                        body.append(" " + line)
                else:
                    stmts = list(template.taken_lines)
                    stmts += _flush_lines(pending)
                    stmts.append(_FLUSH)
                    stmts += _boundary_stmts(count_end, "%d" % target)
                    stmts.append(_SYNC)
                    stmts.append("return %d" % target)
                    body.append("if %s: %s" % (template.cond, "; ".join(stmts)))
                if units >= MAX_BLOCK_LEN:
                    body.extend(_flush_lines(pending))
                    body.append(_FLUSH)
                    body.append(_SYNC)
                    body.append("return %d" % (count_end + 1))
                    break
                idx = count_end + 1
                continue
            if template.nxt is not None:
                try:
                    target = int(template.nxt)
                except ValueError:
                    target = None
                if target is None:
                    body.extend(_flush_lines(pending))
                    body.append("_nxt = %s" % template.nxt)
                    body.append(_SYNC)
                    self._dyn_exit(body, count_end)
                    break
                if target == start:
                    body.extend(self._backedge_stmts(start, pending, count_end))
                    break
                if target == count_end + 1:
                    # static jump to the next index — never a boundary,
                    # the superblock simply continues through it
                    if units >= MAX_BLOCK_LEN:
                        body.extend(_flush_lines(pending))
                        body.append(_FLUSH)
                        body.append(_SYNC)
                        body.append("return %d" % target)
                        break
                    idx = target
                    continue
                body.extend(_flush_lines(pending))
                body.append(_FLUSH)
                body.extend(_boundary_stmts(count_end, "%d" % target))
                body.append(_SYNC)
                body.append("return %d" % target)
                break
            if units >= MAX_BLOCK_LEN:
                body.extend(_flush_lines(pending))
                body.append(_FLUSH)
                body.append(_SYNC)
                body.append("return %d" % (count_end + 1))
                break
            idx = count_end + 1

        fn = self._assemble(start, body)
        self.blocks_compiled += 1
        self.units_compiled += units
        self.fallback_instrs += fallbacks
        return fn

    def _assemble(self, start, body):
        program = self.program
        body = _expand_flush(body, self._batch_site)
        # Register/flag caching pays for its prologue loads + exit
        # write-backs only when values are re-read many times — i.e.
        # when the block loops on itself (backedge ``continue``).
        if any(line.strip() == "continue" for line in body):
            prologue, body = _apply_reg_cache(body)
        else:
            prologue, body = [], _strip_sync(body)
        if self._batch_site is not None:
            prologue.append("_bn = 0")
        src = ("def _factory(%s):\n def _block():\n%s  while True:\n   %s\n"
               " return _block\n" % (", ".join(_FACTORY_PARAMS),
                                     "".join("  %s\n" % p for p in prologue),
                                     "\n   ".join(body)))
        namespace = {}
        code = compile(src, "<repro.sim.block:%s:%d>" % (program.isa, start), "exec")
        exec(code, EXEC_GLOBALS, namespace)
        trace = program.trace
        return namespace["_factory"](
            self.handlers, program.regs, program.mem, program.flags,
            trace.mem.extend, trace.bounds.append,
            trace.flush_repeat, self.state,
            program.index_of, struct.unpack_from, struct.pack_into,
            trace.console, program.exit_code,
        )

    def run(self, limit):
        program = self.program
        state = self.state
        state[2] = limit
        blocks = self.blocks
        blocks_get = blocks.get
        hot = self.hot
        hot_get = hot.get
        handlers = self.handlers
        seq = program.seq_next
        boundary = program.trace.add_boundary
        prof = self.prof
        clock = time.perf_counter
        idx = 0
        try:
            while idx >= 0:
                fn = blocks_get(idx)
                if fn is None:
                    n = hot_get(idx, 0) + 1
                    if (n < COMPILE_THRESHOLD
                            or (self.units_compiled - COMPILE_FREE_UNITS)
                            * COMPILE_AMORT > state[1]):
                        # cold entry: interpret one run through the
                        # closures (the same bookkeeping the generated
                        # code does) instead of paying codegen for code
                        # that may never repeat.
                        hot[idx] = n
                        if prof is not None:
                            entry, units0, t0 = idx, state[1], clock()
                        while True:
                            nxt = handlers[idx]()
                            straight = idx + 1 if seq is None else seq[idx]
                            if nxt == straight:
                                idx = nxt
                                continue
                            boundary(state[0], straight - 1)
                            state[1] += straight - state[0]
                            state[0] = nxt
                            idx = nxt
                            break
                        if prof is not None:
                            # throttled = hot enough to compile, but the
                            # amortization gate deferred the codegen
                            prof.interp(entry, state[1] - units0,
                                        clock() - t0,
                                        throttled=n >= COMPILE_THRESHOLD)
                        if state[1] > limit:
                            raise _budget_error(program, limit)
                        continue
                    if prof is None:
                        fn = self._compile_block(idx)
                    else:
                        scanned0, fb0, t0 = (self.units_compiled,
                                             self.fallback_instrs, clock())
                        fn = self._compile_block(idx)
                        prof.compiled(idx, clock() - t0,
                                      self.units_compiled - scanned0,
                                      self.fallback_instrs - fb0)
                    blocks[idx] = fn
                if prof is None:
                    idx = fn()
                else:
                    entry, units0, t0 = idx, state[1], clock()
                    idx = fn()
                    prof.call(entry, state[1] - units0, clock() - t0)
                # state[1] only moves at run boundaries, and a block
                # returns immediately after any boundary that crosses
                # the budget — so this raises at exactly the boundary
                # where the interpreter would.
                if state[1] > limit:
                    raise _budget_error(program, limit)
        except (struct.error, IndexError) as exc:
            raise _fault_error(program, idx, exc) from exc
        finally:
            if obs.enabled and self.blocks_compiled:
                obs.counter("sim.engine.blocks_compiled", self.blocks_compiled)
                obs.counter("sim.engine.units_compiled", self.units_compiled)
                obs.counter("sim.engine.fallback_instrs", self.fallback_instrs)
                obs.gauge("sim.engine.avg_block_len",
                          self.units_compiled / self.blocks_compiled)
