"""Functional ARM simulator with pre-decoded execution.

Each static instruction is compiled once into a small Python closure
that mutates the machine state and returns the next instruction index;
execution is then driven by :mod:`repro.sim.functional.engine`, which
interprets cold code through the closures and ``exec()``-compiles hot
straight-line stretches into single generated functions using the per-
instruction source templates in :func:`_emit` (the closures stay as the
always-available fallback).
"""

import struct

from repro.isa.arm.model import (
    Branch,
    Cond,
    DPOp,
    DataProc,
    MemHalf,
    MemMultiple,
    MemWord,
    Multiply,
    Operand2Imm,
    Operand2Reg,
    Operand2RegReg,
    ShiftType,
    Swi,
    COMPARE_OPS,
)
from repro.obs import core as obs
from repro.sim.functional import engine
from repro.sim.functional.engine import Emitted, SimulationError, cond_expr, emit_mem
from repro.sim.functional.trace import TraceBuilder, publish_result

M32 = 0xFFFFFFFF

#: SWI numbers understood by the simulator.
SWI_EXIT = 0
SWI_PUTC = 1


class ArmSimulator:
    """Executes a linked ARM image to completion.

    Args:
        image: :class:`repro.compiler.link.Image`.
        max_instructions: dynamic instruction budget (guards against
            runaway workloads).
    """

    def __init__(self, image, max_instructions=200_000_000):
        self.image = image
        self.max_instructions = max_instructions

    def run(self):
        """Simulate from ``_start`` until the exit SWI; returns
        :class:`~repro.sim.functional.trace.ExecutionResult`."""
        if not obs.enabled:
            return self._run()
        with obs.span("stage.simulate", isa="arm", image=self.image.name):
            result = self._run()
        publish_result("sim.arm", result)
        return result

    def _run(self):
        program = build_program(self.image)
        return engine.execute(program, self.max_instructions)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    regs = [0] * 16
    regs[13] = image.stack_top
    mem = image.initial_memory()
    flags = [False, False, False, False]  # N, Z, C, V
    trace = TraceBuilder()
    exit_code = [None]
    handlers = _compile_handlers(image, regs, mem, flags, trace, exit_code)
    instrs = image.instrs
    return engine.Program(
        image=image,
        isa="arm",
        handlers=handlers,
        regs=regs,
        mem=mem,
        flags=flags,
        trace=trace,
        exit_code=exit_code,
        emit=lambda idx: _emit(instrs[idx], idx, image),
    )


# ----------------------------------------------------------------------
# closure compilation


def _cond_checker(cond, flags):
    if cond is Cond.AL:
        return None
    checks = {
        Cond.EQ: lambda: flags[1],
        Cond.NE: lambda: not flags[1],
        Cond.CS: lambda: flags[2],
        Cond.CC: lambda: not flags[2],
        Cond.MI: lambda: flags[0],
        Cond.PL: lambda: not flags[0],
        Cond.VS: lambda: flags[3],
        Cond.VC: lambda: not flags[3],
        Cond.HI: lambda: flags[2] and not flags[1],
        Cond.LS: lambda: not flags[2] or flags[1],
        Cond.GE: lambda: flags[0] == flags[3],
        Cond.LT: lambda: flags[0] != flags[3],
        Cond.GT: lambda: not flags[1] and flags[0] == flags[3],
        Cond.LE: lambda: flags[1] or flags[0] != flags[3],
    }
    return checks[cond]


def _op2_evaluator(op2, regs):
    """Closure returning the shifter-operand value."""
    if isinstance(op2, Operand2Imm):
        value = op2.value
        return lambda: value
    if isinstance(op2, Operand2Reg):
        rm = op2.rm
        amount = op2.shift_imm
        if op2.shift_type is ShiftType.LSL:
            if amount == 0:
                return lambda: regs[rm]
            return lambda: (regs[rm] << amount) & M32
        if op2.shift_type is ShiftType.LSR:
            if amount == 0:
                return lambda: 0  # LSR #0 encodes LSR #32
            return lambda: regs[rm] >> amount
        if op2.shift_type is ShiftType.ASR:
            if amount == 0:
                return lambda: M32 if regs[rm] & 0x80000000 else 0
            return lambda: (
                (regs[rm] >> amount) | (((1 << amount) - 1) << (32 - amount))
                if regs[rm] & 0x80000000
                else regs[rm] >> amount
            )
        # ROR
        if amount == 0:
            raise NotImplementedError("RRX unsupported")
        return lambda: ((regs[rm] >> amount) | (regs[rm] << (32 - amount))) & M32
    if isinstance(op2, Operand2RegReg):
        rm = op2.rm
        rs = op2.rs
        st = op2.shift_type

        def ev():
            amount = regs[rs] & 0xFF
            value = regs[rm]
            if st is ShiftType.LSL:
                return (value << amount) & M32 if amount < 32 else 0
            if st is ShiftType.LSR:
                return value >> amount if amount < 32 else 0
            if st is ShiftType.ASR:
                if amount >= 32:
                    return M32 if value & 0x80000000 else 0
                if value & 0x80000000:
                    return (value >> amount) | (((1 << amount) - 1) << (32 - amount))
                return value >> amount
            amount &= 31
            if amount == 0:
                return value
            return ((value >> amount) | (value << (32 - amount))) & M32

        return ev
    raise TypeError("bad operand2: %r" % (op2,))


def _compile_dataproc(ins, idx, image, regs, flags):
    nxt = idx + 1
    ev = _op2_evaluator(ins.operand2, regs)
    rd, rn, op = ins.rd, ins.rn, ins.op

    if op in COMPARE_OPS:
        if op is DPOp.CMP:
            def h():
                a = regs[rn]
                b = ev()
                r = (a - b) & M32
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                flags[2] = a >= b
                flags[3] = bool((a ^ b) & (a ^ r) & 0x80000000)
                return nxt
        elif op is DPOp.CMN:
            def h():
                a = regs[rn]
                b = ev()
                total = a + b
                r = total & M32
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                flags[2] = total > M32
                flags[3] = bool(~(a ^ b) & (a ^ r) & 0x80000000)
                return nxt
        elif op is DPOp.TST:
            def h():
                r = regs[rn] & ev()
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                return nxt
        else:  # TEQ
            def h():
                r = regs[rn] ^ ev()
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                return nxt
        return h

    if ins.s:
        raise NotImplementedError("S-bit data processing (other than compares)")

    if rd == 15:
        # write to PC: computed control transfer (function return)
        index_of = image.index_of_addr
        if op is not DPOp.MOV:
            raise NotImplementedError("only MOV may target pc")

        def h():
            return index_of(ev())

        return h

    compute = {
        DPOp.AND: lambda a, b: a & b,
        DPOp.EOR: lambda a, b: a ^ b,
        DPOp.SUB: lambda a, b: (a - b) & M32,
        DPOp.RSB: lambda a, b: (b - a) & M32,
        DPOp.ADD: lambda a, b: (a + b) & M32,
        DPOp.ORR: lambda a, b: a | b,
        DPOp.BIC: lambda a, b: a & ~b & M32,
    }
    if op is DPOp.MOV:
        def h():
            regs[rd] = ev()
            return nxt
        return h
    if op is DPOp.MVN:
        def h():
            regs[rd] = ev() ^ M32
            return nxt
        return h
    if op in compute:
        fn = compute[op]

        def h():
            regs[rd] = fn(regs[rn], ev())
            return nxt

        return h
    raise NotImplementedError("data-processing op %s" % op.name)


def _compile_handlers(image, regs, mem, flags, trace, exit_code):
    handlers = []
    mm = trace.add_mem
    console = trace.console
    unpack_from = struct.unpack_from
    pack_into = struct.pack_into

    for idx, ins in enumerate(image.instrs):
        nxt = idx + 1
        if isinstance(ins, DataProc):
            h = _compile_dataproc(ins, idx, image, regs, flags)
        elif isinstance(ins, MemWord):
            h = _compile_memword(ins, idx, regs, mem, mm, unpack_from, pack_into)
        elif isinstance(ins, MemHalf):
            h = _compile_memhalf(ins, idx, regs, mem, mm, unpack_from, pack_into)
        elif isinstance(ins, MemMultiple):
            reglist = tuple(ins.reglist)
            rn = ins.rn
            if ins.load:
                index_of = image.index_of_addr
                loads_pc = 15 in reglist
                gprs = tuple(r for r in reglist if r != 15)

                def h(rn=rn, gprs=gprs, loads_pc=loads_pc, nxt=nxt):
                    addr = regs[rn]
                    for r in gprs:
                        mm(addr + addr)
                        regs[r] = unpack_from("<I", mem, addr)[0]
                        addr += 4
                    target = nxt
                    if loads_pc:
                        mm(addr + addr)
                        target = index_of(unpack_from("<I", mem, addr)[0])
                        addr += 4
                    regs[rn] = addr
                    return target
            else:
                def h(rn=rn, reglist=reglist, nxt=nxt):
                    addr = regs[rn] - 4 * len(reglist)
                    regs[rn] = addr
                    for r in reglist:
                        mm(addr + addr + 1)
                        pack_into("<I", mem, addr, regs[r])
                        addr += 4
                    return nxt
        elif isinstance(ins, Multiply):
            rd, rm, rs, rn, acc = ins.rd, ins.rm, ins.rs, ins.rn, ins.accumulate
            if acc:
                def h(rd=rd, rm=rm, rs=rs, rn=rn, nxt=nxt):
                    regs[rd] = (regs[rm] * regs[rs] + regs[rn]) & M32
                    return nxt
            else:
                def h(rd=rd, rm=rm, rs=rs, nxt=nxt):
                    regs[rd] = (regs[rm] * regs[rs]) & M32
                    return nxt
        elif isinstance(ins, Branch):
            target = image.index_of_addr(ins.target(image.addr_of_index(idx)))
            check = _cond_checker(ins.cond, flags)
            if ins.link:
                ret_addr = image.addr_of_index(idx) + 4
                if check is None:
                    def h(target=target, ret_addr=ret_addr):
                        regs[14] = ret_addr
                        return target
                else:
                    def h(target=target, ret_addr=ret_addr, check=check, nxt=nxt):
                        if check():
                            regs[14] = ret_addr
                            return target
                        return nxt
            else:
                if check is None:
                    def h(target=target):
                        return target
                else:
                    def h(target=target, check=check, nxt=nxt):
                        return target if check() else nxt
        elif isinstance(ins, Swi):
            num = ins.imm24
            if num == SWI_EXIT:
                def h():
                    exit_code[0] = regs[0]
                    return -1
            elif num == SWI_PUTC:
                def h(nxt=nxt):
                    console.append(regs[0] & 0xFF)
                    return nxt
            else:
                raise SimulationError("unknown SWI #%d at index %d" % (num, idx))
        else:
            raise SimulationError("cannot execute %r" % (ins,))
        handlers.append(h)
    return handlers


def _compile_memword(ins, idx, regs, mem, mm, unpack_from, pack_into):
    nxt = idx + 1
    rd, rn = ins.rd, ins.rn
    if isinstance(ins.offset, int):
        off = ins.offset

        def ea():
            return (regs[rn] + off) & M32

    else:
        rm = ins.offset.rm
        shift = ins.offset.shift_imm
        if shift:
            def ea():
                return (regs[rn] + ((regs[rm] << shift) & M32)) & M32
        else:
            def ea():
                return (regs[rn] + regs[rm]) & M32

    if ins.load:
        if ins.byte:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = mem[addr]
                return nxt
        else:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = unpack_from("<I", mem, addr)[0]
                return nxt
    else:
        if ins.byte:
            def h():
                addr = ea()
                mm(addr + addr + 1)
                mem[addr] = regs[rd] & 0xFF
                return nxt
        else:
            def h():
                addr = ea()
                mm(addr + addr + 1)
                pack_into("<I", mem, addr, regs[rd])
                return nxt
    return h


def _compile_memhalf(ins, idx, regs, mem, mm, unpack_from, pack_into):
    nxt = idx + 1
    rd, rn, off = ins.rd, ins.rn, ins.offset
    if ins.load:
        if ins.half and ins.signed:
            def h():
                addr = (regs[rn] + off) & M32
                mm(addr + addr)
                regs[rd] = unpack_from("<h", mem, addr)[0] & M32
                return nxt
        elif ins.half:
            def h():
                addr = (regs[rn] + off) & M32
                mm(addr + addr)
                regs[rd] = unpack_from("<H", mem, addr)[0]
                return nxt
        else:  # signed byte
            def h():
                addr = (regs[rn] + off) & M32
                mm(addr + addr)
                value = mem[addr]
                regs[rd] = value | 0xFFFFFF00 if value & 0x80 else value
                return nxt
    else:
        def h():
            addr = (regs[rn] + off) & M32
            mm(addr + addr + 1)
            pack_into("<H", mem, addr, regs[rd] & 0xFFFF)
            return nxt
    return h


# ----------------------------------------------------------------------
# block-engine source templates
#
# Each template mirrors the matching closure above statement for
# statement; the engine property tests (tests/test_engine.py) hold
# compiled runs bit-identical to interpret-only runs.  An instruction kind
# without a template returns None and executes through its closure.


_DP_EXPR = {
    DPOp.AND: "regs[%d] & %s",
    DPOp.EOR: "regs[%d] ^ %s",
    DPOp.SUB: "(regs[%d] - %s) & 4294967295",
    DPOp.RSB: None,  # operand order swapped; handled explicitly
    DPOp.ADD: "(regs[%d] + %s) & 4294967295",
    DPOp.ORR: "regs[%d] | %s",
    DPOp.BIC: "regs[%d] & ~(%s) & 4294967295",
}

_ST_NAME = {ShiftType.LSL: "LSL", ShiftType.LSR: "LSR",
            ShiftType.ASR: "ASR", ShiftType.ROR: "ROR"}


def _op2_expr(op2):
    """Source expression for a shifter operand, or None (RRX)."""
    if isinstance(op2, Operand2Imm):
        return "%d" % op2.value
    if isinstance(op2, Operand2Reg):
        rm, n = op2.rm, op2.shift_imm
        if op2.shift_type is ShiftType.LSL:
            if n == 0:
                return "regs[%d]" % rm
            return "((regs[%d] << %d) & 4294967295)" % (rm, n)
        if op2.shift_type is ShiftType.LSR:
            if n == 0:
                return "0"  # LSR #0 encodes LSR #32
            return "(regs[%d] >> %d)" % (rm, n)
        if op2.shift_type is ShiftType.ASR:
            if n == 0:
                return "(4294967295 if regs[%d] & 2147483648 else 0)" % rm
            mask = ((1 << n) - 1) << (32 - n)
            return ("(((regs[%d] >> %d) | %d) if regs[%d] & 2147483648"
                    " else (regs[%d] >> %d))" % (rm, n, mask, rm, rm, n))
        # ROR
        if n == 0:
            return None  # RRX — the closure compiler rejects it anyway
        return ("(((regs[%d] >> %d) | (regs[%d] << %d)) & 4294967295)"
                % (rm, n, rm, 32 - n))
    if isinstance(op2, Operand2RegReg):
        return ("dyn_shift(regs[%d], %s, regs[%d] & 255)"
                % (op2.rm, _ST_NAME[op2.shift_type], op2.rs))
    return None


def _flag_lines(t, x, y, r, carry, overflow):
    """NZ always; C/V from the given expressions (None to skip)."""
    lines = ["flags[0] = %s >= 2147483648" % r,
             "flags[1] = %s == 0" % r]
    if carry is not None:
        lines.append("flags[2] = %s" % carry)
    if overflow is not None:
        lines.append("flags[3] = %s" % overflow)
    return lines


def _emit_dataproc(ins, idx):
    op2 = _op2_expr(ins.operand2)
    if op2 is None:
        return None
    rd, rn, op = ins.rd, ins.rn, ins.op
    t = "%d" % idx

    if op in COMPARE_OPS:
        x, y, r, tot = "_x" + t, "_y" + t, "_r" + t, "_t" + t
        if op is DPOp.CMP:
            lines = ["%s = regs[%d]" % (x, rn),
                     "%s = %s" % (y, op2),
                     "%s = (%s - %s) & 4294967295" % (r, x, y)]
            lines += _flag_lines(t, x, y, r,
                                 "%s >= %s" % (x, y),
                                 "((%s ^ %s) & (%s ^ %s) & 2147483648) != 0"
                                 % (x, y, x, r))
        elif op is DPOp.CMN:
            lines = ["%s = regs[%d]" % (x, rn),
                     "%s = %s" % (y, op2),
                     "%s = %s + %s" % (tot, x, y),
                     "%s = %s & 4294967295" % (r, tot)]
            lines += _flag_lines(t, x, y, r,
                                 "%s > 4294967295" % tot,
                                 "(~(%s ^ %s) & (%s ^ %s) & 2147483648) != 0"
                                 % (x, y, x, r))
        elif op is DPOp.TST:
            lines = ["%s = regs[%d] & %s" % (r, rn, op2)]
            lines += _flag_lines(t, None, None, r, None, None)
        else:  # TEQ
            lines = ["%s = regs[%d] ^ %s" % (r, rn, op2)]
            lines += _flag_lines(t, None, None, r, None, None)
        return Emitted(lines)

    if ins.s:
        return None  # closure compilation already raised

    if rd == 15:
        if op is not DPOp.MOV:
            return None
        return Emitted([], nxt="index_of(%s)" % op2)

    if op is DPOp.MOV:
        return Emitted(["regs[%d] = %s" % (rd, op2)])
    if op is DPOp.MVN:
        return Emitted(["regs[%d] = %s ^ 4294967295" % (rd, op2)])
    if op is DPOp.RSB:
        return Emitted(["regs[%d] = (%s - regs[%d]) & 4294967295" % (rd, op2, rn)])
    pattern = _DP_EXPR.get(op)
    if pattern is None:
        return None
    return Emitted(["regs[%d] = %s" % (rd, pattern % (rn, op2))])


def _ea_expr(ins):
    """Effective-address expression of a MemWord/MemHalf operand."""
    rn = ins.rn
    if isinstance(ins.offset, int):
        return "(regs[%d] + %d) & 4294967295" % (rn, ins.offset)
    rm = ins.offset.rm
    shift = ins.offset.shift_imm
    if shift:
        return ("(regs[%d] + ((regs[%d] << %d) & 4294967295)) & 4294967295"
                % (rn, rm, shift))
    return "(regs[%d] + regs[%d]) & 4294967295" % (rn, rm)


def _emit_memmultiple(ins, idx):
    reglist = tuple(ins.reglist)
    rn = ins.rn
    t = "%d" % idx
    lines = []
    addrs = []
    if ins.load:
        gprs = tuple(r for r in reglist if r != 15)
        lines.append("_a%s_0 = regs[%d]" % (t, rn))
        cursor = "_a%s_0" % t
        for j, r in enumerate(gprs):
            if j:
                cursor = "_a%s_%d" % (t, j)
                lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
            lines.append("regs[%d] = unpack_from(\"<I\", mem, %s)[0]" % (r, cursor))
            addrs.append((cursor, 0))
        if 15 in reglist:
            pc_cursor = "_a%s_%d" % (t, len(gprs))
            if gprs:
                lines.append("%s = %s + 4" % (pc_cursor, cursor))
            else:
                lines.append("%s = regs[%d]" % (pc_cursor, rn))
            lines.append("_t%s = index_of(unpack_from(\"<I\", mem, %s)[0])"
                         % (t, pc_cursor))
            addrs.append((pc_cursor, 0))
            lines.append("regs[%d] = %s + 4" % (rn, pc_cursor))
            return Emitted(lines, addrs=tuple(addrs), nxt="_t%s" % t)
        lines.append("regs[%d] = %s + 4" % (rn, cursor))
        return Emitted(lines, addrs=tuple(addrs))
    # store-multiple: descending base, ascending stores
    lines.append("_a%s_0 = regs[%d] - %d" % (t, rn, 4 * len(reglist)))
    lines.append("regs[%d] = _a%s_0" % (rn, t))
    cursor = "_a%s_0" % t
    for j, r in enumerate(reglist):
        if j:
            cursor = "_a%s_%d" % (t, j)
            lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
        lines.append("pack_into(\"<I\", mem, %s, regs[%d])" % (cursor, r))
        addrs.append((cursor, 1))
    return Emitted(lines, addrs=tuple(addrs))


def _emit_branch(ins, idx, image):
    target = image.index_of_addr(ins.target(image.addr_of_index(idx)))
    check = cond_expr(ins.cond)
    if ins.link:
        ret_addr = image.addr_of_index(idx) + 4
        if check is None:
            return Emitted(["regs[14] = %d" % ret_addr], nxt="%d" % target)
        return Emitted([], nxt="%d" % target, cond=check,
                       taken_lines=("regs[14] = %d" % ret_addr,))
    if check is None:
        return Emitted([], nxt="%d" % target)
    return Emitted([], nxt="%d" % target, cond=check)


def _emit(ins, idx, image):
    """Block-engine template for one instruction, or None (fallback)."""
    if isinstance(ins, DataProc):
        return _emit_dataproc(ins, idx)
    if isinstance(ins, MemWord):
        width = 1 if ins.byte else 4
        return emit_mem(ins.load, width, False, ins.rd, _ea_expr(ins), "_a%d" % idx)
    if isinstance(ins, MemHalf):
        ea = "(regs[%d] + %d) & 4294967295" % (ins.rn, ins.offset)
        if ins.load:
            width = 2 if ins.half else 1
            return emit_mem(True, width, ins.signed or not ins.half, ins.rd,
                            ea, "_a%d" % idx)
        return emit_mem(False, 2, False, ins.rd, ea, "_a%d" % idx)
    if isinstance(ins, MemMultiple):
        return _emit_memmultiple(ins, idx)
    if isinstance(ins, Multiply):
        if ins.accumulate:
            line = ("regs[%d] = (regs[%d] * regs[%d] + regs[%d]) & 4294967295"
                    % (ins.rd, ins.rm, ins.rs, ins.rn))
        else:
            line = ("regs[%d] = (regs[%d] * regs[%d]) & 4294967295"
                    % (ins.rd, ins.rm, ins.rs))
        return Emitted([line])
    if isinstance(ins, Branch):
        return _emit_branch(ins, idx, image)
    if isinstance(ins, Swi):
        if ins.imm24 == SWI_EXIT:
            return Emitted(["exit_code[0] = regs[0]"], nxt="-1")
        if ins.imm24 == SWI_PUTC:
            return Emitted(["console.append(regs[0] & 255)"])
        return None
    return None
