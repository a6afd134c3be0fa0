"""Functional Thumb simulator (validates the Thumb back end).

Same closure-compiled design as the ARM simulator, over halfword
indices.  Only the flag behaviour our generated code relies on is
modelled: the compare instructions set NZCV, conditional branches read
them.  (Real Thumb ALU ops also set flags; our back end never reads
those, so modelling them would be dead weight.)
"""

import struct

from repro.isa.thumb.model import (
    TAdjustSp,
    TAlu,
    TAluOp,
    TAddSub,
    TBranch,
    TBranchLink,
    TCond,
    TCondBranch,
    TLoadStoreImm,
    TLoadStoreReg,
    TLoadStoreSpRel,
    TMovCmpAddSubImm,
    TPushPop,
    TShiftImm,
    TSwi,
)
from repro.obs import core as obs
from repro.sim.functional import engine
from repro.sim.functional.engine import COND_EXPR, Emitted, SimulationError, emit_mem
from repro.sim.functional.trace import TraceBuilder, publish_result

M32 = 0xFFFFFFFF


class ThumbSimulator:
    """Executes a linked :class:`~repro.compiler.thumb_backend.ThumbImage`."""

    def __init__(self, image, max_instructions=200_000_000):
        self.image = image
        self.max_instructions = max_instructions

    def run(self):
        if not obs.enabled:
            return self._run()
        with obs.span("stage.simulate", isa="thumb", image=self.image.name):
            result = self._run()
        publish_result("sim.thumb", result)
        return result

    def _run(self):
        program = build_program(self.image)
        return engine.execute(program, self.max_instructions)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    regs = [0] * 16
    regs[13] = image.stack_top
    mem = image.initial_memory()
    flags = [False, False, False, False]
    trace = TraceBuilder()
    exit_code = [None]
    handlers = _compile(image, regs, mem, flags, trace, exit_code)
    instr_at = image.instr_at
    return engine.Program(
        image=image,
        isa="thumb",
        handlers=handlers,
        regs=regs,
        mem=mem,
        flags=flags,
        trace=trace,
        exit_code=exit_code,
        emit=lambda idx: _emit(instr_at[idx], idx, image),
    )


def _check(cond, flags):
    table = {
        TCond.EQ: lambda: flags[1],
        TCond.NE: lambda: not flags[1],
        TCond.CS: lambda: flags[2],
        TCond.CC: lambda: not flags[2],
        TCond.MI: lambda: flags[0],
        TCond.PL: lambda: not flags[0],
        TCond.VS: lambda: flags[3],
        TCond.VC: lambda: not flags[3],
        TCond.HI: lambda: flags[2] and not flags[1],
        TCond.LS: lambda: not flags[2] or flags[1],
        TCond.GE: lambda: flags[0] == flags[3],
        TCond.LT: lambda: flags[0] != flags[3],
        TCond.GT: lambda: not flags[1] and flags[0] == flags[3],
        TCond.LE: lambda: flags[1] or flags[0] != flags[3],
    }
    return table[cond]


def _set_cmp(flags, a, b):
    r = (a - b) & M32
    flags[0] = bool(r & 0x80000000)
    flags[1] = r == 0
    flags[2] = a >= b
    flags[3] = bool((a ^ b) & (a ^ r) & 0x80000000)


def _compile(image, regs, mem, flags, trace, exit_code):
    handlers = []
    mm = trace.add_mem
    unpack_from = struct.unpack_from
    pack_into = struct.pack_into

    for idx, ins in enumerate(image.instr_at):
        nxt = idx + 1
        if ins is None:
            handlers.append(None)  # lo half of bl, never executed directly
            continue
        if isinstance(ins, TShiftImm):
            rd, rm, n, op = ins.rd, ins.rm, ins.imm5, ins.op
            if op == "lsl":
                def h(rd=rd, rm=rm, n=n, nxt=nxt):
                    regs[rd] = (regs[rm] << n) & M32
                    return nxt
            elif op == "lsr":
                def h(rd=rd, rm=rm, n=n, nxt=nxt):
                    regs[rd] = regs[rm] >> n if n else 0
                    return nxt
            else:
                def h(rd=rd, rm=rm, n=n, nxt=nxt):
                    v = regs[rm]
                    if n == 0:
                        regs[rd] = M32 if v & 0x80000000 else 0
                    elif v & 0x80000000:
                        regs[rd] = (v >> n) | (((1 << n) - 1) << (32 - n))
                    else:
                        regs[rd] = v >> n
                    return nxt
        elif isinstance(ins, TAddSub):
            rd, rn, val, imm, sub = ins.rd, ins.rn, ins.value, ins.imm, ins.sub
            if imm:
                if sub:
                    def h(rd=rd, rn=rn, val=val, nxt=nxt):
                        regs[rd] = (regs[rn] - val) & M32
                        return nxt
                else:
                    def h(rd=rd, rn=rn, val=val, nxt=nxt):
                        regs[rd] = (regs[rn] + val) & M32
                        return nxt
            else:
                if sub:
                    def h(rd=rd, rn=rn, val=val, nxt=nxt):
                        regs[rd] = (regs[rn] - regs[val]) & M32
                        return nxt
                else:
                    def h(rd=rd, rn=rn, val=val, nxt=nxt):
                        regs[rd] = (regs[rn] + regs[val]) & M32
                        return nxt
        elif isinstance(ins, TMovCmpAddSubImm):
            rd, imm, op = ins.rd, ins.imm8, ins.op
            if op == "mov":
                def h(rd=rd, imm=imm, nxt=nxt):
                    regs[rd] = imm
                    return nxt
            elif op == "cmp":
                def h(rd=rd, imm=imm, nxt=nxt):
                    _set_cmp(flags, regs[rd], imm)
                    return nxt
            elif op == "add":
                def h(rd=rd, imm=imm, nxt=nxt):
                    regs[rd] = (regs[rd] + imm) & M32
                    return nxt
            else:
                def h(rd=rd, imm=imm, nxt=nxt):
                    regs[rd] = (regs[rd] - imm) & M32
                    return nxt
        elif isinstance(ins, TAlu):
            h = _compile_alu(ins, nxt, regs, flags)
        elif isinstance(ins, TLoadStoreImm):
            h = _compile_ls(ins.load, ins.rd, ins.rn, ins.offset, None, ins.width, False,
                            nxt, regs, mem, mm, unpack_from, pack_into)
        elif isinstance(ins, TLoadStoreReg):
            h = _compile_ls(ins.load, ins.rd, ins.rn, None, ins.rm, ins.width, ins.signed,
                            nxt, regs, mem, mm, unpack_from, pack_into)
        elif isinstance(ins, TLoadStoreSpRel):
            off, rd = ins.offset, ins.rd
            if ins.load:
                def h(rd=rd, off=off, nxt=nxt):
                    addr = (regs[13] + off) & M32
                    mm(addr + addr)
                    regs[rd] = unpack_from("<I", mem, addr)[0]
                    return nxt
            else:
                def h(rd=rd, off=off, nxt=nxt):
                    addr = (regs[13] + off) & M32
                    mm(addr + addr + 1)
                    pack_into("<I", mem, addr, regs[rd])
                    return nxt
        elif isinstance(ins, TAdjustSp):
            delta = ins.delta

            def h(delta=delta, nxt=nxt):
                regs[13] = (regs[13] + delta) & M32
                return nxt
        elif isinstance(ins, TPushPop):
            h = _compile_pushpop(ins, idx, nxt, image, regs, mem, mm, unpack_from, pack_into)
        elif isinstance(ins, TCondBranch):
            target = ins.target_index(idx)
            check = _check(ins.cond, flags)

            def h(target=target, check=check, nxt=nxt):
                return target if check() else nxt
        elif isinstance(ins, TBranch):
            target = ins.target_index(idx)

            def h(target=target):
                return target
        elif isinstance(ins, TBranchLink):
            target = ins.target_index(idx)
            ret_addr = image.addr_of_index(idx) + 4

            def h(target=target, ret_addr=ret_addr):
                regs[14] = ret_addr
                return target
        elif isinstance(ins, TSwi):
            if ins.imm8 == 0:
                def h():
                    exit_code[0] = regs[0]
                    return -1
            elif ins.imm8 == 1:
                def h(nxt=nxt):
                    trace.console.append(regs[0] & 0xFF)
                    return nxt
            else:
                raise SimulationError("unknown thumb SWI #%d" % ins.imm8)
        else:
            raise SimulationError("cannot execute %r" % (ins,))
        handlers.append(h)
    return handlers


def _compile_alu(ins, nxt, regs, flags):
    rd, rm, op = ins.rd, ins.rm, ins.op
    simple = {
        TAluOp.AND: lambda a, b: a & b,
        TAluOp.EOR: lambda a, b: a ^ b,
        TAluOp.ORR: lambda a, b: a | b,
        TAluOp.BIC: lambda a, b: a & ~b & M32,
        TAluOp.MUL: lambda a, b: (a * b) & M32,
        TAluOp.MVN: lambda a, b: b ^ M32,
        TAluOp.NEG: lambda a, b: (-b) & M32,
    }
    if op in simple:
        fn = simple[op]

        def h(rd=rd, rm=rm, fn=fn, nxt=nxt):
            regs[rd] = fn(regs[rd], regs[rm])
            return nxt

        return h
    if op is TAluOp.CMP:
        def h(rd=rd, rm=rm, nxt=nxt):
            _set_cmp(flags, regs[rd], regs[rm])
            return nxt
        return h
    if op is TAluOp.CMN:
        def h(rd=rd, rm=rm, nxt=nxt):
            a, b = regs[rd], regs[rm]
            total = a + b
            r = total & M32
            flags[0] = bool(r & 0x80000000)
            flags[1] = r == 0
            flags[2] = total > M32
            flags[3] = bool(~(a ^ b) & (a ^ r) & 0x80000000)
            return nxt
        return h
    if op is TAluOp.TST:
        def h(rd=rd, rm=rm, nxt=nxt):
            r = regs[rd] & regs[rm]
            flags[0] = bool(r & 0x80000000)
            flags[1] = r == 0
            return nxt
        return h
    if op in (TAluOp.LSL, TAluOp.LSR, TAluOp.ASR, TAluOp.ROR):
        kind = op

        def h(rd=rd, rm=rm, kind=kind, nxt=nxt):
            amount = regs[rm] & 0xFF
            v = regs[rd]
            if kind is TAluOp.LSL:
                regs[rd] = (v << amount) & M32 if amount < 32 else 0
            elif kind is TAluOp.LSR:
                regs[rd] = v >> amount if amount < 32 else 0
            elif kind is TAluOp.ASR:
                if amount >= 32:
                    regs[rd] = M32 if v & 0x80000000 else 0
                elif v & 0x80000000:
                    regs[rd] = (v >> amount) | (((1 << amount) - 1) << (32 - amount))
                else:
                    regs[rd] = v >> amount
            else:
                amount &= 31
                regs[rd] = ((v >> amount) | (v << (32 - amount))) & M32 if amount else v
            return nxt

        return h
    raise SimulationError("unsupported thumb ALU op %s" % op.name)


def _compile_ls(load, rd, rn, off_imm, rm, width, signed, nxt, regs, mem, mm, unpack_from, pack_into):
    if off_imm is not None:
        def ea(rn=rn, off=off_imm):
            return (regs[rn] + off) & M32
    else:
        def ea(rn=rn, rm=rm):
            return (regs[rn] + regs[rm]) & M32

    if load:
        if width == 4:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = unpack_from("<I", mem, addr)[0]
                return nxt
        elif width == 2:
            if signed:
                def h():
                    addr = ea()
                    mm(addr + addr)
                    regs[rd] = unpack_from("<h", mem, addr)[0] & M32
                    return nxt
            else:
                def h():
                    addr = ea()
                    mm(addr + addr)
                    regs[rd] = unpack_from("<H", mem, addr)[0]
                    return nxt
        else:
            if signed:
                def h():
                    addr = ea()
                    mm(addr + addr)
                    v = mem[addr]
                    regs[rd] = v | 0xFFFFFF00 if v & 0x80 else v
                    return nxt
            else:
                def h():
                    addr = ea()
                    mm(addr + addr)
                    regs[rd] = mem[addr]
                    return nxt
    else:
        if width == 4:
            def h():
                addr = ea()
                mm(addr + addr + 1)
                pack_into("<I", mem, addr, regs[rd])
                return nxt
        elif width == 2:
            def h():
                addr = ea()
                mm(addr + addr + 1)
                pack_into("<H", mem, addr, regs[rd] & 0xFFFF)
                return nxt
        else:
            def h():
                addr = ea()
                mm(addr + addr + 1)
                mem[addr] = regs[rd] & 0xFF
                return nxt
    return h


def _compile_pushpop(ins, idx, nxt, image, regs, mem, mm, unpack_from, pack_into):
    reglist = list(ins.reglist)
    if ins.pop:
        index_of = image.index_of_addr

        def h(reglist=tuple(reglist), extra=ins.extra, nxt=nxt):
            sp = regs[13]
            for r in reglist:
                mm(sp + sp)
                regs[r] = unpack_from("<I", mem, sp)[0]
                sp += 4
            target = nxt
            if extra:
                mm(sp + sp)
                pc = unpack_from("<I", mem, sp)[0]
                sp += 4
                target = index_of(pc)
            regs[13] = sp
            return target
    else:
        def h(reglist=tuple(reglist), extra=ins.extra, nxt=nxt):
            count = len(reglist) + (1 if extra else 0)
            sp = regs[13] - 4 * count
            regs[13] = sp
            for r in reglist:
                mm(sp + sp + 1)
                pack_into("<I", mem, sp, regs[r])
                sp += 4
            if extra:
                mm(sp + sp + 1)
                pack_into("<I", mem, sp, regs[14])
            return nxt
    return h


# ----------------------------------------------------------------------
# block-engine source templates (mirroring the closures above 1:1)


_ALU_EXPR = {
    TAluOp.AND: "regs[%(rd)d] & regs[%(rm)d]",
    TAluOp.EOR: "regs[%(rd)d] ^ regs[%(rm)d]",
    TAluOp.ORR: "regs[%(rd)d] | regs[%(rm)d]",
    TAluOp.BIC: "regs[%(rd)d] & ~regs[%(rm)d] & 4294967295",
    TAluOp.MUL: "(regs[%(rd)d] * regs[%(rm)d]) & 4294967295",
    TAluOp.MVN: "regs[%(rm)d] ^ 4294967295",
    TAluOp.NEG: "(-regs[%(rm)d]) & 4294967295",
}

_DYN_SHIFT_NAME = {TAluOp.LSL: "LSL", TAluOp.LSR: "LSR",
                   TAluOp.ASR: "ASR", TAluOp.ROR: "ROR"}


def _cmp_lines(t, a_expr, b_expr):
    """Inline :func:`_set_cmp` on two already-safe expressions."""
    x, y, r = "_x" + t, "_y" + t, "_r" + t
    return [
        "%s = %s" % (x, a_expr),
        "%s = %s" % (y, b_expr),
        "%s = (%s - %s) & 4294967295" % (r, x, y),
        "flags[0] = %s >= 2147483648" % r,
        "flags[1] = %s == 0" % r,
        "flags[2] = %s >= %s" % (x, y),
        "flags[3] = ((%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r),
    ]


def _emit_shift_imm(ins, idx):
    rd, rm, n = ins.rd, ins.rm, ins.imm5
    if ins.op == "lsl":
        return Emitted(["regs[%d] = (regs[%d] << %d) & 4294967295" % (rd, rm, n)])
    if ins.op == "lsr":
        if n:
            return Emitted(["regs[%d] = regs[%d] >> %d" % (rd, rm, n)])
        return Emitted(["regs[%d] = 0" % rd])
    # asr
    if n == 0:
        return Emitted(
            ["regs[%d] = 4294967295 if regs[%d] & 2147483648 else 0" % (rd, rm)])
    mask = ((1 << n) - 1) << (32 - n)
    v = "_v%d" % idx
    return Emitted([
        "%s = regs[%d]" % (v, rm),
        "regs[%d] = ((%s >> %d) | %d) if %s & 2147483648 else (%s >> %d)"
        % (rd, v, n, mask, v, v, n),
    ])


def _emit_alu(ins, idx):
    rd, rm, op = ins.rd, ins.rm, ins.op
    pattern = _ALU_EXPR.get(op)
    if pattern is not None:
        return Emitted(["regs[%d] = %s" % (rd, pattern % {"rd": rd, "rm": rm})])
    t = "%d" % idx
    if op is TAluOp.CMP:
        return Emitted(_cmp_lines(t, "regs[%d]" % rd, "regs[%d]" % rm))
    if op is TAluOp.CMN:
        x, y, tot, r = "_x" + t, "_y" + t, "_t" + t, "_r" + t
        return Emitted([
            "%s = regs[%d]" % (x, rd),
            "%s = regs[%d]" % (y, rm),
            "%s = %s + %s" % (tot, x, y),
            "%s = %s & 4294967295" % (r, tot),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
            "flags[2] = %s > 4294967295" % tot,
            "flags[3] = (~(%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r),
        ])
    if op is TAluOp.TST:
        r = "_r" + t
        return Emitted([
            "%s = regs[%d] & regs[%d]" % (r, rd, rm),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
        ])
    name = _DYN_SHIFT_NAME.get(op)
    if name is None:
        return None
    return Emitted(["regs[%d] = dyn_shift(regs[%d], %s, regs[%d] & 255)"
                    % (rd, rd, name, rm)])


def _emit_pushpop(ins, idx):
    reglist = tuple(ins.reglist)
    t = "%d" % idx
    lines = []
    addrs = []
    if ins.pop:
        lines.append("_a%s_0 = regs[13]" % t)
        cursor = "_a%s_0" % t
        for j, r in enumerate(reglist):
            if j:
                cursor = "_a%s_%d" % (t, j)
                lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
            lines.append("regs[%d] = unpack_from(\"<I\", mem, %s)[0]" % (r, cursor))
            addrs.append((cursor, 0))
        if ins.extra:
            pc_cursor = "_a%s_%d" % (t, len(reglist))
            if reglist:
                lines.append("%s = %s + 4" % (pc_cursor, cursor))
            else:
                lines.append("%s = regs[13]" % pc_cursor)
            lines.append("_t%s = index_of(unpack_from(\"<I\", mem, %s)[0])"
                         % (t, pc_cursor))
            addrs.append((pc_cursor, 0))
            lines.append("regs[13] = %s + 4" % pc_cursor)
            return Emitted(lines, addrs=tuple(addrs), nxt="_t%s" % t)
        lines.append("regs[13] = %s + 4" % cursor)
        return Emitted(lines, addrs=tuple(addrs))
    count = len(reglist) + (1 if ins.extra else 0)
    lines.append("_a%s_0 = regs[13] - %d" % (t, 4 * count))
    lines.append("regs[13] = _a%s_0" % t)
    cursor = "_a%s_0" % t
    store_regs = list(reglist) + ([14] if ins.extra else [])
    for j, r in enumerate(store_regs):
        if j:
            cursor = "_a%s_%d" % (t, j)
            lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
        lines.append("pack_into(\"<I\", mem, %s, regs[%d])" % (cursor, r))
        addrs.append((cursor, 1))
    return Emitted(lines, addrs=tuple(addrs))


def _emit(ins, idx, image):
    """Block-engine template for one instruction, or None (fallback)."""
    if ins is None:
        return None  # bl continuation halfword, never executed directly
    if isinstance(ins, TShiftImm):
        return _emit_shift_imm(ins, idx)
    if isinstance(ins, TAddSub):
        rd, rn, val = ins.rd, ins.rn, ins.value
        operand = "%d" % val if ins.imm else "regs[%d]" % val
        sign = "-" if ins.sub else "+"
        return Emitted(["regs[%d] = (regs[%d] %s %s) & 4294967295"
                        % (rd, rn, sign, operand)])
    if isinstance(ins, TMovCmpAddSubImm):
        rd, imm = ins.rd, ins.imm8
        if ins.op == "mov":
            return Emitted(["regs[%d] = %d" % (rd, imm)])
        if ins.op == "cmp":
            return Emitted(_cmp_lines("%d" % idx, "regs[%d]" % rd, "%d" % imm))
        sign = "+" if ins.op == "add" else "-"
        return Emitted(["regs[%d] = (regs[%d] %s %d) & 4294967295"
                        % (rd, rd, sign, imm)])
    if isinstance(ins, TAlu):
        return _emit_alu(ins, idx)
    if isinstance(ins, TLoadStoreImm):
        ea = "(regs[%d] + %d) & 4294967295" % (ins.rn, ins.offset)
        return emit_mem(ins.load, ins.width, False, ins.rd, ea, "_a%d" % idx)
    if isinstance(ins, TLoadStoreReg):
        ea = "(regs[%d] + regs[%d]) & 4294967295" % (ins.rn, ins.rm)
        return emit_mem(ins.load, ins.width, ins.signed, ins.rd, ea, "_a%d" % idx)
    if isinstance(ins, TLoadStoreSpRel):
        ea = "(regs[13] + %d) & 4294967295" % ins.offset
        return emit_mem(ins.load, 4, False, ins.rd, ea, "_a%d" % idx)
    if isinstance(ins, TAdjustSp):
        return Emitted(["regs[13] = (regs[13] + %d) & 4294967295" % ins.delta])
    if isinstance(ins, TPushPop):
        return _emit_pushpop(ins, idx)
    if isinstance(ins, TCondBranch):
        return Emitted([], nxt="%d" % ins.target_index(idx),
                       cond=COND_EXPR[ins.cond.name])
    if isinstance(ins, TBranch):
        return Emitted([], nxt="%d" % ins.target_index(idx))
    if isinstance(ins, TBranchLink):
        target = ins.target_index(idx)
        ret_addr = image.addr_of_index(idx) + 4
        return Emitted(["regs[14] = %d" % ret_addr], nxt="%d" % target)
    if isinstance(ins, TSwi):
        if ins.imm8 == 0:
            return Emitted(["exit_code[0] = regs[0]"], nxt="-1")
        if ins.imm8 == 1:
            return Emitted(["console.append(regs[0] & 255)"])
        return None
    return None
