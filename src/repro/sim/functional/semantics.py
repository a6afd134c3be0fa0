"""One instruction semantics for the three functional simulators.

ARM, Thumb and FITS are three encodings of one operation set: the
simulators (:mod:`~repro.sim.functional.arm_sim`,
:mod:`~repro.sim.functional.thumb_sim`,
:mod:`~repro.sim.functional.fits_sim`) are decoders that turn an image
into one operation per static instruction index, and the engine
(:mod:`~repro.sim.functional.engine`) executes the operations.

Every operation defines its behaviour in two forms, side by side:

* ``closure(p, idx, nxt)`` builds the Python closure the engine's
  interpreter calls for cold entries and block terminators.  It mutates
  the machine state of the :class:`~repro.sim.functional.engine.Program`
  ``p`` and returns the next instruction index (``nxt`` on the
  sequential path, ``-1`` at exit).
* ``template(idx)`` returns the :class:`Emitted` source the engine
  inlines into a superblock, or None to end the block at the closure.

The two forms must agree bit for bit.  ``tests/test_engine.py`` and
``tests/test_differential_fuzz.py`` hold them to it through the engine
oracles of ``tests/oracles.py`` (every entry interpreted, every entry
compiled) and a closure-only run.  Operand expressions are atomic (a
literal, a ``regs[i]`` read, a call or a parenthesized expression), so
a template may splice one anywhere.  Registers hold unsigned 32-bit
values; every result is masked back into that range.

To add an operation: write its class here with both forms next to each
other, decode into it from each ISA that has it, and run those tests.
"""

import bisect
import operator
import struct

from repro.isa.arm.model import DPOp, ShiftType

M32 = 0xFFFFFFFF

#: Trap numbers: exit with r0 as the exit code, and write r0's low byte
#: to the console.
SWI_EXIT = 0
SWI_PUTC = 1


class SimulationError(Exception):
    """Raised on bad control flow, memory faults, or instruction limits."""


def where(image, isa, idx):
    """``<isa> instruction index <idx> (<function>)``, for error messages."""
    names, unit = getattr(image, "func_of_index", None), idx
    if names is None and hasattr(image, "unit_start"):
        # FITS: the function of the ARM instruction the halfword encodes
        names = image.arm_image.func_of_index
        unit = bisect.bisect_right(image.unit_start, idx) - 1
    if names is not None:
        func = names[unit] if 0 <= unit < len(names) else None
    else:
        # Thumb: the nearest function symbol at or below the address
        addr = image.addr_of_index(idx)
        starts = [(a, name) for name, a in image.symbols.items() if a <= addr]
        func = max(starts)[1] if starts else None
    return "%s instruction index %d%s" % (
        isa, idx, " (%s)" % func if func is not None else "")


def jump_resolver(image, isa):
    """The one helper every computed jump goes through.

    ``index_of(addr, idx)`` maps the code address ``addr``, computed by
    the instruction at ``idx``, to its static index; an address outside
    the code raises :class:`SimulationError`.
    """
    index_of_addr = image.index_of_addr

    def index_of(addr, idx):
        try:
            return index_of_addr(addr)
        except ValueError as exc:
            raise SimulationError("bad control flow at %s: %s"
                                  % (where(image, isa, idx), exc)) from None

    return index_of


def dyn_shift(value, stype, amount):
    """Register-amount barrel shift (the ARM register-specified rules).

    ``amount`` is the already-masked 0..255 shift register value.
    """
    if stype is ShiftType.LSL:
        return (value << amount) & M32 if amount < 32 else 0
    if stype is ShiftType.LSR:
        return value >> amount if amount < 32 else 0
    if stype is ShiftType.ASR:
        if amount >= 32:
            return M32 if value & 0x80000000 else 0
        if value & 0x80000000:
            return (value >> amount) | (((1 << amount) - 1) << (32 - amount))
        return value >> amount
    amount &= 31
    if amount == 0:
        return value
    return ((value >> amount) | (value << (32 - amount))) & M32


#: Names visible to generated block code, beyond the factory arguments.
EXEC_GLOBALS = {
    "dyn_shift": dyn_shift,
    "LSL": ShiftType.LSL,
    "LSR": ShiftType.LSR,
    "ASR": ShiftType.ASR,
    "ROR": ShiftType.ROR,
}


class Emitted:
    """One instruction's codegen template output.

    Attributes:
        lines: statement strings (one statement per entry, no newlines).
        addrs: ``(temp_name, is_store)`` pairs, in access order, naming
            temporaries assigned by ``lines`` that hold data-memory
            addresses to be appended to the trace.
        nxt: for control-transferring instructions, the expression for
            the next instruction index (evaluated after ``lines``);
            None for always-sequential instructions.  When ``cond`` is
            set it must be a *static* index literal.
        cond: for conditional branches, the source expression deciding
            whether the transfer to ``nxt`` is taken; when it is false
            the instruction falls through sequentially and the
            superblock continues past it.
        taken_lines: statements executed only on the taken path of a
            conditional transfer (e.g. a conditional ``bl``'s link-
            register write), before the run boundary is recorded.
    """

    __slots__ = ("lines", "addrs", "nxt", "cond", "taken_lines")

    def __init__(self, lines, addrs=(), nxt=None, cond=None, taken_lines=()):
        self.lines = lines
        self.addrs = addrs
        self.nxt = nxt
        self.cond = cond
        self.taken_lines = taken_lines


# ----------------------------------------------------------------------
# operands: an immediate, a register, or a register shifted by a
# constant or by a register


class Imm:
    """A 32-bit immediate (stored masked, so negative deltas wrap)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value & M32

    def reader(self, regs):
        return lambda value=self.value: value

    def expr(self):
        return "%d" % self.value


class Reg:
    """A register's value."""

    __slots__ = ("r",)

    def __init__(self, r):
        self.r = r

    def reader(self, regs):
        return lambda regs=regs, r=self.r: regs[r]

    def expr(self):
        return "regs[%d]" % self.r


class ShiftImm:
    """``r`` shifted by a constant under ARM's immediate-shift rules:
    LSR and ASR #0 mean #32, and ROR #0 (RRX) is rejected at decode."""

    __slots__ = ("r", "stype", "amount")

    def __init__(self, r, stype, amount):
        if stype is ShiftType.ROR and amount == 0:
            raise NotImplementedError("RRX unsupported")
        self.r = r
        self.stype = stype
        self.amount = amount

    def reader(self, regs):
        r, n = self.r, self.amount
        if self.stype is ShiftType.LSL:
            return lambda regs=regs, r=r, n=n: (regs[r] << n) & M32
        if self.stype is ShiftType.LSR:
            return (lambda regs=regs, r=r, n=n: regs[r] >> n) if n else (lambda: 0)
        if self.stype is ShiftType.ASR:
            if n == 0:
                return lambda regs=regs, r=r: M32 if regs[r] & 0x80000000 else 0
            fill = ((1 << n) - 1) << (32 - n)
            return lambda regs=regs, r=r, n=n, fill=fill: (
                (regs[r] >> n) | fill if regs[r] & 0x80000000 else regs[r] >> n)
        return lambda regs=regs, r=r, n=n: (
            ((regs[r] >> n) | (regs[r] << (32 - n))) & M32)

    def expr(self):
        r, n = self.r, self.amount
        if self.stype is ShiftType.LSL:
            if n == 0:
                return "regs[%d]" % r
            return "((regs[%d] << %d) & 4294967295)" % (r, n)
        if self.stype is ShiftType.LSR:
            return "(regs[%d] >> %d)" % (r, n) if n else "0"
        if self.stype is ShiftType.ASR:
            if n == 0:
                return "(4294967295 if regs[%d] & 2147483648 else 0)" % r
            fill = ((1 << n) - 1) << (32 - n)
            return ("(((regs[%d] >> %d) | %d) if regs[%d] & 2147483648"
                    " else (regs[%d] >> %d))" % (r, n, fill, r, r, n))
        return ("(((regs[%d] >> %d) | (regs[%d] << %d)) & 4294967295)"
                % (r, n, r, 32 - n))


class ShiftReg:
    """``r`` shifted by the low byte of register ``rs`` (:func:`dyn_shift`)."""

    __slots__ = ("r", "stype", "rs")

    def __init__(self, r, stype, rs):
        self.r = r
        self.stype = stype
        self.rs = rs

    def reader(self, regs):
        return lambda regs=regs, r=self.r, stype=self.stype, rs=self.rs: (
            dyn_shift(regs[r], stype, regs[rs] & 0xFF))

    def expr(self):
        return ("dyn_shift(regs[%d], %s, regs[%d] & 255)"
                % (self.r, self.stype.name, self.rs))


def const_shift(r, stype, amount):
    """``r`` shifted by the constant ``amount`` under the register-amount
    rules of :func:`dyn_shift`, as an operand of the forms above."""
    if stype is ShiftType.ROR:
        amount &= 31
    if amount == 0:
        return Reg(r)
    if amount < 32:
        return ShiftImm(r, stype, amount)
    if stype is ShiftType.LSL:
        return Imm(0)
    return ShiftImm(r, stype, 0)  # LSR/ASR #0 encode #32


# ----------------------------------------------------------------------
# operations


#: Data-processing results as source over ``%(a)s`` (the first register
#: operand) and ``%(b)s`` (the operand).
ALU_EXPR = {
    DPOp.AND: "%(a)s & %(b)s",
    DPOp.EOR: "%(a)s ^ %(b)s",
    DPOp.SUB: "(%(a)s - %(b)s) & 4294967295",
    DPOp.RSB: "(%(b)s - %(a)s) & 4294967295",
    DPOp.ADD: "(%(a)s + %(b)s) & 4294967295",
    DPOp.ORR: "%(a)s | %(b)s",
    DPOp.BIC: "%(a)s & ~%(b)s & 4294967295",
    DPOp.MOV: "%(b)s",
    DPOp.MVN: "%(b)s ^ 4294967295",
}

#: The same results as functions of ``(a, b)``, for the closures.
ALU_FN = {
    DPOp.AND: operator.and_,
    DPOp.EOR: operator.xor,
    DPOp.SUB: lambda a, b: (a - b) & M32,
    DPOp.RSB: lambda a, b: (b - a) & M32,
    DPOp.ADD: lambda a, b: (a + b) & M32,
    DPOp.ORR: operator.or_,
    DPOp.BIC: lambda a, b: a & ~b & M32,
    DPOp.MVN: lambda a, b: b ^ M32,
}


class Alu:
    """``rd = rn <op> operand`` for the ops of :data:`ALU_EXPR` (MOV and
    MVN ignore ``rn``).  Flags are untouched."""

    __slots__ = ("op", "rd", "rn", "operand")

    def __init__(self, op, rd, rn, operand):
        self.op = op
        self.rd = rd
        self.rn = rn
        self.operand = operand

    def closure(self, p, idx, nxt):
        regs, rd, rn, operand = p.regs, self.rd, self.rn, self.operand
        form = type(operand)
        if self.op is DPOp.MOV:
            if form is Imm:
                def h(regs=regs, rd=rd, b=operand.value, nxt=nxt):
                    regs[rd] = b
                    return nxt
            elif form is Reg:
                def h(regs=regs, rd=rd, rm=operand.r, nxt=nxt):
                    regs[rd] = regs[rm]
                    return nxt
            else:
                def h(regs=regs, rd=rd, ev=operand.reader(regs), nxt=nxt):
                    regs[rd] = ev()
                    return nxt
            return h
        fn = ALU_FN[self.op]
        if form is Imm:
            def h(regs=regs, rd=rd, rn=rn, fn=fn, b=operand.value, nxt=nxt):
                regs[rd] = fn(regs[rn], b)
                return nxt
        elif form is Reg:
            def h(regs=regs, rd=rd, rn=rn, fn=fn, rm=operand.r, nxt=nxt):
                regs[rd] = fn(regs[rn], regs[rm])
                return nxt
        else:
            def h(regs=regs, rd=rd, rn=rn, fn=fn, ev=operand.reader(regs), nxt=nxt):
                regs[rd] = fn(regs[rn], ev())
                return nxt
        return h

    def template(self, idx):
        return Emitted(["regs[%d] = %s" % (self.rd, ALU_EXPR[self.op] % {
            "a": "regs[%d]" % self.rn, "b": self.operand.expr()})])


class Mul:
    """``rd = rm * rs (+ acc)``, low 32 bits; ``acc`` is a register or None."""

    __slots__ = ("rd", "rm", "rs", "acc")

    def __init__(self, rd, rm, rs, acc=None):
        self.rd = rd
        self.rm = rm
        self.rs = rs
        self.acc = acc

    def closure(self, p, idx, nxt):
        if self.acc is None:
            def h(regs=p.regs, rd=self.rd, rm=self.rm, rs=self.rs, nxt=nxt):
                regs[rd] = (regs[rm] * regs[rs]) & M32
                return nxt
        else:
            def h(regs=p.regs, rd=self.rd, rm=self.rm, rs=self.rs, acc=self.acc,
                  nxt=nxt):
                regs[rd] = (regs[rm] * regs[rs] + regs[acc]) & M32
                return nxt
        return h

    def template(self, idx):
        product = "regs[%d] * regs[%d]" % (self.rm, self.rs)
        if self.acc is not None:
            product += " + regs[%d]" % self.acc
        return Emitted(["regs[%d] = (%s) & 4294967295" % (self.rd, product)])


def _set_cmp(flags, a, b):
    r = (a - b) & M32
    flags[0] = r >= 0x80000000
    flags[1] = r == 0
    flags[2] = a >= b
    flags[3] = ((a ^ b) & (a ^ r) & 0x80000000) != 0


def _set_cmn(flags, a, b):
    total = a + b
    r = total & M32
    flags[0] = r >= 0x80000000
    flags[1] = r == 0
    flags[2] = total > M32
    flags[3] = (~(a ^ b) & (a ^ r) & 0x80000000) != 0


def _set_tst(flags, a, b):
    r = a & b
    flags[0] = r >= 0x80000000
    flags[1] = r == 0


def _set_teq(flags, a, b):
    r = a ^ b
    flags[0] = r >= 0x80000000
    flags[1] = r == 0


class Compare:
    """``flags = rn <op> operand`` for CMP, CMN, TST and TEQ (NZCV for
    the arithmetic two, NZ for the logical two)."""

    __slots__ = ("op", "rn", "operand")

    SETTERS = {DPOp.CMP: _set_cmp, DPOp.CMN: _set_cmn,
               DPOp.TST: _set_tst, DPOp.TEQ: _set_teq}

    def __init__(self, op, rn, operand):
        self.op = op
        self.rn = rn
        self.operand = operand

    def closure(self, p, idx, nxt):
        regs, flags, rn, operand = p.regs, p.flags, self.rn, self.operand
        setter = self.SETTERS[self.op]
        if type(operand) is Imm:
            def h(regs=regs, flags=flags, rn=rn, setter=setter, b=operand.value,
                  nxt=nxt):
                setter(flags, regs[rn], b)
                return nxt
        elif type(operand) is Reg:
            def h(regs=regs, flags=flags, rn=rn, setter=setter, rm=operand.r,
                  nxt=nxt):
                setter(flags, regs[rn], regs[rm])
                return nxt
        else:
            def h(regs=regs, flags=flags, rn=rn, setter=setter,
                  ev=operand.reader(regs), nxt=nxt):
                setter(flags, regs[rn], ev())
                return nxt
        return h

    def template(self, idx):
        x, y, r, tot = "_x%d" % idx, "_y%d" % idx, "_r%d" % idx, "_t%d" % idx
        op = self.op
        if op is DPOp.CMP:
            lines = ["%s = regs[%d]" % (x, self.rn),
                     "%s = %s" % (y, self.operand.expr()),
                     "%s = (%s - %s) & 4294967295" % (r, x, y)]
            carry = "%s >= %s" % (x, y)
            overflow = "((%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r)
        elif op is DPOp.CMN:
            lines = ["%s = regs[%d]" % (x, self.rn),
                     "%s = %s" % (y, self.operand.expr()),
                     "%s = %s + %s" % (tot, x, y),
                     "%s = %s & 4294967295" % (r, tot)]
            carry = "%s > 4294967295" % tot
            overflow = "(~(%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r)
        else:
            logic = "&" if op is DPOp.TST else "^"
            lines = ["%s = regs[%d] %s %s"
                     % (r, self.rn, logic, self.operand.expr())]
            carry = overflow = None
        lines += ["flags[0] = %s >= 2147483648" % r, "flags[1] = %s == 0" % r]
        if carry is not None:
            lines += ["flags[2] = %s" % carry, "flags[3] = %s" % overflow]
        return Emitted(lines)


_u32 = struct.Struct("<I").unpack_from
_u16 = struct.Struct("<H").unpack_from
_s16 = struct.Struct("<h").unpack_from
_p32 = struct.Struct("<I").pack_into
_p16 = struct.Struct("<H").pack_into

#: ``(width, signed)`` → ``load(mem, addr)`` for the closures.
LOADS = {
    (4, False): lambda mem, a: _u32(mem, a)[0],
    (2, False): lambda mem, a: _u16(mem, a)[0],
    (2, True): lambda mem, a: _s16(mem, a)[0] & M32,
    (1, False): bytearray.__getitem__,
    (1, True): lambda mem, a: mem[a] | 0xFFFFFF00 if mem[a] & 0x80 else mem[a],
}

#: ``width`` → ``store(mem, addr, value)`` for the closures.
STORES = {
    4: _p32,
    2: lambda mem, a, v: _p16(mem, a, v & 0xFFFF),
    1: lambda mem, a, v: mem.__setitem__(a, v & 0xFF),
}


class Mem:
    """One load or store of ``width`` bytes at ``base + offset``.

    ``offset`` is an :class:`Imm`, a :class:`Reg` or a register shifted
    left by a constant (:class:`ShiftImm` LSL).  Narrow loads zero- or
    sign-extend; narrow stores write the low bytes.  The address enters
    the trace before the access.
    """

    __slots__ = ("load", "width", "signed", "rd", "base", "offset")

    def __init__(self, load, width, signed, rd, base, offset):
        self.load = load
        self.width = width
        self.signed = signed
        self.rd = rd
        self.base = base
        self.offset = offset

    def closure(self, p, idx, nxt):
        regs, mem, record = p.regs, p.mem, p.trace.add_mem
        rd, rb = self.rd, self.base
        if type(self.offset) is Imm:
            off, ev = self.offset.value, None
        else:
            off, ev = None, self.offset.reader(regs)
        if self.load:
            load = LOADS[self.width, self.signed]
            if ev is None:
                def h(regs=regs, mem=mem, record=record, load=load, rd=rd, rb=rb,
                      off=off, nxt=nxt):
                    addr = (regs[rb] + off) & M32
                    record(addr + addr)
                    regs[rd] = load(mem, addr)
                    return nxt
            else:
                def h(regs=regs, mem=mem, record=record, load=load, rd=rd, rb=rb,
                      ev=ev, nxt=nxt):
                    addr = (regs[rb] + ev()) & M32
                    record(addr + addr)
                    regs[rd] = load(mem, addr)
                    return nxt
            return h
        store = STORES[self.width]
        if ev is None:
            def h(regs=regs, mem=mem, record=record, store=store, rd=rd, rb=rb,
                  off=off, nxt=nxt):
                addr = (regs[rb] + off) & M32
                record(addr + addr + 1)
                store(mem, addr, regs[rd])
                return nxt
        else:
            def h(regs=regs, mem=mem, record=record, store=store, rd=rd, rb=rb,
                  ev=ev, nxt=nxt):
                addr = (regs[rb] + ev()) & M32
                record(addr + addr + 1)
                store(mem, addr, regs[rd])
                return nxt
        return h

    def template(self, idx):
        rd, temp, width = self.rd, "_a%d" % idx, self.width
        lines = ["%s = (regs[%d] + %s) & 4294967295"
                 % (temp, self.base, self.offset.expr())]
        if self.load:
            if width == 4:
                lines.append("regs[%d] = unpack_from(\"<I\", mem, %s)[0]" % (rd, temp))
            elif width == 2 and self.signed:
                lines.append("regs[%d] = unpack_from(\"<h\", mem, %s)[0] & 4294967295"
                             % (rd, temp))
            elif width == 2:
                lines.append("regs[%d] = unpack_from(\"<H\", mem, %s)[0]" % (rd, temp))
            elif self.signed:
                lines.append("_v%s = mem[%s]" % (temp, temp))
                lines.append("regs[%d] = _v%s | 4294967040 if _v%s & 128 else _v%s"
                             % (rd, temp, temp, temp))
            else:
                lines.append("regs[%d] = mem[%s]" % (rd, temp))
            return Emitted(lines, addrs=((temp, 0),))
        if width == 4:
            lines.append("pack_into(\"<I\", mem, %s, regs[%d])" % (temp, rd))
        elif width == 2:
            lines.append("pack_into(\"<H\", mem, %s, regs[%d] & 65535)" % (temp, rd))
        else:
            lines.append("mem[%s] = regs[%d] & 255" % (temp, rd))
        return Emitted(lines, addrs=((temp, 1),))


class Multi:
    """Word block transfer at ``base`` with write-back.

    A load pops ascending from ``base`` into ``reglist``, then (when ``pc``)
    one more word as the code address to jump to; the base is written
    back last.  A store pushes ``reglist`` descending: the base drops by
    the block size first, then the words are stored ascending.
    """

    __slots__ = ("load", "base", "reglist", "pc")

    def __init__(self, load, base, reglist, pc=False):
        self.load = load
        self.base = base
        self.reglist = tuple(reglist)
        self.pc = pc

    def closure(self, p, idx, nxt):
        regs, mem, record = p.regs, p.mem, p.trace.add_mem
        if self.load:
            def h(regs=regs, mem=mem, record=record, rn=self.base,
                  reglist=self.reglist, loads_pc=self.pc, index_of=p.index_of,
                  idx=idx, nxt=nxt):
                addr = regs[rn]
                for r in reglist:
                    record(addr + addr)
                    regs[r] = _u32(mem, addr)[0]
                    addr += 4
                target = nxt
                if loads_pc:
                    record(addr + addr)
                    target = index_of(_u32(mem, addr)[0], idx)
                    addr += 4
                regs[rn] = addr
                return target
            return h

        def h(regs=regs, mem=mem, record=record, rn=self.base,
              reglist=self.reglist, size=4 * len(self.reglist), nxt=nxt):
            addr = regs[rn] - size
            regs[rn] = addr
            for r in reglist:
                record(addr + addr + 1)
                _p32(mem, addr, regs[r])
                addr += 4
            return nxt
        return h

    def template(self, idx):
        rn, reglist = self.base, self.reglist
        lines, addrs = [], []
        cursors = ["_a%d_%d" % (idx, j)
                   for j in range(len(reglist) + (1 if self.pc else 0))]
        if self.load:
            lines.append("%s = regs[%d]" % (cursors[0], rn))
        else:
            lines.append("%s = regs[%d] - %d" % (cursors[0], rn, 4 * len(reglist)))
            lines.append("regs[%d] = %s" % (rn, cursors[0]))
        for j, r in enumerate(reglist):
            if j:
                lines.append("%s = %s + 4" % (cursors[j], cursors[j - 1]))
            if self.load:
                lines.append("regs[%d] = unpack_from(\"<I\", mem, %s)[0]"
                             % (r, cursors[j]))
            else:
                lines.append("pack_into(\"<I\", mem, %s, regs[%d])"
                             % (cursors[j], r))
            addrs.append((cursors[j], 0 if self.load else 1))
        if not self.load:
            return Emitted(lines, addrs=tuple(addrs))
        nxt = None
        if self.pc:
            if reglist:
                lines.append("%s = %s + 4" % (cursors[-1], cursors[-2]))
            lines.append("_t%d = index_of(unpack_from(\"<I\", mem, %s)[0], %d)"
                         % (idx, cursors[-1], idx))
            addrs.append((cursors[-1], 0))
            nxt = "_t%d" % idx
        lines.append("regs[%d] = %s + 4" % (rn, cursors[-1]))
        return Emitted(lines, addrs=tuple(addrs), nxt=nxt)


#: Condition codes as source over the NZCV ``flags`` list, keyed by
#: name so every ISA's condition enum shares them.  AL is absent: an
#: always-taken branch carries no condition.
COND_EXPR = {
    "EQ": "(flags[1])",
    "NE": "(not flags[1])",
    "CS": "(flags[2])",
    "CC": "(not flags[2])",
    "MI": "(flags[0])",
    "PL": "(not flags[0])",
    "VS": "(flags[3])",
    "VC": "(not flags[3])",
    "HI": "(flags[2] and not flags[1])",
    "LS": "(not flags[2] or flags[1])",
    "GE": "(flags[0] == flags[3])",
    "LT": "(flags[0] != flags[3])",
    "GT": "(not flags[1] and flags[0] == flags[3])",
    "LE": "(flags[1] or flags[0] != flags[3])",
}

#: The same conditions as functions of ``flags``, for the closures.
COND_TEST = {name: eval("lambda flags: " + expr)  # noqa: S307 - constant
             for name, expr in COND_EXPR.items()}


class Branch:
    """Jump to the static index ``target`` when ``cond`` holds (a
    condition enum member; None or AL: always).  A call also writes the
    code address ``return_addr`` to lr, on the taken path only."""

    __slots__ = ("target", "cond", "return_addr")

    def __init__(self, target, cond=None, return_addr=None):
        self.target = target
        self.cond = None if cond is None or cond.name == "AL" else cond.name
        self.return_addr = return_addr

    def closure(self, p, idx, nxt):
        target, ret = self.target, self.return_addr
        if self.cond is None:
            if ret is None:
                return lambda target=target: target

            def h(regs=p.regs, target=target, ret=ret):
                regs[14] = ret
                return target
            return h
        test = COND_TEST[self.cond]
        if ret is None:
            return lambda flags=p.flags, test=test, target=target, nxt=nxt: (
                target if test(flags) else nxt)

        def h(regs=p.regs, flags=p.flags, test=test, target=target, ret=ret,
              nxt=nxt):
            if test(flags):
                regs[14] = ret
                return target
            return nxt
        return h

    def template(self, idx):
        link = () if self.return_addr is None else (
            "regs[14] = %d" % self.return_addr,)
        if self.cond is None:
            return Emitted(list(link), nxt="%d" % self.target)
        return Emitted([], nxt="%d" % self.target, cond=COND_EXPR[self.cond],
                       taken_lines=link)


class Jump:
    """Jump to the code address ``operand`` evaluates to."""

    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def closure(self, p, idx, nxt):
        return lambda ev=self.operand.reader(p.regs), index_of=p.index_of, idx=idx: (
            index_of(ev(), idx))

    def template(self, idx):
        return Emitted([], nxt="index_of(%s, %d)" % (self.operand.expr(), idx))


class Trap:
    """Software interrupt: exit (:data:`SWI_EXIT`) or console putc
    (:data:`SWI_PUTC`); any other number fails at decode."""

    __slots__ = ("number",)

    def __init__(self, number):
        if number not in (SWI_EXIT, SWI_PUTC):
            raise SimulationError("unknown SWI #%d" % number)
        self.number = number

    def closure(self, p, idx, nxt):
        if self.number == SWI_EXIT:
            def h(regs=p.regs, exit_code=p.exit_code):
                exit_code[0] = regs[0]
                return -1
            return h

        def h(regs=p.regs, console=p.trace.console, nxt=nxt):
            console.append(regs[0] & 0xFF)
            return nxt
        return h

    def template(self, idx):
        if self.number == SWI_EXIT:
            return Emitted(["exit_code[0] = regs[0]"], nxt="-1")
        return Emitted(["console.append(regs[0] & 255)"])


class Invalid:
    """An index control must never reach (a Thumb BL's second halfword,
    a halfword inside a FITS atom): executing it raises."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def closure(self, p, idx, nxt):
        def h(image=p.image, isa=p.isa, idx=idx, reason=self.reason):
            raise SimulationError("bad control flow at %s: %s"
                                  % (where(image, isa, idx), reason))
        return h

    def template(self, idx):
        return None  # the block ends at the closure, which raises
