"""Functional FITS simulator.

Executes a translated :class:`~repro.core.translator.FitsImage` through
the synthesized decoder configuration.  At build time every halfword is
(a) re-decoded through the codec and checked against the translator's
record — the encoding must be honest — and (b) folded into *atoms*: a
run of ``ext``/``extr`` prefixes plus their consumer executes as one
unit, exactly like a prefixed instruction in hardware.

Register values use ARM numbering internally (renaming is an encoding
concern); lr holds FITS byte addresses, so saved return addresses flow
through memory and back into ``ret`` unchanged.
"""

import struct

from repro.isa.arm.model import Cond, DPOp, ShiftType
from repro.isa.fits.spec import OPRD_DICT, OPRD_RAW, OPRD_REG
from repro.isa.fits.codec import decode_fits
from repro.obs import core as obs
from repro.sim.functional import engine
from repro.sim.functional.engine import (
    Emitted,
    SimulationError,
    cond_expr,
    dyn_shift as _shift,
    emit_mem,
)
from repro.sim.functional.trace import TraceBuilder, publish_result
from repro.sim.functional.arm_sim import _cond_checker

M32 = 0xFFFFFFFF


class FitsSimulator:
    """Executes a FITS image to completion (exit SWI)."""

    def __init__(self, image, max_instructions=400_000_000, verify_decode=True):
        self.image = image
        self.max_instructions = max_instructions
        self.verify_decode = verify_decode

    def run(self):
        if not obs.enabled:
            return self._run()
        with obs.span("stage.simulate", isa="fits", image=self.image.name):
            result = self._run()
        publish_result("sim.fits", result)
        return result

    def _run(self):
        image = self.image
        if self.verify_decode:
            for half, rec in zip(image.halfwords, image.records):
                back = decode_fits(image.isa, half)
                if back != rec:
                    raise SimulationError(
                        "decoder disagreement: %r decodes to %r" % (rec, back)
                    )
        program = build_program(image)
        return engine.execute(program, self.max_instructions)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    regs = [0] * 16
    regs[13] = image.stack_top
    mem = image.initial_memory()
    flags = [False, False, False, False]
    trace = TraceBuilder()
    exit_code = [None]
    handlers, seq_next = _compile(image, regs, mem, flags, trace, exit_code)
    atom_at = {atom.start: atom for atom in _atoms(image)}
    return engine.Program(
        image=image,
        isa="fits",
        handlers=handlers,
        regs=regs,
        mem=mem,
        flags=flags,
        trace=trace,
        exit_code=exit_code,
        seq_next=seq_next,
        emit=lambda idx: _emit_fits(image, atom_at.get(idx), idx),
    )


def _sign_extend(value, bits):
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


class _Atom:
    __slots__ = ("start", "length", "consumer", "ext_imm", "ext_imm_count",
                 "ext_regs", "ext_reg_count")

    def __init__(self, start):
        self.start = start
        self.length = 0
        self.consumer = None
        self.ext_imm = 0
        self.ext_imm_count = 0
        self.ext_regs = 0
        self.ext_reg_count = 0


def _atoms(image):
    out = []
    i = 0
    records = image.records
    while i < len(records):
        atom = _Atom(i)
        while records[i].spec.kind == "ext":
            if records[i].spec.params["mode"] == "imm":
                atom.ext_imm = (atom.ext_imm << image.isa.wide_width) | records[i].fields["value"]
                atom.ext_imm_count += 1
            else:
                atom.ext_regs |= records[i].fields["value"]
                atom.ext_reg_count += 1
            i += 1
            if i >= len(records):
                raise SimulationError("trailing ext prefix with no consumer")
        atom.consumer = records[i]
        i += 1
        atom.length = i - atom.start
        out.append(atom)
    return out


DP_EVAL = {
    DPOp.AND: lambda a, b: a & b,
    DPOp.EOR: lambda a, b: a ^ b,
    DPOp.SUB: lambda a, b: (a - b) & M32,
    DPOp.RSB: lambda a, b: (b - a) & M32,
    DPOp.ADD: lambda a, b: (a + b) & M32,
    DPOp.ORR: lambda a, b: a | b,
    DPOp.BIC: lambda a, b: a & ~b & M32,
}

COND_OF = {
    "eq": Cond.EQ,
}


def _reg_of(isa, atom, position, field_value):
    # k_reg == 3: the extr payload carries per-position high bits;
    # k_reg == 4: registers always fit their fields (the extr payload
    # is then a full source index, handled by the Operate2 kinds)
    idx = field_value
    if isa.k_reg == 3:
        idx |= ((atom.ext_regs >> position) & 1) << isa.k_reg
    try:
        return isa.arm_reg(idx)
    except KeyError:
        raise SimulationError("register index %d unmapped" % idx)


def _operate2_source(isa, atom, rc):
    """Source register of an Operate2 compute op (extr-source form)."""
    if isa.k_reg == 4 and atom.ext_reg_count:
        return isa.arm_reg(atom.ext_regs)
    return rc


def _operand_value(isa, atom, spec, field_name, width, scale=1, signed=False):
    """Resolve an immediate-bearing field to its 32-bit value."""
    raw = atom.consumer.fields.get(field_name, 0)
    if spec.oprd_mode == OPRD_DICT:
        return isa.dict_lookup(spec.dict_category, raw)
    if atom.ext_imm_count:
        total_bits = width + atom.ext_imm_count * isa.wide_width
        combined = (atom.ext_imm << width) | (raw & ((1 << width) - 1))
        if signed:
            return _sign_extend(combined, total_bits)
        return combined & M32
    if signed:
        return raw  # already sign-decoded by the codec
    return raw * scale


def _compile(image, regs, mem, flags, trace, exit_code):
    isa = image.isa
    handlers = [None] * len(image.records)
    seq_next = [0] * len(image.records)
    mm = trace.add_mem
    unpack_from = struct.unpack_from
    pack_into = struct.pack_into

    def reg_of(atom, position, field_value):
        return _reg_of(isa, atom, position, field_value)

    def operate2_source(atom, rc):
        return _operate2_source(isa, atom, rc)

    def operand_value(atom, spec, field_name, width, scale=1, signed=False):
        return _operand_value(isa, atom, spec, field_name, width,
                              scale=scale, signed=signed)

    for atom in _atoms(image):
        spec = atom.consumer.spec
        kind = spec.kind
        fields = atom.consumer.fields
        nxt = atom.start + atom.length
        for k in range(atom.start, nxt):
            seq_next[k] = nxt
        h = _build_handler(
            image, isa, atom, spec, kind, fields, nxt, regs, mem, flags, trace,
            exit_code, reg_of, operand_value, operate2_source, mm,
            unpack_from, pack_into,
        )
        handlers[atom.start] = h
        for k in range(atom.start + 1, nxt):
            handlers[k] = _unreachable(k)
    return handlers, seq_next


def _unreachable(index):
    def h():
        raise SimulationError("jump into the middle of a prefixed atom at %d" % index)
    return h


def _build_handler(image, isa, atom, spec, kind, fields, nxt, regs, mem, flags, trace,
                   exit_code, reg_of, operand_value, operate2_source, mm,
                   unpack_from, pack_into):
    layout = dict(isa.field_layout(spec))

    if kind in ("shift2i", "shift2r", "mul2"):
        rc = reg_of(atom, 0, fields["rc"])
        src = operate2_source(atom, rc)
        if kind == "shift2i":
            amount = fields["value"]
            stype = spec.params["shift"]

            def h():
                regs[rc] = _shift(regs[src], stype, amount)
                return nxt
            return h
        if kind == "shift2r":
            rs = isa.arm_reg(fields["value"]) if isa.k_reg == 4 else reg_of(atom, 2, fields["value"])
            stype = spec.params["shift"]

            def h():
                regs[rc] = _shift(regs[src], stype, regs[rs] & 0xFF)
                return nxt
            return h
        rm = isa.arm_reg(fields["value"]) if isa.k_reg == 4 else reg_of(atom, 2, fields["value"])

        def h():
            regs[rc] = (regs[src] * regs[rm]) & M32
            return nxt
        return h

    if kind == "memrx":
        load = spec.params["load"]
        width = spec.params["width"]
        signed = spec.params["signed"]
        shift = spec.params["shift"]
        rd = reg_of(atom, 0, fields["rd"])
        rb = reg_of(atom, 1, fields["rb"])
        if not atom.ext_reg_count:
            raise SimulationError("memrx without its extr index prefix")
        rm = isa.arm_reg(atom.ext_regs)

        def ea():
            return (regs[rb] + ((regs[rm] << shift) & M32)) & M32

        return _mem_handler(load, width, signed, rd, ea, nxt, regs, mem, mm,
                            unpack_from, pack_into)

    if kind in ("dp3", "mov2", "shifti", "shiftr", "mul"):
        rc = reg_of(atom, 0, fields["rc"])
        ra = reg_of(atom, 1, fields["ra"])
        if kind == "mov2":
            def h():
                regs[rc] = regs[ra]
                return nxt
            return h
        if kind == "mul":
            oprd = reg_of(atom, 2, fields["oprd"])

            def h():
                regs[rc] = (regs[ra] * regs[oprd]) & M32
                return nxt
            return h
        if kind == "shiftr":
            oprd = reg_of(atom, 2, fields["oprd"])
            stype = spec.params["shift"]

            def h():
                amount = regs[oprd] & 0xFF
                regs[rc] = _shift(regs[ra], stype, amount)
                return nxt
            return h
        if kind == "shifti":
            amount = operand_value(atom, spec, "oprd", layout["oprd"])
            stype = spec.params["shift"]

            def h():
                regs[rc] = _shift(regs[ra], stype, amount)
                return nxt
            return h
        # dp3
        op = spec.params["op"]
        fn = DP_EVAL[op]
        if spec.params["mode"] == "reg":
            oprd = reg_of(atom, 2, fields["oprd"])

            def h():
                regs[rc] = fn(regs[ra], regs[oprd])
                return nxt
            return h
        value = operand_value(atom, spec, "oprd", layout["oprd"]) & M32

        def h():
            regs[rc] = fn(regs[ra], value)
            return nxt
        return h

    if kind in ("dp2", "movi", "mvni"):
        rc = reg_of(atom, 0, fields["rc"])
        if kind == "dp2" and spec.oprd_mode == OPRD_REG:
            src = operate2_source(atom, rc)
            rm = isa.arm_reg(fields["value"]) if isa.k_reg == 4 else reg_of(atom, 2, fields["value"])
            fn = DP_EVAL[spec.params["op"]]

            def h():
                regs[rc] = fn(regs[src], regs[rm])
                return nxt
            return h
        value = operand_value(atom, spec, "value", layout["value"]) & M32
        if kind == "movi":
            def h():
                regs[rc] = value
                return nxt
            return h
        if kind == "mvni":
            inv = value ^ M32

            def h():
                regs[rc] = inv
                return nxt
            return h
        fn = DP_EVAL[spec.params["op"]]
        src = operate2_source(atom, rc)

        def h():
            regs[rc] = fn(regs[src], value)
            return nxt
        return h

    if kind == "cmp2":
        ra = reg_of(atom, 0, fields["ra"])
        op = spec.params["op"]
        if spec.params["mode"] == "reg":
            rm = reg_of(atom, 2, fields["value"])

            def get_b():
                return regs[rm]
        else:
            value = operand_value(atom, spec, "value", layout["value"]) & M32

            def get_b():
                return value

        if op is DPOp.CMP:
            def h():
                a = regs[ra]
                b = get_b()
                r = (a - b) & M32
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                flags[2] = a >= b
                flags[3] = bool((a ^ b) & (a ^ r) & 0x80000000)
                return nxt
            return h
        if op is DPOp.CMN:
            def h():
                a = regs[ra]
                b = get_b()
                total = a + b
                r = total & M32
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                flags[2] = total > M32
                flags[3] = bool(~(a ^ b) & (a ^ r) & 0x80000000)
                return nxt
            return h
        if op is DPOp.TST:
            def h():
                r = regs[ra] & get_b()
                flags[0] = bool(r & 0x80000000)
                flags[1] = r == 0
                return nxt
            return h

        def h():  # TEQ
            r = regs[ra] ^ get_b()
            flags[0] = bool(r & 0x80000000)
            flags[1] = r == 0
            return nxt
        return h

    if kind in ("mem", "memr", "memsp"):
        load = spec.params["load"]
        width = spec.params.get("width", 4)
        signed = spec.params.get("signed", False)
        if kind == "memsp":
            rd = reg_of(atom, 0, fields["rd"])
            base = 13
            offset = fields["imm"] * 4

            def ea():
                return (regs[base] + offset) & M32
        elif kind == "memr":
            rd = reg_of(atom, 0, fields["rd"])
            rb = reg_of(atom, 1, fields["rb"])
            rm = reg_of(atom, 2, fields["imm"])
            shift = spec.params["shift"]

            def ea():
                return (regs[rb] + ((regs[rm] << shift) & M32)) & M32
        else:
            rd = reg_of(atom, 0, fields["rd"])
            rb = reg_of(atom, 1, fields["rb"])
            if spec.oprd_mode == OPRD_DICT:
                offset = isa.dict_lookup("mem", fields["imm"])
            elif atom.ext_imm_count:
                total_bits = layout["imm"] + atom.ext_imm_count * isa.wide_width
                combined = (atom.ext_imm << layout["imm"]) | fields["imm"]
                offset = _sign_extend(combined, total_bits)
            else:
                offset = fields["imm"] * width

            def ea():
                return (regs[rb] + offset) & M32

        return _mem_handler(load, width, signed, rd, ea, nxt, regs, mem, mm,
                            unpack_from, pack_into)

    if kind == "spadj":
        value = operand_value(atom, spec, "value", layout["value"], signed=True)

        def h():
            regs[13] = (regs[13] + value) & M32
            return nxt
        return h

    if kind in ("ldm", "stm"):
        reglist = tuple(spec.params["reglist"])
        if kind == "ldm":
            index_of = image.index_of_addr
            loads_pc = 15 in reglist
            gprs = tuple(r for r in reglist if r != 15)

            def h():
                addr = regs[13]
                for r in gprs:
                    mm(addr + addr)
                    regs[r] = unpack_from("<I", mem, addr)[0]
                    addr += 4
                target = nxt
                if loads_pc:
                    mm(addr + addr)
                    target = index_of(unpack_from("<I", mem, addr)[0])
                    addr += 4
                regs[13] = addr
                return target
            return h

        def h():
            addr = regs[13] - 4 * len(reglist)
            regs[13] = addr
            for r in reglist:
                mm(addr + addr + 1)
                pack_into("<I", mem, addr, regs[r])
                addr += 4
            return nxt
        return h

    if kind == "b":
        disp = operand_value(atom, spec, "value", layout["value"], signed=True)
        target = nxt + disp
        check = _cond_checker(spec.params["cond"], flags)
        if check is None:
            def h():
                return target
            return h

        def h():
            return target if check() else nxt
        return h

    if kind == "bl":
        disp = operand_value(atom, spec, "value", layout["value"], signed=True)
        target = nxt + disp
        ret_addr = image.addr_of_index(nxt)

        def h():
            regs[14] = ret_addr
            return target
        return h

    if kind == "ret":
        index_of = image.index_of_addr

        def h():
            return index_of(regs[14])
        return h

    if kind == "swi":
        number = fields["value"]
        if number == 0:
            def h():
                exit_code[0] = regs[0]
                return -1
            return h
        if number == 1:
            def h():
                trace.console.append(regs[0] & 0xFF)
                return nxt
            return h
        raise SimulationError("unknown FITS SWI #%d" % number)

    raise SimulationError("cannot execute FITS kind %r" % kind)


def _mem_handler(load, width, signed, rd, ea, nxt, regs, mem, mm, unpack_from, pack_into):
    if load:
        if width == 4:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = unpack_from("<I", mem, addr)[0]
                return nxt
        elif width == 2 and signed:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = unpack_from("<h", mem, addr)[0] & M32
                return nxt
        elif width == 2:
            def h():
                addr = ea()
                mm(addr + addr)
                regs[rd] = unpack_from("<H", mem, addr)[0]
                return nxt
        elif signed:
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


# ----------------------------------------------------------------------
# block-engine source templates (mirroring _build_handler 1:1)


_DP_PAT = {
    DPOp.AND: "%(a)s & %(b)s",
    DPOp.EOR: "%(a)s ^ %(b)s",
    DPOp.SUB: "(%(a)s - %(b)s) & 4294967295",
    DPOp.RSB: "(%(b)s - %(a)s) & 4294967295",
    DPOp.ADD: "(%(a)s + %(b)s) & 4294967295",
    DPOp.ORR: "%(a)s | %(b)s",
    DPOp.BIC: "%(a)s & ~%(b)s & 4294967295",
}

_SHIFT_NAME = {ShiftType.LSL: "LSL", ShiftType.LSR: "LSR",
               ShiftType.ASR: "ASR", ShiftType.ROR: "ROR"}


def _emit_cmp2(op, a_expr, b_expr, idx):
    t = "%d" % idx
    x, y, r = "_x" + t, "_y" + t, "_r" + t
    lines = ["%s = %s" % (x, a_expr), "%s = %s" % (y, b_expr)]
    if op is DPOp.CMP:
        lines += [
            "%s = (%s - %s) & 4294967295" % (r, x, y),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
            "flags[2] = %s >= %s" % (x, y),
            "flags[3] = ((%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r),
        ]
    elif op is DPOp.CMN:
        tot = "_t" + t
        lines += [
            "%s = %s + %s" % (tot, x, y),
            "%s = %s & 4294967295" % (r, tot),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
            "flags[2] = %s > 4294967295" % tot,
            "flags[3] = (~(%s ^ %s) & (%s ^ %s) & 2147483648) != 0" % (x, y, x, r),
        ]
    elif op is DPOp.TST:
        lines += [
            "%s = %s & %s" % (r, x, y),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
        ]
    else:  # TEQ
        lines += [
            "%s = %s ^ %s" % (r, x, y),
            "flags[0] = %s >= 2147483648" % r,
            "flags[1] = %s == 0" % r,
        ]
    return Emitted(lines)


def _emit_ldm_stm(image, spec, kind, idx, nxt):
    reglist = tuple(spec.params["reglist"])
    t = "%d" % idx
    lines = []
    addrs = []
    if kind == "ldm":
        loads_pc = 15 in reglist
        gprs = tuple(r for r in reglist if r != 15)
        lines.append("_a%s_0 = regs[13]" % t)
        cursor = "_a%s_0" % t
        for j, r in enumerate(gprs):
            if j:
                cursor = "_a%s_%d" % (t, j)
                lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
            lines.append("regs[%d] = unpack_from(\"<I\", mem, %s)[0]" % (r, cursor))
            addrs.append((cursor, 0))
        if loads_pc:
            pc_cursor = "_a%s_%d" % (t, len(gprs))
            if gprs:
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
    # stm
    lines.append("_a%s_0 = regs[13] - %d" % (t, 4 * len(reglist)))
    lines.append("regs[13] = _a%s_0" % t)
    cursor = "_a%s_0" % t
    for j, r in enumerate(reglist):
        if j:
            cursor = "_a%s_%d" % (t, j)
            lines.append("%s = _a%s_%d + 4" % (cursor, t, j - 1))
        lines.append("pack_into(\"<I\", mem, %s, regs[%d])" % (cursor, r))
        addrs.append((cursor, 1))
    return Emitted(lines, addrs=tuple(addrs))


def _emit_fits(image, atom, idx):
    """Block-engine template for the atom starting at ``idx``, or None.

    ``atom`` is None for mid-atom halfword indices — the fallback closure
    (an ``_unreachable`` handler) then reproduces the interpreter's
    bad-control-flow error exactly.
    """
    if atom is None:
        return None
    isa = image.isa
    spec = atom.consumer.spec
    kind = spec.kind
    fields = atom.consumer.fields
    nxt = atom.start + atom.length
    layout = dict(isa.field_layout(spec))

    if kind in ("shift2i", "shift2r", "mul2"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        src = _operate2_source(isa, atom, rc)
        if kind == "shift2i":
            amount = fields["value"]
            name = _SHIFT_NAME[spec.params["shift"]]
            return Emitted(["regs[%d] = dyn_shift(regs[%d], %s, %d)"
                            % (rc, src, name, amount)])
        if kind == "shift2r":
            rs = (isa.arm_reg(fields["value"]) if isa.k_reg == 4
                  else _reg_of(isa, atom, 2, fields["value"]))
            name = _SHIFT_NAME[spec.params["shift"]]
            return Emitted(["regs[%d] = dyn_shift(regs[%d], %s, regs[%d] & 255)"
                            % (rc, src, name, rs)])
        rm = (isa.arm_reg(fields["value"]) if isa.k_reg == 4
              else _reg_of(isa, atom, 2, fields["value"]))
        return Emitted(["regs[%d] = (regs[%d] * regs[%d]) & 4294967295"
                        % (rc, src, rm)])

    if kind == "memrx":
        rd = _reg_of(isa, atom, 0, fields["rd"])
        rb = _reg_of(isa, atom, 1, fields["rb"])
        if not atom.ext_reg_count:
            raise SimulationError("memrx without its extr index prefix")
        rm = isa.arm_reg(atom.ext_regs)
        shift = spec.params["shift"]
        ea = ("(regs[%d] + ((regs[%d] << %d) & 4294967295)) & 4294967295"
              % (rb, rm, shift))
        return emit_mem(spec.params["load"], spec.params["width"],
                        spec.params["signed"], rd, ea, "_a%d" % idx)

    if kind in ("dp3", "mov2", "shifti", "shiftr", "mul"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        ra = _reg_of(isa, atom, 1, fields["ra"])
        if kind == "mov2":
            return Emitted(["regs[%d] = regs[%d]" % (rc, ra)])
        if kind == "mul":
            oprd = _reg_of(isa, atom, 2, fields["oprd"])
            return Emitted(["regs[%d] = (regs[%d] * regs[%d]) & 4294967295"
                            % (rc, ra, oprd)])
        if kind == "shiftr":
            oprd = _reg_of(isa, atom, 2, fields["oprd"])
            name = _SHIFT_NAME[spec.params["shift"]]
            return Emitted(["regs[%d] = dyn_shift(regs[%d], %s, regs[%d] & 255)"
                            % (rc, ra, name, oprd)])
        if kind == "shifti":
            amount = _operand_value(isa, atom, spec, "oprd", layout["oprd"])
            name = _SHIFT_NAME[spec.params["shift"]]
            return Emitted(["regs[%d] = dyn_shift(regs[%d], %s, %d)"
                            % (rc, ra, name, amount)])
        # dp3
        pat = _DP_PAT[spec.params["op"]]
        if spec.params["mode"] == "reg":
            oprd = _reg_of(isa, atom, 2, fields["oprd"])
            b = "regs[%d]" % oprd
        else:
            b = "%d" % (_operand_value(isa, atom, spec, "oprd", layout["oprd"]) & M32)
        return Emitted(["regs[%d] = %s" % (rc, pat % {"a": "regs[%d]" % ra, "b": b})])

    if kind in ("dp2", "movi", "mvni"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        if kind == "dp2" and spec.oprd_mode == OPRD_REG:
            src = _operate2_source(isa, atom, rc)
            rm = (isa.arm_reg(fields["value"]) if isa.k_reg == 4
                  else _reg_of(isa, atom, 2, fields["value"]))
            pat = _DP_PAT[spec.params["op"]]
            return Emitted(["regs[%d] = %s"
                            % (rc, pat % {"a": "regs[%d]" % src,
                                          "b": "regs[%d]" % rm})])
        value = _operand_value(isa, atom, spec, "value", layout["value"]) & M32
        if kind == "movi":
            return Emitted(["regs[%d] = %d" % (rc, value)])
        if kind == "mvni":
            return Emitted(["regs[%d] = %d" % (rc, value ^ M32)])
        pat = _DP_PAT[spec.params["op"]]
        src = _operate2_source(isa, atom, rc)
        return Emitted(["regs[%d] = %s"
                        % (rc, pat % {"a": "regs[%d]" % src, "b": "%d" % value})])

    if kind == "cmp2":
        ra = _reg_of(isa, atom, 0, fields["ra"])
        if spec.params["mode"] == "reg":
            rm = _reg_of(isa, atom, 2, fields["value"])
            b = "regs[%d]" % rm
        else:
            b = "%d" % (_operand_value(isa, atom, spec, "value",
                                       layout["value"]) & M32)
        return _emit_cmp2(spec.params["op"], "regs[%d]" % ra, b, idx)

    if kind in ("mem", "memr", "memsp"):
        load = spec.params["load"]
        width = spec.params.get("width", 4)
        signed = spec.params.get("signed", False)
        if kind == "memsp":
            rd = _reg_of(isa, atom, 0, fields["rd"])
            ea = "(regs[13] + %d) & 4294967295" % (fields["imm"] * 4)
        elif kind == "memr":
            rd = _reg_of(isa, atom, 0, fields["rd"])
            rb = _reg_of(isa, atom, 1, fields["rb"])
            rm = _reg_of(isa, atom, 2, fields["imm"])
            ea = ("(regs[%d] + ((regs[%d] << %d) & 4294967295)) & 4294967295"
                  % (rb, rm, spec.params["shift"]))
        else:
            rd = _reg_of(isa, atom, 0, fields["rd"])
            rb = _reg_of(isa, atom, 1, fields["rb"])
            if spec.oprd_mode == OPRD_DICT:
                offset = isa.dict_lookup("mem", fields["imm"])
            elif atom.ext_imm_count:
                total_bits = layout["imm"] + atom.ext_imm_count * isa.wide_width
                combined = (atom.ext_imm << layout["imm"]) | fields["imm"]
                offset = _sign_extend(combined, total_bits)
            else:
                offset = fields["imm"] * width
            ea = "(regs[%d] + %d) & 4294967295" % (rb, offset)
        return emit_mem(load, width, signed, rd, ea, "_a%d" % idx)

    if kind == "spadj":
        value = _operand_value(isa, atom, spec, "value", layout["value"],
                               signed=True)
        return Emitted(["regs[13] = (regs[13] + %d) & 4294967295" % value])

    if kind in ("ldm", "stm"):
        return _emit_ldm_stm(image, spec, kind, idx, nxt)

    if kind == "b":
        disp = _operand_value(isa, atom, spec, "value", layout["value"],
                              signed=True)
        target = nxt + disp
        expr = cond_expr(spec.params["cond"])
        if expr is None:
            return Emitted([], nxt="%d" % target)
        return Emitted([], nxt="%d" % target, cond=expr)

    if kind == "bl":
        disp = _operand_value(isa, atom, spec, "value", layout["value"],
                              signed=True)
        ret_addr = image.addr_of_index(nxt)
        return Emitted(["regs[14] = %d" % ret_addr], nxt="%d" % (nxt + disp))

    if kind == "ret":
        return Emitted([], nxt="index_of(regs[14])")

    if kind == "swi":
        number = fields["value"]
        if number == 0:
            return Emitted(["exit_code[0] = regs[0]"], nxt="-1")
        if number == 1:
            return Emitted(["console.append(regs[0] & 255)"])
        return None

    return None
