"""Functional FITS simulator: a decoder onto the shared semantics.

Executes a translated :class:`~repro.core.translator.FitsImage` through
the synthesized decoder configuration.  At build time every halfword is
(a) re-decoded through the codec and checked against the translator's
record — the encoding must be honest — and (b) folded into *atoms*: a
run of ``ext``/``extr`` prefixes plus their consumer executes as one
unit, exactly like a prefixed instruction in hardware.  Each atom
decodes into one :mod:`~repro.sim.functional.semantics` operation at
its first halfword; the halfwords inside it decode to ``Invalid``, and
the atom successor table steps over them.

Register values use ARM numbering internally (renaming is an encoding
concern); lr holds FITS byte addresses, so saved return addresses flow
through memory and back into ``ret`` unchanged.
"""

from repro.isa.arm.model import DPOp, ShiftType
from repro.isa.fits.codec import decode_fits
from repro.isa.fits.spec import OPRD_DICT, OPRD_REG
from repro.sim.functional import engine, semantics as sem
from repro.sim.functional.semantics import M32, SimulationError


class FitsSimulator(engine.Simulator):
    """Executes a FITS image to completion (exit SWI)."""

    isa = "fits"
    run = engine.Simulator.run

    def __init__(self, image, max_instructions=400_000_000, verify_decode=True):
        super().__init__(image, max_instructions)
        self.verify_decode = verify_decode

    def program(self):
        image = self.image
        if self.verify_decode:
            for half, rec in zip(image.halfwords, image.records):
                back = decode_fits(image.isa, half)
                if back != rec:
                    raise SimulationError(
                        "decoder disagreement: %r decodes to %r" % (rec, back)
                    )
        return build_program(image)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    return engine.Program(image, "fits", *decode(image))


def decode(image):
    """``(ops, seq_next)``: one operation per halfword of ``image`` and
    each halfword's sequential successor (the next atom's start)."""
    count = len(image.records)
    ops = [_INSIDE_ATOM] * count
    seq_next = [0] * count
    for atom in _atoms(image):
        nxt = atom.start + atom.length
        seq_next[atom.start:nxt] = [nxt] * atom.length
        ops[atom.start] = _decode(image, atom, nxt)
    return ops, seq_next


#: A halfword inside an atom: control only ever enters at its start.
_INSIDE_ATOM = sem.Invalid("jump into the middle of a prefixed atom")


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


def _operate2_reg(isa, atom, value):
    """Register named by an Operate2 VALUE field."""
    return isa.arm_reg(value) if isa.k_reg == 4 else _reg_of(isa, atom, 2, value)


def _operand_value(isa, atom, spec, field_name, signed=False):
    """Resolve an immediate-bearing field to its 32-bit value."""
    raw = atom.consumer.fields.get(field_name, 0)
    if spec.oprd_mode == OPRD_DICT:
        return isa.dict_lookup(spec.dict_category, raw)
    if atom.ext_imm_count:
        width = dict(isa.field_layout(spec))[field_name]
        total_bits = width + atom.ext_imm_count * isa.wide_width
        combined = (atom.ext_imm << width) | (raw & ((1 << width) - 1))
        if signed:
            return _sign_extend(combined, total_bits)
        return combined & M32
    return raw  # a signed field is already sign-decoded by the codec


def _index_offset(rm, shift):
    """Memory offset: register ``rm`` shifted left by ``shift``."""
    return sem.ShiftImm(rm, ShiftType.LSL, shift) if shift else sem.Reg(rm)


def _decode(image, atom, nxt):
    isa = image.isa
    spec = atom.consumer.spec
    kind = spec.kind
    params = spec.params
    fields = atom.consumer.fields

    if kind in ("shift2i", "shift2r", "mul2"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        src = _operate2_source(isa, atom, rc)
        if kind == "shift2i":
            return sem.Alu(DPOp.MOV, rc, 0,
                           sem.const_shift(src, params["shift"], fields["value"]))
        rm = _operate2_reg(isa, atom, fields["value"])
        if kind == "shift2r":
            return sem.Alu(DPOp.MOV, rc, 0, sem.ShiftReg(src, params["shift"], rm))
        return sem.Mul(rc, src, rm)

    if kind == "memrx":
        rd = _reg_of(isa, atom, 0, fields["rd"])
        rb = _reg_of(isa, atom, 1, fields["rb"])
        if not atom.ext_reg_count:
            raise SimulationError("memrx without its extr index prefix")
        rm = isa.arm_reg(atom.ext_regs)
        return sem.Mem(params["load"], params["width"], params["signed"], rd, rb,
                       _index_offset(rm, params["shift"]))

    if kind in ("dp3", "mov2", "shifti", "shiftr", "mul"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        ra = _reg_of(isa, atom, 1, fields["ra"])
        if kind == "mov2":
            return sem.Alu(DPOp.MOV, rc, 0, sem.Reg(ra))
        if kind == "shifti":
            amount = _operand_value(isa, atom, spec, "oprd")
            return sem.Alu(DPOp.MOV, rc, 0, sem.const_shift(ra, params["shift"], amount))
        if kind == "dp3" and params["mode"] != "reg":
            value = _operand_value(isa, atom, spec, "oprd")
            return sem.Alu(params["op"], rc, ra, sem.Imm(value))
        oprd = _reg_of(isa, atom, 2, fields["oprd"])
        if kind == "mul":
            return sem.Mul(rc, ra, oprd)
        if kind == "shiftr":
            return sem.Alu(DPOp.MOV, rc, 0, sem.ShiftReg(ra, params["shift"], oprd))
        return sem.Alu(params["op"], rc, ra, sem.Reg(oprd))

    if kind in ("dp2", "movi", "mvni"):
        rc = _reg_of(isa, atom, 0, fields["rc"])
        if kind == "dp2" and spec.oprd_mode == OPRD_REG:
            src = _operate2_source(isa, atom, rc)
            rm = _operate2_reg(isa, atom, fields["value"])
            return sem.Alu(params["op"], rc, src, sem.Reg(rm))
        value = _operand_value(isa, atom, spec, "value") & M32
        if kind == "movi":
            return sem.Alu(DPOp.MOV, rc, 0, sem.Imm(value))
        if kind == "mvni":
            return sem.Alu(DPOp.MOV, rc, 0, sem.Imm(value ^ M32))
        return sem.Alu(params["op"], rc, _operate2_source(isa, atom, rc), sem.Imm(value))

    if kind == "cmp2":
        ra = _reg_of(isa, atom, 0, fields["ra"])
        if params["mode"] == "reg":
            operand = sem.Reg(_reg_of(isa, atom, 2, fields["value"]))
        else:
            operand = sem.Imm(_operand_value(isa, atom, spec, "value"))
        return sem.Compare(params["op"], ra, operand)

    if kind in ("mem", "memr", "memsp"):
        load = params["load"]
        width = params.get("width", 4)
        signed = params.get("signed", False)
        rd = _reg_of(isa, atom, 0, fields["rd"])
        if kind == "memsp":
            return sem.Mem(load, width, signed, rd, 13, sem.Imm(fields["imm"] * 4))
        rb = _reg_of(isa, atom, 1, fields["rb"])
        if kind == "memr":
            rm = _reg_of(isa, atom, 2, fields["imm"])
            return sem.Mem(load, width, signed, rd, rb, _index_offset(rm, params["shift"]))
        if spec.oprd_mode == OPRD_DICT:
            offset = isa.dict_lookup("mem", fields["imm"])
        elif atom.ext_imm_count:
            offset = _operand_value(isa, atom, spec, "imm", signed=True)
        else:
            offset = fields["imm"] * width
        return sem.Mem(load, width, signed, rd, rb, sem.Imm(offset))

    if kind == "spadj":
        value = _operand_value(isa, atom, spec, "value", signed=True)
        return sem.Alu(DPOp.ADD, 13, 13, sem.Imm(value))

    if kind == "ldm":
        reglist = params["reglist"]
        return sem.Multi(True, 13, [r for r in reglist if r != 15], pc=15 in reglist)
    if kind == "stm":
        return sem.Multi(False, 13, params["reglist"])

    if kind in ("b", "bl"):
        target = nxt + _operand_value(isa, atom, spec, "value", signed=True)
        if kind == "b":
            return sem.Branch(target, params["cond"])
        return sem.Branch(target, return_addr=image.addr_of_index(nxt))

    if kind == "ret":
        return sem.Jump(sem.Reg(14))

    if kind == "swi":
        return sem.Trap(fields["value"])

    raise SimulationError("cannot execute FITS kind %r" % kind)
