"""Functional Thumb simulator (validates the Thumb back end).

A decoder onto the shared :mod:`~repro.sim.functional.semantics`, like
the ARM simulator, over halfword indices.  Only the flag behaviour our
generated code relies on is modelled: the compare instructions set
NZCV, conditional branches read them.  (Real Thumb ALU ops also set
flags; our back end never reads those, so modelling them would be dead
weight.)
"""

from repro.isa.arm.model import DPOp, ShiftType
from repro.isa.thumb.model import (
    TAdjustSp,
    TAlu,
    TAluOp,
    TAddSub,
    TBranch,
    TBranchLink,
    TCondBranch,
    TLoadStoreImm,
    TLoadStoreReg,
    TLoadStoreSpRel,
    TMovCmpAddSubImm,
    TPushPop,
    TShiftImm,
    TSwi,
)
from repro.sim.functional import engine, semantics as sem
from repro.sim.functional.semantics import SimulationError


class ThumbSimulator(engine.Simulator):
    """Executes a linked :class:`~repro.compiler.thumb_backend.ThumbImage`."""

    isa = "thumb"
    run = engine.Simulator.run

    def program(self):
        return build_program(self.image)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    return engine.Program(image, "thumb", decode(image))


def decode(image):
    """One operation per halfword of ``image``."""
    return [_decode(ins, idx, image) for idx, ins in enumerate(image.instr_at)]


#: The second halfword of a BL, which only its first halfword executes.
_BL_SECOND = sem.Invalid("second halfword of a BL")

#: Format-1 shifts by a constant, under ARM's immediate-shift rules
#: (``lsr``/``asr #0`` mean #32).
_SHIFT_IMM = {"lsl": ShiftType.LSL, "lsr": ShiftType.LSR, "asr": ShiftType.ASR}

#: Format-4 shifts by register: ``rd = rd shift rm``.
_SHIFT_REG = {TAluOp.LSL: ShiftType.LSL, TAluOp.LSR: ShiftType.LSR,
              TAluOp.ASR: ShiftType.ASR, TAluOp.ROR: ShiftType.ROR}

#: Format-4 ALU ops that are data processing ``rd = rd op rm``.
_ALU_OPS = {TAluOp.AND: DPOp.AND, TAluOp.EOR: DPOp.EOR,
            TAluOp.ORR: DPOp.ORR, TAluOp.BIC: DPOp.BIC}

_COMPARE_OPS = {TAluOp.CMP: DPOp.CMP, TAluOp.CMN: DPOp.CMN,
                TAluOp.TST: DPOp.TST}


def _decode(ins, idx, image):
    if ins is None:
        return _BL_SECOND
    if isinstance(ins, TShiftImm):
        return sem.Alu(DPOp.MOV, ins.rd, 0,
                       sem.ShiftImm(ins.rm, _SHIFT_IMM[ins.op], ins.imm5))
    if isinstance(ins, TAddSub):
        operand = sem.Imm(ins.value) if ins.imm else sem.Reg(ins.value)
        return sem.Alu(DPOp.SUB if ins.sub else DPOp.ADD, ins.rd, ins.rn, operand)
    if isinstance(ins, TMovCmpAddSubImm):
        imm = sem.Imm(ins.imm8)
        if ins.op == "mov":
            return sem.Alu(DPOp.MOV, ins.rd, 0, imm)
        if ins.op == "cmp":
            return sem.Compare(DPOp.CMP, ins.rd, imm)
        return sem.Alu(DPOp.ADD if ins.op == "add" else DPOp.SUB, ins.rd, ins.rd, imm)
    if isinstance(ins, TAlu):
        return _decode_alu(ins)
    if isinstance(ins, TLoadStoreImm):
        return sem.Mem(ins.load, ins.width, False, ins.rd, ins.rn, sem.Imm(ins.offset))
    if isinstance(ins, TLoadStoreReg):
        return sem.Mem(ins.load, ins.width, ins.signed, ins.rd, ins.rn, sem.Reg(ins.rm))
    if isinstance(ins, TLoadStoreSpRel):
        return sem.Mem(ins.load, 4, False, ins.rd, 13, sem.Imm(ins.offset))
    if isinstance(ins, TAdjustSp):
        return sem.Alu(DPOp.ADD, 13, 13, sem.Imm(ins.delta))
    if isinstance(ins, TPushPop):
        if ins.pop:
            return sem.Multi(True, 13, ins.reglist, pc=ins.extra)
        return sem.Multi(False, 13, tuple(ins.reglist) + ((14,) if ins.extra else ()))
    if isinstance(ins, TCondBranch):
        return sem.Branch(ins.target_index(idx), ins.cond)
    if isinstance(ins, TBranch):
        return sem.Branch(ins.target_index(idx))
    if isinstance(ins, TBranchLink):
        return sem.Branch(ins.target_index(idx),
                          return_addr=image.addr_of_index(idx) + 4)
    if isinstance(ins, TSwi):
        return sem.Trap(ins.imm8)
    raise SimulationError("cannot execute %r" % (ins,))


def _decode_alu(ins):
    rd, rm, op = ins.rd, ins.rm, ins.op
    if op in _ALU_OPS:
        return sem.Alu(_ALU_OPS[op], rd, rd, sem.Reg(rm))
    if op in _COMPARE_OPS:
        return sem.Compare(_COMPARE_OPS[op], rd, sem.Reg(rm))
    if op is TAluOp.MUL:
        return sem.Mul(rd, rd, rm)
    if op is TAluOp.MVN:
        return sem.Alu(DPOp.MVN, rd, 0, sem.Reg(rm))
    if op is TAluOp.NEG:
        return sem.Alu(DPOp.RSB, rd, rm, sem.Imm(0))
    if op in _SHIFT_REG:
        return sem.Alu(DPOp.MOV, rd, 0, sem.ShiftReg(rd, _SHIFT_REG[op], rm))
    raise SimulationError("unsupported thumb ALU op %s" % op.name)
