"""Functional ARM simulator: a decoder onto the shared semantics.

Each static instruction decodes once, at build time, into one
:mod:`~repro.sim.functional.semantics` operation; the engine
(:mod:`~repro.sim.functional.engine`) interprets cold code through the
operations' closures and compiles hot stretches from their templates.
Condition fields are honoured on branches only, the one place the
compiler emits them.
"""

from repro.isa.arm.model import (
    Branch,
    COMPARE_OPS,
    DataProc,
    DPOp,
    MemHalf,
    MemMultiple,
    MemWord,
    Multiply,
    Operand2Imm,
    Operand2Reg,
    Operand2RegReg,
    ShiftType,
    Swi,
)
from repro.sim.functional import engine, semantics as sem
from repro.sim.functional.semantics import SimulationError


class ArmSimulator(engine.Simulator):
    """Executes a linked ARM image to completion.

    Args:
        image: :class:`repro.compiler.link.Image`.
        max_instructions: dynamic instruction budget (guards against
            runaway workloads).
    """

    isa = "arm"
    run = engine.Simulator.run

    def program(self):
        return build_program(self.image)


def build_program(image):
    """Fresh per-run :class:`~repro.sim.functional.engine.Program`."""
    return engine.Program(image, "arm", decode(image))


def decode(image):
    """One operation per instruction of ``image``."""
    return [_decode(ins, idx, image) for idx, ins in enumerate(image.instrs)]


def _operand(op2):
    if isinstance(op2, Operand2Imm):
        return sem.Imm(op2.value)
    if isinstance(op2, Operand2Reg):
        if op2.shift_type is ShiftType.LSL and op2.shift_imm == 0:
            return sem.Reg(op2.rm)
        return sem.ShiftImm(op2.rm, op2.shift_type, op2.shift_imm)
    if isinstance(op2, Operand2RegReg):
        return sem.ShiftReg(op2.rm, op2.shift_type, op2.rs)
    raise TypeError("bad operand2: %r" % (op2,))


def _decode(ins, idx, image):
    if isinstance(ins, DataProc):
        operand = _operand(ins.operand2)
        if ins.op in COMPARE_OPS:
            return sem.Compare(ins.op, ins.rn, operand)
        if ins.s:
            raise NotImplementedError("S-bit data processing (other than compares)")
        if ins.rd == 15:
            # write to pc: a computed control transfer (function return)
            if ins.op is not DPOp.MOV:
                raise NotImplementedError("only MOV may target pc")
            return sem.Jump(operand)
        if ins.op not in sem.ALU_EXPR:
            raise NotImplementedError("data-processing op %s" % ins.op.name)
        return sem.Alu(ins.op, ins.rd, ins.rn, operand)
    if isinstance(ins, MemWord):
        if isinstance(ins.offset, int):
            offset = sem.Imm(ins.offset)
        elif ins.offset.shift_imm:
            offset = sem.ShiftImm(ins.offset.rm, ShiftType.LSL, ins.offset.shift_imm)
        else:
            offset = sem.Reg(ins.offset.rm)
        return sem.Mem(ins.load, 1 if ins.byte else 4, False, ins.rd, ins.rn, offset)
    if isinstance(ins, MemHalf):
        if ins.load:
            return sem.Mem(True, 2 if ins.half else 1, ins.signed or not ins.half,
                           ins.rd, ins.rn, sem.Imm(ins.offset))
        return sem.Mem(False, 2, False, ins.rd, ins.rn, sem.Imm(ins.offset))
    if isinstance(ins, MemMultiple):
        if ins.load:
            return sem.Multi(True, ins.rn, [r for r in ins.reglist if r != 15],
                             pc=15 in ins.reglist)
        return sem.Multi(False, ins.rn, ins.reglist)
    if isinstance(ins, Multiply):
        return sem.Mul(ins.rd, ins.rm, ins.rs, ins.rn if ins.accumulate else None)
    if isinstance(ins, Branch):
        pc = image.addr_of_index(idx)
        return sem.Branch(image.index_of_addr(ins.target(pc)), ins.cond,
                          pc + 4 if ins.link else None)
    if isinstance(ins, Swi):
        return sem.Trap(ins.imm24)
    raise SimulationError("cannot execute %r" % (ins,))
