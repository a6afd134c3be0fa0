"""Instruction selection: IR → ARM machine code (one function at a time).

Selection runs after register allocation, so every IR virtual register is
already bound to a physical register or a stack slot.  Two scratch
registers are reserved for spill traffic and immediate materialization:
``ip`` (r12) and ``lr`` (r14, free after the prologue saves it).

The output is a :class:`FunctionCode` whose instruction list still
contains two kinds of link-time placeholders: ``bl`` targets (function
addresses) and global-address ``mov``/``orr`` pairs (data addresses).
Intra-function branches are resolved here.

Every emitted instruction records its *origin*: the IR block it was
lowered from, ``"prologue"`` or ``"epilogue"``, or ``(label, "else")``
for the final ``B`` of a two-way conditional branch, which runs only on
the not-taken edge.  All instructions of one origin execute equally
often under any register budget (calls return into the block that made
them), which lets the FITS flow read every budget's execution counts off
one simulated compile.

Selection is memoized per allocation (:func:`compile_function_arm`), so
budgets whose allocations coincide select each function once.
"""

import weakref

from repro.ir.ops import Op, Cond as ICond
from repro.ir.instructions import (
    Li,
    Mov,
    Bin,
    Load,
    Store,
    GlobalAddr,
    Br,
    CBr,
    Call,
    Ret,
)
from repro.ir.ops import Width
from repro.isa.arm import (
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
    encode_rotated_imm,
)
from repro.compiler.regalloc import allocate_registers, SCRATCH0, SCRATCH1, SP
from repro.obs import core as obs

LR = 14
PC = 15

#: IR condition → ARM condition code.
COND_MAP = {
    ICond.EQ: Cond.EQ,
    ICond.NE: Cond.NE,
    ICond.LT: Cond.LT,
    ICond.LE: Cond.LE,
    ICond.GT: Cond.GT,
    ICond.GE: Cond.GE,
    ICond.LTU: Cond.CC,
    ICond.LEU: Cond.LS,
    ICond.GTU: Cond.HI,
    ICond.GEU: Cond.CS,
}

INVERT = {
    Cond.EQ: Cond.NE,
    Cond.NE: Cond.EQ,
    Cond.LT: Cond.GE,
    Cond.GE: Cond.LT,
    Cond.GT: Cond.LE,
    Cond.LE: Cond.GT,
    Cond.CC: Cond.CS,
    Cond.CS: Cond.CC,
    Cond.HI: Cond.LS,
    Cond.LS: Cond.HI,
}

BIN_TO_DP = {
    Op.ADD: DPOp.ADD,
    Op.SUB: DPOp.SUB,
    Op.RSB: DPOp.RSB,
    Op.AND: DPOp.AND,
    Op.ORR: DPOp.ORR,
    Op.EOR: DPOp.EOR,
}

SHIFT_OPS = {Op.LSL: ShiftType.LSL, Op.LSR: ShiftType.LSR, Op.ASR: ShiftType.ASR}


def const_pieces(value):
    """Plan to materialize ``value``: ``('mov'|'mvn', imm)`` then ``('orr', imm)``*.

    Uses a single MOV/MVN when the (complemented) value is a rotated
    immediate, otherwise a MOV of the lowest byte chunk followed by ORRs
    of the remaining byte chunks (at most four instructions).
    """
    value &= 0xFFFFFFFF
    if encode_rotated_imm(value) is not None:
        return [("mov", value)]
    if encode_rotated_imm(value ^ 0xFFFFFFFF) is not None:
        return [("mvn", value ^ 0xFFFFFFFF)]
    chunks = [value & (0xFF << s) for s in (0, 8, 16, 24)]
    chunks = [c for c in chunks if c]
    return [("mov", chunks[0])] + [("orr", c) for c in chunks[1:]]


class FunctionCode:
    """Selected machine code for one function, pre-link."""

    def __init__(self, name):
        self.name = name
        self.instrs = []
        #: (index, kind, payload): kind 'bl' → payload symbol;
        #: 'ga_hi'/'ga_lo' → payload (rd, symbol).
        self.relocs = []
        self.block_offsets = {}
        #: origin of each instruction (see the module docstring)
        self.origins = []

    def __len__(self):
        return len(self.instrs)


class _Selector:
    def __init__(self, func, alloc):
        self.func = func
        self.alloc = alloc
        self.code = FunctionCode(func.name)
        self.branch_fixups = []  # (index, cond, label)
        self.epilogue_label = "__epilogue"
        self.saved = list(alloc.used_callee_saved)
        n_slots = alloc.num_slots
        self.has_calls = any(isinstance(i, Call) for i in func.instructions())
        # Leaf functions with no spills and no callee-saved registers need
        # no frame at all (and then lr stays live, so only one scratch).
        self.frameless = not self.has_calls and n_slots == 0 and not self.saved
        self.s1 = SCRATCH0 if self.frameless else SCRATCH1
        spill_words = n_slots
        if not self.frameless and (spill_words + len(self.saved) + 1) % 2:
            spill_words += 1  # keep sp 8-byte aligned
        self.spill_bytes = 4 * spill_words
        self.slot_offset = {k: 4 * k for k in range(n_slots)}
        self.origin = "prologue"

    # ------------------------------------------------------------------
    # emission helpers

    def emit(self, instr):
        self.code.instrs.append(instr)
        self.code.origins.append(self.origin)

    def loc(self, vreg):
        return self.alloc.location(vreg)

    def read(self, vreg, scratch):
        """Physical register holding ``vreg``; loads spills into ``scratch``."""
        kind, value = self.loc(vreg)
        if kind == "r":
            return value
        self.emit(MemWord(load=True, rd=scratch, rn=SP, offset=self.slot_offset[value]))
        return scratch

    def write_back(self, vreg, reg):
        kind, value = self.loc(vreg)
        if kind == "s":
            self.emit(MemWord(load=False, rd=reg, rn=SP, offset=self.slot_offset[value]))

    def dest(self, vreg, avoid=()):
        """Register to compute ``vreg`` into (a scratch when spilled)."""
        kind, value = self.loc(vreg)
        if kind == "r":
            return value
        for s in (SCRATCH0, SCRATCH1):
            if s not in avoid:
                return s
        raise AssertionError("no scratch available for destination")

    def load_const(self, rd, value, cond=Cond.AL):
        for kind, imm in const_pieces(value):
            rot, imm8 = encode_rotated_imm(imm)
            op2 = Operand2Imm(rot, imm8)
            if kind == "mov":
                self.emit(DataProc(DPOp.MOV, rd, 0, op2, cond=cond))
            elif kind == "mvn":
                self.emit(DataProc(DPOp.MVN, rd, 0, op2, cond=cond))
            else:
                self.emit(DataProc(DPOp.ORR, rd, rd, op2, cond=cond))

    def imm_op2(self, value):
        enc = encode_rotated_imm(value & 0xFFFFFFFF)
        return Operand2Imm(*enc) if enc is not None else None

    # ------------------------------------------------------------------
    # top level

    def run(self):
        self.prologue()
        order = [blk.label for blk in self.func.blocks]
        next_of = {order[i]: order[i + 1] if i + 1 < len(order) else None for i in range(len(order))}
        for blk in self.func.blocks:
            self.code.block_offsets[blk.label] = len(self.code.instrs)
            self.origin = blk.label
            for ins in blk.instrs:
                self.select(ins, next_of[blk.label])
        self.code.block_offsets[self.epilogue_label] = len(self.code.instrs)
        self.origin = "epilogue"
        self.epilogue()
        self.fix_branches()
        return self.code

    def prologue(self):
        if not self.frameless:
            self.emit(MemMultiple(False, SP, self.saved + [LR]))
            if self.spill_bytes:
                op2 = self.imm_op2(self.spill_bytes)
                assert op2 is not None, "frame too large: %d" % self.spill_bytes
                self.emit(DataProc(DPOp.SUB, SP, SP, op2))
        # Move incoming arguments (r0..r3) to their allocated homes.
        moves = []
        for i in range(self.func.num_args):
            if i not in self.alloc.intervals:
                continue  # argument never used
            moves.append((self.alloc.location(i), ("r", i)))
        self.parallel_moves(moves)

    def epilogue(self):
        if self.frameless:
            self.emit(DataProc(DPOp.MOV, PC, 0, Operand2Reg(LR)))
            return
        if self.spill_bytes:
            self.emit(DataProc(DPOp.ADD, SP, SP, self.imm_op2(self.spill_bytes)))
        self.emit(MemMultiple(True, SP, self.saved + [PC]))

    def fix_branches(self):
        for index, cond, label in self.branch_fixups:
            target = self.code.block_offsets[label]
            self.code.instrs[index] = Branch(target - (index + 2), cond=cond)

    def branch_to(self, label, cond=Cond.AL):
        self.branch_fixups.append((len(self.code.instrs), cond, label))
        self.emit(Branch(0, cond=cond))  # placeholder

    # ------------------------------------------------------------------
    # parallel moves (entry arguments and call argument staging)

    def parallel_moves(self, moves):
        """Perform moves ``[(dst_loc, src_loc)]`` as if simultaneous.

        Slot destinations go first (they clobber no registers); register
        destinations are scheduled respecting read-before-write, breaking
        cycles through SCRATCH0.
        """
        pending = []
        for dst, src in moves:
            if dst == src:
                continue
            if dst[0] == "s":
                if src[0] == "r":
                    self.emit(MemWord(load=False, rd=src[1], rn=SP, offset=self.slot_offset[dst[1]]))
                else:
                    self.emit(MemWord(load=True, rd=SCRATCH0, rn=SP, offset=self.slot_offset[src[1]]))
                    self.emit(MemWord(load=False, rd=SCRATCH0, rn=SP, offset=self.slot_offset[dst[1]]))
            else:
                pending.append([dst[1], src])

        while pending:
            src_regs = {src[1] for _dst, src in pending if src[0] == "r"}
            ready = [m for m in pending if m[0] not in src_regs]
            if ready:
                for dst, src in ready:
                    if src[0] == "r":
                        self.emit(DataProc(DPOp.MOV, dst, 0, Operand2Reg(src[1])))
                    else:
                        self.emit(MemWord(load=True, rd=dst, rn=SP, offset=self.slot_offset[src[1]]))
                pending = [m for m in pending if m[0] in src_regs]
            else:
                # cycle: free one source register via the scratch
                _dst, src = pending[0]
                self.emit(DataProc(DPOp.MOV, SCRATCH0, 0, Operand2Reg(src[1])))
                for m in pending:
                    if m[1] == ("r", src[1]):
                        m[1] = ("r", SCRATCH0)

    # ------------------------------------------------------------------
    # per-instruction selection

    def select(self, ins, next_label):
        if isinstance(ins, Bin):
            self.sel_bin(ins)
        elif isinstance(ins, Load):
            self.sel_load(ins)
        elif isinstance(ins, Store):
            self.sel_store(ins)
        elif isinstance(ins, Li):
            rd = self.dest(ins.dst)
            self.load_const(rd, ins.imm)
            self.write_back(ins.dst, rd)
        elif isinstance(ins, Mov):
            self.sel_mov(ins)
        elif isinstance(ins, CBr):
            self.sel_cbr(ins, next_label)
        elif isinstance(ins, Br):
            if ins.target != next_label:
                self.branch_to(ins.target)
        elif isinstance(ins, Call):
            self.sel_call(ins)
        elif isinstance(ins, Ret):
            self.sel_ret(ins)
        elif isinstance(ins, GlobalAddr):
            rd = self.dest(ins.dst)
            index = len(self.code.instrs)
            self.emit(DataProc(DPOp.MOV, rd, 0, Operand2Imm(0, 0)))
            self.emit(DataProc(DPOp.ORR, rd, rd, Operand2Imm(0, 0)))
            self.code.relocs.append((index, "ga_hi", (rd, ins.symbol)))
            self.code.relocs.append((index + 1, "ga_lo", (rd, ins.symbol)))
            self.write_back(ins.dst, rd)
        else:
            raise TypeError("cannot select %r" % (ins,))

    def sel_mov(self, ins):
        dst, src = self.loc(ins.dst), self.loc(ins.src)
        if dst == src:
            return
        self.parallel_moves([(dst, src)])

    def sel_bin(self, ins):
        if ins.op in SHIFT_OPS:
            return self.sel_shift(ins)
        if ins.op is Op.MUL:
            return self.sel_mul(ins)
        lhs = self.read(ins.lhs, SCRATCH0)
        dp = BIN_TO_DP[ins.op]
        if isinstance(ins.rhs, int):
            op2, dp = self.arith_imm(dp, ins.rhs)
            if op2 is None:
                self.load_const(self.s1, ins.rhs)
                op2 = Operand2Reg(self.s1)
                dp = BIN_TO_DP[ins.op]
        else:
            op2 = Operand2Reg(self.read(ins.rhs, self.s1))
        rd = self.dest(ins.dst)
        self.emit(DataProc(dp, rd, lhs, op2))
        self.write_back(ins.dst, rd)

    def arith_imm(self, dp, value):
        """Immediate form for ``dp`` with ``value``, using the standard
        negation tricks (ADD↔SUB, AND→BIC, MOV→MVN); returns (op2, dp)."""
        op2 = self.imm_op2(value)
        if op2 is not None:
            return op2, dp
        neg = self.imm_op2(-value & 0xFFFFFFFF)
        if neg is not None:
            if dp is DPOp.ADD:
                return neg, DPOp.SUB
            if dp is DPOp.SUB:
                return neg, DPOp.ADD
        inv = self.imm_op2(value ^ 0xFFFFFFFF)
        if inv is not None and dp is DPOp.AND:
            return inv, DPOp.BIC
        if inv is not None and dp is DPOp.EOR:
            # no direct trick for EOR; fall through to materialization
            pass
        return None, dp

    def sel_shift(self, ins):
        lhs = self.read(ins.lhs, SCRATCH0)
        shift_type = SHIFT_OPS[ins.op]
        if isinstance(ins.rhs, int):
            amount = ins.rhs
            if not 0 <= amount < 32:
                raise ValueError(
                    "@%s: constant shift amount %d out of range" % (self.func.name, amount)
                )
            if amount == 0:
                # LSR/ASR #0 encode shift-by-32 on ARM; a zero shift is a move
                op2 = Operand2Reg(lhs)
            else:
                op2 = Operand2Reg(lhs, shift_type, amount)
        else:
            rs = self.read(ins.rhs, self.s1)
            op2 = Operand2RegReg(lhs, shift_type, rs)
        rd = self.dest(ins.dst)
        self.emit(DataProc(DPOp.MOV, rd, 0, op2))
        self.write_back(ins.dst, rd)

    def sel_mul(self, ins):
        rm = self.read(ins.lhs, SCRATCH0)
        if isinstance(ins.rhs, int):
            self.load_const(self.s1, ins.rhs)
            rs = self.s1
        else:
            rs = self.read(ins.rhs, self.s1)
        rd = self.dest(ins.dst, avoid=(rm,))
        if rd == rm:
            if rd != rs:
                rm, rs = rs, rm
            else:
                # rd == rm == rs: square through a scratch copy
                free = SCRATCH0 if rm != SCRATCH0 else SCRATCH1
                self.emit(DataProc(DPOp.MOV, free, 0, Operand2Reg(rm)))
                rm = free
        self.emit(Multiply(rd=rd, rm=rm, rs=rs))
        self.write_back(ins.dst, rd)

    # ------------------------------------------------------------------
    # memory

    def sel_load(self, ins):
        base = self.read(ins.base, SCRATCH0)
        rd = self.dest(ins.dst)
        if ins.width is Width.WORD or (ins.width is Width.BYTE and not ins.signed):
            byte = ins.width is Width.BYTE
            if isinstance(ins.offset, int):
                if -4095 <= ins.offset <= 4095:
                    self.emit(MemWord(load=True, rd=rd, rn=base, offset=ins.offset, byte=byte))
                else:
                    self.load_const(self.s1, ins.offset)
                    self.emit(
                        MemWord(load=True, rd=rd, rn=base, offset=Operand2Reg(self.s1), byte=byte)
                    )
            else:
                off = self.read(ins.offset, self.s1)
                self.emit(MemWord(load=True, rd=rd, rn=base, offset=Operand2Reg(off), byte=byte))
        else:
            half = ins.width is Width.HALF
            if isinstance(ins.offset, int) and -255 <= ins.offset <= 255:
                self.emit(
                    MemHalf(load=True, rd=rd, rn=base, offset=ins.offset, half=half, signed=ins.signed)
                )
            else:
                ea = self.effective_address(base, ins.offset)
                self.emit(MemHalf(load=True, rd=rd, rn=ea, offset=0, half=half, signed=ins.signed))
        self.write_back(ins.dst, rd)

    def effective_address(self, base_reg, offset):
        """ADD base+offset into a scratch (for forms without reg offsets)."""
        if isinstance(offset, int):
            op2, dp = self.arith_imm(DPOp.ADD, offset)
            if op2 is None:
                self.load_const(self.s1, offset)
                op2, dp = Operand2Reg(self.s1), DPOp.ADD
        else:
            op2, dp = Operand2Reg(self.read(offset, self.s1)), DPOp.ADD
        self.emit(DataProc(dp, self.s1, base_reg, op2))
        return self.s1

    def sel_store(self, ins):
        spilled = sum(
            1
            for v in (ins.src, ins.base, ins.offset)
            if not isinstance(v, int) and self.loc(v)[0] == "s"
        )
        base = self.read(ins.base, SCRATCH0)
        if ins.width is Width.WORD or ins.width is Width.BYTE:
            byte = ins.width is Width.BYTE
            if isinstance(ins.offset, int) and -4095 <= ins.offset <= 4095:
                src = self.read(ins.src, self.s1)
                self.emit(MemWord(load=False, rd=src, rn=base, offset=ins.offset, byte=byte))
            elif spilled >= 2 or isinstance(ins.offset, int):
                ea = self.effective_address(base, ins.offset)
                src = self.read(ins.src, SCRATCH0)
                self.emit(MemWord(load=False, rd=src, rn=ea, offset=0, byte=byte))
            else:
                # at most one of src/base/offset is spilled here, so the
                # scratch assignments below cannot collide
                off = self.read(ins.offset, self.s1)
                src = self.read(ins.src, SCRATCH0)
                self.emit(MemWord(load=False, rd=src, rn=base, offset=Operand2Reg(off), byte=byte))
        else:
            if isinstance(ins.offset, int) and -255 <= ins.offset <= 255:
                src = self.read(ins.src, self.s1)
                self.emit(MemHalf(load=False, rd=src, rn=base, offset=ins.offset))
            else:
                ea = self.effective_address(base, ins.offset)
                src = self.read(ins.src, SCRATCH0)
                self.emit(MemHalf(load=False, rd=src, rn=ea, offset=0))

    # ------------------------------------------------------------------
    # control flow

    def sel_cbr(self, ins, next_label):
        lhs = self.read(ins.lhs, SCRATCH0)
        if isinstance(ins.rhs, int):
            op2 = self.imm_op2(ins.rhs)
            dp = DPOp.CMP
            if op2 is None:
                neg = self.imm_op2(-ins.rhs & 0xFFFFFFFF)
                if neg is not None:
                    op2, dp = neg, DPOp.CMN
                else:
                    self.load_const(self.s1, ins.rhs)
                    op2 = Operand2Reg(self.s1)
        else:
            op2, dp = Operand2Reg(self.read(ins.rhs, self.s1)), DPOp.CMP
        self.emit(DataProc(dp, 0, lhs, op2))
        cond = COND_MAP[ins.cond]
        if ins.if_false == next_label:
            self.branch_to(ins.if_true, cond)
        elif ins.if_true == next_label:
            self.branch_to(ins.if_false, INVERT[cond])
        else:
            self.branch_to(ins.if_true, cond)
            label = self.origin
            self.origin = (label, "else")
            self.branch_to(ins.if_false)
            self.origin = label

    def sel_call(self, ins):
        moves = []
        for i, arg in enumerate(ins.args):
            moves.append(((("r", i)), self.loc(arg)))
        self.parallel_moves(moves)
        self.code.relocs.append((len(self.code.instrs), "bl", ins.callee))
        self.emit(Branch(0, link=True))  # placeholder
        if ins.dst is not None:
            kind, value = self.loc(ins.dst)
            if kind == "r":
                if value != 0:
                    self.emit(DataProc(DPOp.MOV, value, 0, Operand2Reg(0)))
            else:
                self.emit(MemWord(load=False, rd=0, rn=SP, offset=self.slot_offset[value]))

    def sel_ret(self, ins):
        if ins.value is not None:
            kind, value = self.loc(ins.value)
            if kind == "r":
                if value != 0:
                    self.emit(DataProc(DPOp.MOV, 0, 0, Operand2Reg(value)))
            else:
                self.emit(MemWord(load=True, rd=0, rn=SP, offset=self.slot_offset[value]))
        self.branch_to(self.epilogue_label)


#: Allocation → its selected :class:`FunctionCode`.  Weakly keyed: an
#: entry dies with its allocation, and so with its IR function.
_SELECTED = weakref.WeakKeyDictionary()


def compile_function_arm(func, callee_saved=None):
    """Allocate registers and select ARM code for one IR function.

    ``callee_saved`` restricts the allocatable callee-saved pool — the
    FITS-aware compilation mode uses (r4, r5) so that every register
    visible in instruction fields fits a 3-bit FITS register index (sp,
    lr and pc are reached through dedicated formats, not fields).

    The code is memoized per allocation and shared: a linker relocates
    a copy of its ``instrs``.
    """
    if func.num_args > 4:
        raise ValueError(
            "@%s: %d args; the register convention supports at most 4"
            % (func.name, func.num_args)
        )
    if callee_saved is None:
        alloc = allocate_registers(func)
    else:
        alloc = allocate_registers(func, callee_saved=callee_saved)
    code = _SELECTED.get(alloc)
    if code is None:
        code = _SELECTED[alloc] = _Selector(func, alloc).run()
        obs.counter("compile.arm.selections")
    return code


def make_start_stub(entry):
    """``_start``: call the entry function, then SWI #0 (exit, r0=status)."""
    code = FunctionCode("_start")
    code.relocs.append((0, "bl", entry))
    code.instrs.append(Branch(0, link=True))
    code.instrs.append(Swi(0))
    code.origins = ["prologue", "prologue"]
    return code
