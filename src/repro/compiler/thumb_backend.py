"""Thumb back end: IR → 16-bit Thumb code, plus its linker.

The selector faces the genuine Thumb-1 restrictions that the paper
blames for Thumb's limited code-size win:

* eight visible registers (and two of those reserved as scratches here,
  as compilers reserve temporaries), so spills come earlier than ARM's;
* two-address ALU operations, forcing copy instructions;
* 8-bit immediates with multi-instruction constant synthesis;
* short unsigned memory displacements.

Branch relaxation: conditional branches reach only ±256 bytes, so
out-of-range conditional branches are rewritten as an inverted-condition
hop over an unconditional branch, iterating until the layout converges.
"""

import weakref

from repro.ir.ops import Op, Cond as ICond, Width
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
from repro.ir.verify import verify_module
from repro.obs import core as obs
from repro.isa.thumb import (
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
from repro.compiler.regalloc import allocate_registers

#: Thumb register roles: four caller-saved, two callee-saved allocatable,
#: two reserved scratches (like a frame-pointer/temp reservation).
T_CALLER = (0, 1, 2, 3)
T_CALLEE = (4, 5)
T0 = 6
T1 = 7

COND_MAP = {
    ICond.EQ: TCond.EQ,
    ICond.NE: TCond.NE,
    ICond.LT: TCond.LT,
    ICond.LE: TCond.LE,
    ICond.GT: TCond.GT,
    ICond.GE: TCond.GE,
    ICond.LTU: TCond.CC,
    ICond.LEU: TCond.LS,
    ICond.GTU: TCond.HI,
    ICond.GEU: TCond.CS,
}

INVERT = {
    TCond.EQ: TCond.NE,
    TCond.NE: TCond.EQ,
    TCond.LT: TCond.GE,
    TCond.GE: TCond.LT,
    TCond.GT: TCond.LE,
    TCond.LE: TCond.GT,
    TCond.CC: TCond.CS,
    TCond.CS: TCond.CC,
    TCond.HI: TCond.LS,
    TCond.LS: TCond.HI,
}

TWO_ADDRESS = {
    Op.AND: (TAluOp.AND, True),
    Op.ORR: (TAluOp.ORR, True),
    Op.EOR: (TAluOp.EOR, True),
    Op.MUL: (TAluOp.MUL, True),
    Op.LSL: (TAluOp.LSL, False),
    Op.LSR: (TAluOp.LSR, False),
    Op.ASR: (TAluOp.ASR, False),
}


class PendingBranch:
    """Placeholder for an intra-function branch, resolved after layout."""

    __slots__ = ("cond", "label")
    size_halfwords = 1

    def __init__(self, cond, label):
        self.cond = cond  # TCond or None for unconditional
        self.label = label


class PendingBL:
    """Placeholder for a call, resolved at link time."""

    __slots__ = ("symbol",)
    size_halfwords = 2

    def __init__(self, symbol):
        self.symbol = symbol


class PendingGA:
    """Placeholder for one piece of a global-address sequence."""

    __slots__ = ("part", "rd", "symbol")
    size_halfwords = 1

    def __init__(self, part, rd, symbol):
        self.part = part  # "hi" (mov) or "lo" (add)
        self.rd = rd
        self.symbol = symbol


class ThumbFunctionCode:
    def __init__(self, name):
        self.name = name
        self.items = []
        self.labels = {}  # label -> item list position


def thumb_const_pieces(value):
    """Instruction plan for a 32-bit constant under Thumb rules.

    Returns a list of ('mov'|'add'|'lsl'|'neg'|'mvn', imm) steps applied
    to the destination register in order.
    """
    value &= 0xFFFFFFFF
    if value <= 255:
        return [("mov", value)]
    if 0xFFFFFF01 <= value:  # -255 .. -1
        return [("mov", (-value) & 0xFF), ("neg", 0)]
    if (value ^ 0xFFFFFFFF) <= 255:
        return [("mov", value ^ 0xFFFFFFFF), ("mvn", 0)]
    for shift in range(1, 25):
        if value == (value >> shift) << shift and (value >> shift) <= 255:
            return [("mov", value >> shift), ("lsl", shift)]
    # general byte chain, most significant byte first
    out = []
    started = False
    for byte_idx in (3, 2, 1, 0):
        byte = (value >> (8 * byte_idx)) & 0xFF
        if not started:
            if byte == 0:
                continue
            out.append(("mov", byte))
            started = True
        else:
            out.append(("lsl", 8))
            if byte:
                out.append(("add", byte))
    return out


class _ThumbSelector:
    def __init__(self, func, alloc):
        self.func = func
        self.alloc = alloc
        self.code = ThumbFunctionCode(func.name)
        self.epilogue_label = "__epilogue"
        self.saved = [r for r in alloc.used_callee_saved if r in T_CALLEE]
        self.frame_bytes = 4 * alloc.num_slots
        if self.frame_bytes % 8:
            self.frame_bytes += 4
        if self.frame_bytes > 1016:
            raise ValueError("@%s: Thumb frame too large (%d bytes)" % (func.name, self.frame_bytes))

    def emit(self, item):
        self.code.items.append(item)

    def mark(self, label):
        self.code.labels[label] = len(self.code.items)

    # ------------------------------------------------------------------

    def loc(self, v):
        return self.alloc.location(v)

    def slot_off(self, slot):
        return 4 * slot

    def read(self, v, scratch):
        kind, value = self.loc(v)
        if kind == "r":
            return value
        self.emit(TLoadStoreSpRel(True, scratch, self.slot_off(value)))
        return scratch

    def write_back(self, v, reg):
        kind, value = self.loc(v)
        if kind == "s":
            self.emit(TLoadStoreSpRel(False, reg, self.slot_off(value)))

    def dest(self, v):
        kind, value = self.loc(v)
        return value if kind == "r" else T0

    def copy(self, dst, src):
        if dst != src:
            self.emit(TAddSub(False, dst, src, 0, imm=True))

    def load_const(self, rd, value):
        for kind, imm in thumb_const_pieces(value):
            if kind == "mov":
                self.emit(TMovCmpAddSubImm("mov", rd, imm))
            elif kind == "add":
                self.emit(TMovCmpAddSubImm("add", rd, imm))
            elif kind == "lsl":
                self.emit(TShiftImm("lsl", rd, rd, imm))
            elif kind == "neg":
                self.emit(TAlu(TAluOp.NEG, rd, rd))
            else:  # mvn
                self.emit(TAlu(TAluOp.MVN, rd, rd))

    # ------------------------------------------------------------------

    def run(self):
        self.prologue()
        order = [blk.label for blk in self.func.blocks]
        next_of = {order[i]: order[i + 1] if i + 1 < len(order) else None for i in range(len(order))}
        for blk in self.func.blocks:
            self.mark(blk.label)
            for ins in blk.instrs:
                self.select(ins, next_of[blk.label])
        self.mark(self.epilogue_label)
        self.epilogue()
        return self.code

    def prologue(self):
        self.emit(TPushPop(False, self.saved, extra=True))  # push {saved, lr}
        if self.frame_bytes:
            self._adjust_sp(-self.frame_bytes)
        moves = []
        for i in range(self.func.num_args):
            if i not in self.alloc.intervals:
                continue
            moves.append((self.alloc.location(i), ("r", i)))
        self.parallel_moves(moves)

    def epilogue(self):
        if self.frame_bytes:
            self._adjust_sp(self.frame_bytes)
        self.emit(TPushPop(True, self.saved, extra=True))  # pop {saved, pc}

    def _adjust_sp(self, delta):
        while delta:
            step = max(-508, min(508, delta))
            self.emit(TAdjustSp(step))
            delta -= step

    def parallel_moves(self, moves):
        pending = []
        for dst, src in moves:
            if dst == src:
                continue
            if dst[0] == "s":
                if src[0] == "r":
                    self.emit(TLoadStoreSpRel(False, src[1], self.slot_off(dst[1])))
                else:
                    self.emit(TLoadStoreSpRel(True, T0, self.slot_off(src[1])))
                    self.emit(TLoadStoreSpRel(False, T0, self.slot_off(dst[1])))
            else:
                pending.append([dst[1], src])
        while pending:
            src_regs = {src[1] for _d, src in pending if src[0] == "r"}
            ready = [mv for mv in pending if mv[0] not in src_regs]
            if ready:
                for dst, src in ready:
                    if src[0] == "r":
                        self.copy(dst, src[1])
                    else:
                        self.emit(TLoadStoreSpRel(True, dst, self.slot_off(src[1])))
                pending = [mv for mv in pending if mv[0] in src_regs]
            else:
                _dst, src = pending[0]
                self.copy(T0, src[1])
                for mv in pending:
                    if mv[1] == ("r", src[1]):
                        mv[1] = ("r", T0)

    # ------------------------------------------------------------------

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
            dst, src = self.loc(ins.dst), self.loc(ins.src)
            if dst != src:
                self.parallel_moves([(dst, src)])
        elif isinstance(ins, CBr):
            self.sel_cbr(ins, next_label)
        elif isinstance(ins, Br):
            if ins.target != next_label:
                self.emit(PendingBranch(None, ins.target))
        elif isinstance(ins, Call):
            self.sel_call(ins)
        elif isinstance(ins, Ret):
            self.sel_ret(ins)
        elif isinstance(ins, GlobalAddr):
            rd = self.dest(ins.dst)
            self.emit(PendingGA("hi", rd, ins.symbol))
            self.emit(TShiftImm("lsl", rd, rd, 8))
            self.emit(PendingGA("lo", rd, ins.symbol))
            self.write_back(ins.dst, rd)
        else:
            raise TypeError("cannot select %r" % (ins,))

    def sel_bin(self, ins):
        op = ins.op
        if op in (Op.ADD, Op.SUB, Op.RSB):
            return self.sel_addsub(ins)
        if op in (Op.LSL, Op.LSR, Op.ASR) and isinstance(ins.rhs, int):
            lhs = self.read(ins.lhs, T0)
            rd = self.dest(ins.dst)
            if ins.rhs == 0:
                self.copy(rd, lhs)
            else:
                self.emit(TShiftImm(op.value, rd, lhs, ins.rhs))
            self.write_back(ins.dst, rd)
            return
        # two-address ALU group
        alu_op, commutative = TWO_ADDRESS[op]
        lhs = self.read(ins.lhs, T0)
        if isinstance(ins.rhs, int):
            self.load_const(T1, ins.rhs)
            rhs = T1
        else:
            rhs = self.read(ins.rhs, T1)
        rd = self.dest(ins.dst)
        if rd == rhs and rd != lhs:
            if commutative:
                self.emit(TAlu(alu_op, rd, lhs))
            else:
                self.copy(T1, rhs)
                self.copy(rd, lhs)
                self.emit(TAlu(alu_op, rd, T1))
        else:
            self.copy(rd, lhs)
            self.emit(TAlu(alu_op, rd, rhs))
        self.write_back(ins.dst, rd)

    def sel_addsub(self, ins):
        op = ins.op
        lhs = self.read(ins.lhs, T0)
        rd = self.dest(ins.dst)
        if isinstance(ins.rhs, int):
            value = ins.rhs & 0xFFFFFFFF
            neg = (-value) & 0xFFFFFFFF
            if op is Op.RSB:
                self.load_const(T1, value)
                self.emit(TAddSub(True, rd, T1, lhs))
            elif value <= 7:
                self.emit(TAddSub(op is Op.SUB, rd, lhs, value, imm=True))
            elif neg <= 7:
                self.emit(TAddSub(op is Op.ADD, rd, lhs, neg, imm=True))
            elif value <= 255:
                self.copy(rd, lhs)
                self.emit(TMovCmpAddSubImm("sub" if op is Op.SUB else "add", rd, value))
            elif neg <= 255:
                self.copy(rd, lhs)
                self.emit(TMovCmpAddSubImm("add" if op is Op.SUB else "sub", rd, neg))
            else:
                self.load_const(T1, value)
                self.emit(TAddSub(op is Op.SUB, rd, lhs, T1))
        else:
            rhs = self.read(ins.rhs, T1)
            if op is Op.RSB:
                self.emit(TAddSub(True, rd, rhs, lhs))
            else:
                self.emit(TAddSub(op is Op.SUB, rd, lhs, rhs))
        self.write_back(ins.dst, rd)

    def sel_load(self, ins):
        base = self.read(ins.base, T0)
        rd = self.dest(ins.dst)
        width = int(ins.width)
        off = ins.offset
        if (
            not ins.signed
            and isinstance(off, int)
            and off >= 0
            and off % width == 0
            and off // width < 32
        ):
            self.emit(TLoadStoreImm(True, rd, base, off, width=width))
        else:
            if isinstance(off, int):
                self.load_const(T1, off)
                off_r = T1
            else:
                off_r = self.read(ins.offset, T1)
            self.emit(TLoadStoreReg(True, rd, base, off_r, width=width, signed=ins.signed))
        self.write_back(ins.dst, rd)

    def sel_store(self, ins):
        base = self.read(ins.base, T0)
        width = int(ins.width)
        off = ins.offset
        if isinstance(off, int) and off >= 0 and off % width == 0 and off // width < 32:
            src = self.read(ins.src, T1)
            self.emit(TLoadStoreImm(False, src, base, off, width=width))
            return
        if isinstance(off, int):
            self.load_const(T1, off)
            off_r = T1
        else:
            off_r = self.read(ins.offset, T1)
        if self.loc(ins.src)[0] == "s":
            # both scratches busy: fold the effective address into T1
            self.emit(TAddSub(False, T1, base, off_r))
            src = self.read(ins.src, T0)
            self.emit(TLoadStoreImm(False, src, T1, 0, width=width))
        else:
            src = self.loc(ins.src)[1]
            self.emit(TLoadStoreReg(False, src, base, off_r, width=width))

    def sel_cbr(self, ins, next_label):
        lhs = self.read(ins.lhs, T0)
        if isinstance(ins.rhs, int) and 0 <= ins.rhs <= 255:
            self.emit(TMovCmpAddSubImm("cmp", lhs, ins.rhs))
        else:
            if isinstance(ins.rhs, int):
                self.load_const(T1, ins.rhs)
                rhs = T1
            else:
                rhs = self.read(ins.rhs, T1)
            self.emit(TAlu(TAluOp.CMP, lhs, rhs))
        cond = COND_MAP[ins.cond]
        if ins.if_false == next_label:
            self.emit(PendingBranch(cond, ins.if_true))
        elif ins.if_true == next_label:
            self.emit(PendingBranch(INVERT[cond], ins.if_false))
        else:
            self.emit(PendingBranch(cond, ins.if_true))
            self.emit(PendingBranch(None, ins.if_false))

    def sel_call(self, ins):
        moves = [(("r", i), self.loc(arg)) for i, arg in enumerate(ins.args)]
        self.parallel_moves(moves)
        self.emit(PendingBL(ins.callee))
        if ins.dst is not None:
            kind, value = self.loc(ins.dst)
            if kind == "r":
                self.copy(value, 0)
            else:
                self.emit(TLoadStoreSpRel(False, 0, self.slot_off(value)))

    def sel_ret(self, ins):
        if ins.value is not None:
            kind, value = self.loc(ins.value)
            if kind == "r":
                self.copy(0, value)
            else:
                self.emit(TLoadStoreSpRel(True, 0, self.slot_off(value)))
        self.emit(PendingBranch(None, self.epilogue_label))


#: Allocation → its selected :class:`ThumbFunctionCode`, weakly keyed
#: as in :mod:`repro.compiler.arm_backend`.
_SELECTED = weakref.WeakKeyDictionary()


def compile_function_thumb(func):
    """Allocate and select Thumb code for one IR function; the code is
    memoized per allocation and shared (the linker only reads it)."""
    if func.num_args > 4:
        raise ValueError("@%s: more than 4 args unsupported" % func.name)
    alloc = allocate_registers(func, caller_saved=T_CALLER, callee_saved=T_CALLEE)
    code = _SELECTED.get(alloc)
    if code is None:
        code = _SELECTED[alloc] = _ThumbSelector(func, alloc).run()
        obs.counter("compile.thumb.selections")
    return code


# ----------------------------------------------------------------------
# layout, relaxation and linking


def _layout(items):
    """Halfword index of each item (prefix sums of instruction sizes)."""
    positions = []
    hw = 0
    for item in items:
        positions.append(hw)
        hw += item.size_halfwords
    return positions, hw


def _resolve_function(code):
    """Relax and resolve intra-function branches; returns final item list
    where PendingBranch is replaced by concrete TBranch/TCondBranch."""
    items = list(code.items)
    labels = dict(code.labels)  # label -> item position

    def label_positions():
        positions, _total = _layout(items)
        # label item positions may equal len(items) (epilogue at end guard)
        hw_of_label = {}
        for label, item_pos in labels.items():
            hw_of_label[label] = (
                positions[item_pos] if item_pos < len(items) else _layout(items)[1]
            )
        return positions, hw_of_label

    for _round in range(40):
        positions, hw_of_label = label_positions()
        changed = False
        for i, item in enumerate(items):
            if not isinstance(item, PendingBranch) or item.cond is None:
                continue
            off = hw_of_label[item.label] - (positions[i] + 2)
            if not -128 <= off <= 127:
                # relax: inverted-condition hop over an unconditional branch
                items[i : i + 1] = [
                    _SkipNext(INVERT[item.cond]),
                    PendingBranch(None, item.label),
                ]
                for label, pos in labels.items():
                    if pos > i:
                        labels[label] = pos + 1
                changed = True
                break
        if not changed:
            break
    else:
        raise ValueError("branch relaxation did not converge in @%s" % code.name)

    positions, hw_of_label = label_positions()
    out = []
    for i, item in enumerate(items):
        if isinstance(item, _SkipNext):
            out.append(TCondBranch(item.cond, 0))  # skip exactly the next instr
        elif isinstance(item, PendingBranch):
            off = hw_of_label[item.label] - (positions[i] + 2)
            if item.cond is None:
                out.append(TBranch(off))
            else:
                out.append(TCondBranch(item.cond, off))
        else:
            out.append(item)
    return out


class _SkipNext:
    """Relaxation artifact: a conditional branch over the next (1-hw) item."""

    __slots__ = ("cond",)
    size_halfwords = 1

    def __init__(self, cond):
        self.cond = cond


class ThumbImage:
    """A linked Thumb executable (16-bit halfword code stream)."""

    CODE_BASE = 0x1000
    DATA_LIMIT = 0x10000
    MEMORY_SIZE = 0x200000
    STACK_TOP = MEMORY_SIZE - 16

    def __init__(self, name, halfwords, instr_at, symbols, global_addr, data_bytes, data_base, entry):
        self.name = name
        self.halfwords = halfwords
        self.instr_at = instr_at  # per halfword slot: instr object or None (bl lo half)
        self.code_base = self.CODE_BASE
        self.symbols = symbols
        self.global_addr = global_addr
        self.data_bytes = data_bytes
        self.data_base = data_base
        self.entry = entry
        self.memory_size = self.MEMORY_SIZE
        self.stack_top = self.STACK_TOP

    @property
    def code_size(self):
        return 2 * len(self.halfwords)

    def addr_of_index(self, index):
        return self.code_base + 2 * index

    def index_of_addr(self, addr):
        offset = addr - self.code_base
        if offset % 2 or not 0 <= offset < 2 * len(self.halfwords):
            raise ValueError("0x%x is not a thumb code address" % addr)
        return offset // 2

    def initial_memory(self):
        mem = bytearray(self.memory_size)
        for i, half in enumerate(self.halfwords):
            mem[self.code_base + 2 * i : self.code_base + 2 * i + 2] = half.to_bytes(2, "little")
        mem[self.data_base : self.data_base + len(self.data_bytes)] = self.data_bytes
        return mem


def link_thumb(module, entry="main"):
    """Compile every function with the Thumb back end and link an image."""
    with obs.span("stage.compile", isa="thumb", module=module.name):
        return _link_thumb(module, entry)


def _link_thumb(module, entry):
    verify_module(module, entry=entry)
    # _start stub: bl entry; swi 0
    start = ThumbFunctionCode("_start")
    start.items = [PendingBL(entry), TSwi(0)]

    codes = [start]
    if entry in module.functions:
        codes.append(compile_function_thumb(module.functions[entry]))
    for name, func in module.functions.items():
        if name != entry:
            codes.append(compile_function_thumb(func))

    resolved = []
    for code in codes:
        if code.name == "_start":
            resolved.append((code.name, list(code.items)))
        else:
            resolved.append((code.name, _resolve_function(code)))

    func_hw = {}
    hw = 0
    for name, items in resolved:
        func_hw[name] = hw
        hw += sum(item.size_halfwords for item in items)
    code_end = ThumbImage.CODE_BASE + 2 * hw

    data_start = (code_end + 7) & ~7
    global_addr = {}
    data = bytearray()
    cursor = data_start
    for glob in module.globals.values():
        pad = (-cursor) % glob.align
        data.extend(b"\x00" * pad)
        cursor += pad
        global_addr[glob.name] = cursor
        payload = glob.initial_bytes()
        data.extend(payload)
        cursor += len(payload)
    if cursor > ThumbImage.DATA_LIMIT:
        raise ValueError("thumb image too large: data ends at 0x%x" % cursor)

    halfwords = []
    instr_at = []
    for name, items in resolved:
        for item in items:
            pos = len(halfwords)
            if isinstance(item, PendingBL):
                if item.symbol not in func_hw:
                    raise ValueError("undefined function @%s" % item.symbol)
                off = func_hw[item.symbol] - (pos + 2)
                bl = TBranchLink(off)
                hi, lo = bl.encode()
                halfwords.extend([hi, lo])
                instr_at.extend([bl, None])
            elif isinstance(item, PendingGA):
                target = global_addr.get(item.symbol)
                if target is None:
                    raise ValueError("undefined global @%s" % item.symbol)
                if item.part == "hi":
                    concrete = TMovCmpAddSubImm("mov", item.rd, (target >> 8) & 0xFF)
                else:
                    concrete = TMovCmpAddSubImm("add", item.rd, target & 0xFF)
                halfwords.append(concrete.encode())
                instr_at.append(concrete)
            else:
                halfwords.append(item.encode())
                instr_at.append(item)

    if obs.enabled:
        obs.counter("compile.thumb.images")
        obs.counter("compile.thumb.halfwords", len(halfwords))
    return ThumbImage(
        name=module.name,
        halfwords=halfwords,
        instr_at=instr_at,
        symbols={n: ThumbImage.CODE_BASE + 2 * p for n, p in func_hw.items()},
        global_addr=global_addr,
        data_bytes=bytes(data),
        data_base=data_start,
        entry=entry,
    )
