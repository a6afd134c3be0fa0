"""Linker: lay out function code and global data, resolve relocations.

Memory map (byte addresses)::

    0x0000_0000 .. CODE_BASE-1   unmapped guard (null derefs fault)
    CODE_BASE ..                 code, one function after another
    (code end, 8-aligned) ..     data (module globals, zero-filled tails)
    ... up to DATA_LIMIT         (global addresses must fit two 8-bit
                                  immediate chunks, i.e. 16 bits)
    STACK_TOP                    initial stack pointer (grows down)

The paper's experiments only need the *instruction* address stream to be
realistic; keeping data addresses below 64 KiB lets every global address
materialize in exactly two instructions, mirroring the fixed-length
literal sequences an embedded linker would emit.
"""

from repro.ir.verify import verify_module
from repro.obs import core as obs
from repro.isa.arm import (
    Branch,
    DataProc,
    DPOp,
    Operand2Imm,
    disassemble,
    encode_rotated_imm,
)
from repro.compiler.arm_backend import compile_function_arm, make_start_stub

CODE_BASE = 0x1000
DATA_LIMIT = 0x10000
MEMORY_SIZE = 0x200000  # 2 MiB
STACK_TOP = MEMORY_SIZE - 16


class LinkError(Exception):
    """Raised when the image cannot be laid out (size limits, symbols)."""


class Image:
    """A linked, executable program image.

    Attributes:
        words: encoded machine words, code only, in address order.
        instrs: the decoded instruction objects (same order as words).
        code_base / data_base: segment start addresses.
        symbols: function name → entry byte address.
        func_of_index: function name owning each instruction index.
        origin_of_index: ``(function, origin)`` of each instruction
            index, the origin being the IR block it was lowered from
            (see :mod:`repro.compiler.arm_backend`); None for an image
            not compiled from IR.
        global_addr: global name → byte address.
        data_bytes: initialized data segment contents.
        entry: name of the application entry function.
    """

    def __init__(self, name, words, instrs, symbols, func_of_index, global_addr, data_bytes,
                 data_base, entry, origin_of_index=None):
        self.name = name
        self.words = words
        self.instrs = instrs
        self.code_base = CODE_BASE
        self.symbols = dict(symbols)
        self.func_of_index = func_of_index
        self.origin_of_index = origin_of_index
        self.global_addr = dict(global_addr)
        self.data_base = data_base
        self.data_bytes = data_bytes
        self.entry = entry
        self.memory_size = MEMORY_SIZE
        self.stack_top = STACK_TOP

    @property
    def code_size(self):
        """Code segment size in bytes (the paper's code-size metric)."""
        return 4 * len(self.words)

    def addr_of_index(self, index):
        return self.code_base + 4 * index

    def index_of_addr(self, addr):
        offset = addr - self.code_base
        if offset % 4 or not 0 <= offset < 4 * len(self.words):
            raise ValueError("0x%x is not a code address" % addr)
        return offset // 4

    def initial_memory(self):
        """Fresh memory image (code + data placed, rest zero)."""
        mem = bytearray(self.memory_size)
        for i, word in enumerate(self.words):
            mem[self.code_base + 4 * i : self.code_base + 4 * i + 4] = word.to_bytes(4, "little")
        mem[self.data_base : self.data_base + len(self.data_bytes)] = self.data_bytes
        return mem

    def disassembly(self):
        lines = []
        current = None
        for i, instr in enumerate(self.instrs):
            fname = self.func_of_index[i]
            if fname != current:
                lines.append("\n<%s>:" % fname)
                current = fname
            pc = self.addr_of_index(i)
            lines.append("%08x:  %08x  %s" % (pc, self.words[i], disassemble(instr, pc)))
        return "\n".join(lines)

    def __repr__(self):
        return "<Image %s: %d instrs, %d data bytes>" % (
            self.name,
            len(self.words),
            len(self.data_bytes),
        )


def link_arm(module, entry="main", callee_saved=None):
    """Compile every function in ``module`` and link an executable image.

    ``callee_saved`` is forwarded to the per-function compiler (the
    FITS-aware register-budget mode).
    """
    with obs.span("stage.compile", isa="arm", module=module.name):
        return _link_arm(module, entry, callee_saved)


def _link_arm(module, entry, callee_saved):
    verify_module(module, entry=entry)
    codes = [make_start_stub(entry)]
    names = ["_start"]
    if entry in module.functions:
        codes.append(compile_function_arm(module.functions[entry], callee_saved))
        names.append(entry)
    for name, func in module.functions.items():
        if name == entry:
            continue
        codes.append(compile_function_arm(func, callee_saved))
        names.append(name)

    func_addr = {}
    addr = CODE_BASE
    for code in codes:
        func_addr[code.name] = addr
        addr += 4 * len(code.instrs)
    code_end = addr

    # data layout
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
    if cursor > DATA_LIMIT:
        raise LinkError(
            "image too large: data ends at 0x%x, limit 0x%x (shrink workload data)"
            % (cursor, DATA_LIMIT)
        )

    # relocation, into a copy: compiled function code is shared
    # (see compile_function_arm)
    instrs = []
    func_of_index = []
    origin_of_index = []
    for code in codes:
        base = func_addr[code.name]
        body = list(code.instrs)
        for index, kind, payload in code.relocs:
            pc = base + 4 * index
            if kind == "bl":
                if payload not in func_addr:
                    raise LinkError("undefined function @%s" % payload)
                offset = (func_addr[payload] - (pc + 8)) // 4
                body[index] = Branch(offset, link=True)
            elif kind in ("ga_hi", "ga_lo"):
                rd, symbol = payload
                if symbol not in global_addr:
                    raise LinkError("undefined global @%s" % symbol)
                target = global_addr[symbol]
                if kind == "ga_hi":
                    chunk = target & 0xFF00
                    body[index] = DataProc(
                        DPOp.MOV, rd, 0, Operand2Imm(*encode_rotated_imm(chunk))
                    )
                else:
                    chunk = target & 0xFF
                    body[index] = DataProc(
                        DPOp.ORR, rd, rd, Operand2Imm(*encode_rotated_imm(chunk))
                    )
            else:
                raise LinkError("unknown reloc kind %r" % kind)
        instrs.extend(body)
        func_of_index.extend([code.name] * len(body))
        # one (function, origin) tuple per origin, shared by its
        # instructions: an image holds a few hundred, not one per index
        pairs = {}
        origin_of_index.extend(pairs.setdefault(origin, (code.name, origin))
                               for origin in code.origins)

    words = [ins.encode() for ins in instrs]
    if obs.enabled:
        obs.counter("compile.arm.images")
        obs.counter("compile.arm.instructions", len(instrs))
        obs.counter("compile.arm.data_bytes", len(data))
    return Image(
        name=module.name,
        words=words,
        instrs=instrs,
        symbols=func_addr,
        func_of_index=func_of_index,
        origin_of_index=origin_of_index,
        global_addr=global_addr,
        data_bytes=bytes(data),
        data_base=data_start,
        entry=entry,
    )
