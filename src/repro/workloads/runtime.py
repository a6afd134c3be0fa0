"""The shared runtime library ("libmini"), written in IR.

Real MiBench binaries link substantial libc/compiler-runtime code
(software division on ARM, memcpy, string ops, math helpers); that code
is part of the I-cache footprint the paper measures, so we provide the
same kind of library and link it into every workload:

* ``__udiv``/``__urem``/``__sdiv``/``__srem`` — shift-subtract division
  (ARM has no divide instruction),
* ``memcpy``/``memset`` — word-at-a-time with byte fallback,
* ``strlen``/``strcmp``,
* ``isqrt`` — integer square root,
* ``sin_q15``/``cos_q15`` — Q15 table sine/cosine,
* ``rand_next``/``srand`` — xorshift32 PRNG,
* ``clz32`` — count leading zeros.

Python mirrors of these functions live in :mod:`repro.workloads.pyref`
so workload reference models can reproduce checksums bit-exactly.
"""

import functools
import math
import struct

from repro.ir import Cond, FunctionBuilder, Global, Module, Width

SIN_TABLE_SIZE = 1024


def sin_table_bytes():
    """Q15 sine table, one full period, little-endian int16."""
    out = bytearray()
    for i in range(SIN_TABLE_SIZE):
        value = int(round(32767 * math.sin(2 * math.pi * i / SIN_TABLE_SIZE)))
        out += struct.pack("<h", value)
    return bytes(out)


@functools.lru_cache(maxsize=None)
def runtime_module():
    """The module containing the runtime library, built once per process.

    Every workload module merges these same functions and globals: IR
    is never modified once built, and the compiler memoizes per IR
    function, so each process allocates and selects the library once,
    not once per kernel and link.
    """
    m = Module("runtime")
    m.add_global(Global("__divmod_rem", size=4))
    m.add_global(Global("__rand_state", data=(0x2545F491).to_bytes(4, "little")))
    m.add_global(Global("__sin_table", data=sin_table_bytes(), align=4))
    _build_udivmod(m)
    _build_div_wrappers(m)
    _build_memcpy(m)
    _build_memset(m)
    _build_strlen(m)
    _build_strcmp(m)
    _build_isqrt(m)
    _build_trig(m)
    _build_rand(m)
    _build_clz(m)
    return m


def _build_udivmod(m):
    b = FunctionBuilder(m, "__udivmod", ["n", "d"])
    n, d = b.args
    rem = b.ga("__divmod_rem")
    with b.if_then(Cond.EQ, d, 0):
        b.store(n, rem)  # division by zero: quotient 0, remainder n
        b.ret(0)
    with b.if_then(Cond.GTU, d, n):
        b.store(n, rem)
        b.ret(0)
    with b.if_then(Cond.GEU, d, 0x80000000):
        # d <= n and d has the top bit: the quotient is exactly 1
        r = b.sub(n, d)
        b.store(r, rem)
        b.ret(1)
    q = b.li(0)
    r = b.li(0)
    with b.for_range(31, -1, step=-1) as i:
        bit = b.lsr(n, i)
        bit = b.and_(bit, 1)
        b.lsl(r, 1, dst=r)
        b.orr(r, bit, dst=r)
        with b.if_then(Cond.GEU, r, d):
            b.sub(r, d, dst=r)
            one = b.lsl(b.li(1), i)
            b.orr(q, one, dst=q)
    b.store(r, rem)
    b.ret(q)


def _build_div_wrappers(m):
    b = FunctionBuilder(m, "__udiv", ["n", "d"])
    b.ret(b.call("__udivmod", [b.arg("n"), b.arg("d")]))

    b = FunctionBuilder(m, "__urem", ["n", "d"])
    b.call("__udivmod", [b.arg("n"), b.arg("d")], dst=False)
    rem = b.ga("__divmod_rem")
    b.ret(b.load(rem))

    b = FunctionBuilder(m, "__sdiv", ["n", "d"])
    n, d = b.args
    sign = b.eor(n, d)
    an = b.abs_(n)
    ad = b.abs_(d)
    q = b.call("__udivmod", [an, ad])
    with b.if_then(Cond.LT, sign, 0):
        b.rsb(q, 0, dst=q)
    b.ret(q)

    b = FunctionBuilder(m, "__srem", ["n", "d"])
    n, d = b.args
    an = b.abs_(n)
    ad = b.abs_(d)
    b.call("__udivmod", [an, ad], dst=False)
    r = b.load(b.ga("__divmod_rem"))
    with b.if_then(Cond.LT, n, 0):
        b.rsb(r, 0, dst=r)
    b.ret(r)


def _build_memcpy(m):
    b = FunctionBuilder(m, "memcpy", ["dst", "src", "n"])
    dst, src, n = b.args
    t = b.orr(b.orr(dst, src), n)
    t = b.and_(t, 3)
    with b.if_then(Cond.EQ, t, 0):
        with b.for_range(0, n, step=4, unsigned=True) as i:
            b.store(b.load(src, i), dst, i)
        b.ret(dst)
    with b.for_range(0, n, unsigned=True) as i:
        b.store(b.load(src, i, Width.BYTE), dst, i, Width.BYTE)
    b.ret(dst)


def _build_memset(m):
    b = FunctionBuilder(m, "memset", ["dst", "c", "n"])
    dst, c, n = b.args
    byte = b.and_(c, 0xFF)
    t = b.orr(dst, n)
    t = b.and_(t, 3)
    with b.if_then(Cond.EQ, t, 0):
        word = b.mul(byte, 0x01010101)
        with b.for_range(0, n, step=4, unsigned=True) as i:
            b.store(word, dst, i)
        b.ret(dst)
    with b.for_range(0, n, unsigned=True) as i:
        b.store(byte, dst, i, Width.BYTE)
    b.ret(dst)


def _build_strlen(m):
    b = FunctionBuilder(m, "strlen", ["s"])
    s = b.arg("s")
    length = b.li(0)
    ch = b.load(s, 0, Width.BYTE)
    with b.loop_while(Cond.NE, ch, 0):
        b.add(length, 1, dst=length)
        b.load(s, length, Width.BYTE, dst=ch)
    b.ret(length)


def _build_strcmp(m):
    b = FunctionBuilder(m, "strcmp", ["a", "b"])
    pa, pb = b.args
    loop = b.new_block("loop")
    b.br(loop)
    b.at(loop)
    ca = b.load(pa, 0, Width.BYTE)
    cb = b.load(pb, 0, Width.BYTE)
    with b.if_then(Cond.NE, ca, cb):
        b.ret(b.sub(ca, cb))
    with b.if_then(Cond.EQ, ca, 0):
        b.ret(0)
    b.add(pa, 1, dst=pa)
    b.add(pb, 1, dst=pb)
    b.br(loop)


def _build_isqrt(m):
    b = FunctionBuilder(m, "isqrt", ["x"])
    x = b.arg("x")
    res = b.li(0)
    bit = b.li(1 << 30)
    with b.loop_while(Cond.GTU, bit, x):
        b.lsr(bit, 2, dst=bit)
    with b.loop_while(Cond.NE, bit, 0):
        t = b.add(res, bit)
        with b.if_else(Cond.GEU, x, t) as otherwise:
            b.sub(x, t, dst=x)
            b.lsr(res, 1, dst=res)
            b.add(res, bit, dst=res)
            with otherwise:
                b.lsr(res, 1, dst=res)
        b.lsr(bit, 2, dst=bit)
    b.ret(res)


def _build_trig(m):
    b = FunctionBuilder(m, "sin_q15", ["idx"])
    idx = b.arg("idx")
    masked = b.and_(idx, SIN_TABLE_SIZE - 1)
    off = b.lsl(masked, 1)
    table = b.ga("__sin_table")
    b.ret(b.load(table, off, Width.HALF, signed=True))

    b = FunctionBuilder(m, "cos_q15", ["idx"])
    b.ret(b.call("sin_q15", [b.add(b.arg("idx"), SIN_TABLE_SIZE // 4)]))


def _build_rand(m):
    b = FunctionBuilder(m, "srand", ["seed"])
    state = b.ga("__rand_state")
    seed = b.arg("seed")
    with b.if_then(Cond.EQ, seed, 0):
        b.li(0x2545F491, dst=seed)  # xorshift state must be nonzero
    b.store(seed, state)
    b.ret(seed)

    b = FunctionBuilder(m, "rand_next", [])
    state = b.ga("__rand_state")
    s = b.load(state)
    s = b.eor(s, b.lsl(s, 13))
    s = b.eor(s, b.lsr(s, 17))
    s = b.eor(s, b.lsl(s, 5))
    b.store(s, state)
    b.ret(b.and_(s, 0x7FFFFFFF))


def _build_clz(m):
    b = FunctionBuilder(m, "clz32", ["x"])
    x = b.arg("x")
    with b.if_then(Cond.EQ, x, 0):
        b.ret(32)
    n = b.li(0)
    top = b.and_(x, 0x80000000)
    with b.loop_while(Cond.EQ, top, 0):
        b.lsl(x, 1, dst=x)
        b.add(n, 1, dst=n)
        b.and_(x, 0x80000000, dst=top)
    b.ret(n)
