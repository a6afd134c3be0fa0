"""ARM → FITS binary translation.

Given a synthesized :class:`~repro.isa.fits.FitsIsa`, every ARM
instruction is mapped to one or more 16-bit FITS instructions:

* 1-to-1 when an opcode exists and the operands fit (possibly through a
  dictionary index),
* 1-to-n otherwise, using ``ext``/``extr`` prefixes (immediate and
  register-field extension), ``mov2``+two-operand sequences, or the
  load/store-multiple decomposition.

Branch displacements are resolved by fix-point iteration because
expanding a branch to ``ext``+branch moves every later instruction.
The per-instruction expansion counts are the paper's mapping statistics
(Figures 3 and 4).

Each distinct non-branch instruction is planned once per image, and a
translated image is encoded to halfwords only when they are first read:
the synthesizer scores every candidate geometry from its plan sizes, and
only the candidate it keeps is ever encoded.
"""

from functools import cached_property
from itertools import accumulate

from repro.isa.arm.model import DPOp
from repro.isa.fits.spec import (
    FitsInstr,
    OperationSpec,
    OPRD_DICT,
    OPRD_RAW,
    OPRD_REG,
)
from repro.isa.fits.codec import encode_fits
from repro.core.signatures import classify, Use, SP, LR
from repro.obs import core as obs


class TranslationError(Exception):
    """Raised when an ARM instruction cannot be mapped at all."""


def _signed_fits(value, bits):
    return -(1 << (bits - 1)) <= value < (1 << (bits - 1))


class _Planner:
    """Plans the FITS instruction sequence for one ARM instruction."""

    def __init__(self, isa):
        self.isa = isa
        self._by_kind_params = {}
        for num, spec in isa.opcode_table.items():
            self._by_kind_params.setdefault((spec.kind, self._params_key(spec.params)), []).append(
                (num, spec)
            )
        # find() answers, keyed by the params as each call site orders them
        self._found = {}

    @staticmethod
    def _params_key(params):
        return tuple(sorted((k, tuple(v) if isinstance(v, (list, tuple)) else v) for k, v in params.items()))

    def find(self, kind, params, oprd_mode=None):
        """Opcode (num, spec) for a kind+params (+mode), or None."""
        key = (kind, tuple(params.items()), oprd_mode)
        if key not in self._found:
            candidates = self._by_kind_params.get((kind, self._params_key(params)), [])
            self._found[key] = next(
                ((num, spec) for num, spec in candidates
                 if oprd_mode is None or spec.oprd_mode == oprd_mode),
                None)
        return self._found[key]

    # ------------------------------------------------------------------
    # field helpers

    def reg_field(self, arm_reg):
        """(field_value, hi_bit) for an ARM register."""
        idx = self.isa.fits_reg(arm_reg)
        mask = (1 << self.isa.k_reg) - 1
        return idx & mask, idx >> self.isa.k_reg

    def regs_with_extr(self, roles):
        """Field values for register roles plus an optional extr prefix.

        ``roles`` is an ordered list of (field_name, arm_reg).  Returns
        (prefix_list, fields_dict).
        """
        fields = {}
        hi_bits = 0
        for pos, (name, reg) in enumerate(roles):
            value, hi = self.reg_field(reg)
            fields[name] = value
            if hi:
                hi_bits |= 1 << pos
        prefix = []
        if hi_bits:
            found = self.find("ext", {"mode": "reg"})
            if found is None:
                raise TranslationError("register extension needed but extr not synthesized")
            num, spec = found
            prefix.append(FitsInstr(num, spec, {"value": hi_bits}))
        return prefix, fields

    def ext_chain(self, value, raw_width, signed=False):
        """(prefixes, low_field) encoding ``value`` via ext prefixes.

        ``value`` is the full quantity; the consumer keeps the low
        ``raw_width`` bits and each prefix contributes ``wide_width``
        higher bits (most significant first).
        """
        ext = self.find("ext", {"mode": "imm"})
        if ext is None:
            raise TranslationError("immediate extension needed but ext not synthesized")
        num, spec = ext
        ew = self.isa.wide_width
        if signed:
            n = 0
            while not _signed_fits(value, raw_width + n * ew):
                n += 1
        else:
            n = 0
            while (value >> (raw_width + n * ew)) != 0:
                n += 1
        low = value & ((1 << raw_width) - 1)
        prefixes = []
        for i in range(n - 1, -1, -1):
            chunk = (value >> (raw_width + i * ew)) & ((1 << ew) - 1)
            prefixes.append(FitsInstr(num, spec, {"value": chunk}))
        return prefixes, low

    # ------------------------------------------------------------------
    # per-kind planning (each returns a list of FitsInstr or None)

    def plan(self, use, branch_disp=None):
        kind = use.sig[0]
        method = getattr(self, "_plan_" + kind, None)
        if method is None:
            raise TranslationError("no planner for signature %r" % (use.sig,))
        plan = method(use, branch_disp) if kind in ("b", "bl") else method(use)
        if plan is None:
            raise TranslationError("unmappable instruction: %r" % (use,))
        return plan

    # ---- operate ------------------------------------------------------

    def _value_plans(self, use, dp_op):
        """Candidate plans for a dp-with-immediate use (dp3/dp2 paths)."""
        isa = self.isa
        value = use.imm & 0xFFFFFFFF
        plans = []

        dp2 = self.find("dp2", {"op": dp_op}, OPRD_RAW)
        dp2d = self.find("dp2", {"op": dp_op}, OPRD_DICT)
        dp3 = self.find("dp3", {"op": dp_op, "mode": "imm"}, OPRD_RAW)
        dp3d = self.find("dp3", {"op": dp_op, "mode": "imm"}, OPRD_DICT)

        rc = use.regs["rc"]
        ra = use.regs["ra"]

        def dp2_path(num, spec, field_value, prefixes):
            seq = []
            source_prefix = None
            if rc != ra:
                if isa.k_reg == 4:
                    source_prefix = self._source_prefix(ra)
                if source_prefix is None:
                    seq.extend(self._mov2(rc, ra))
            rp, fields = self.regs_with_extr([("rc", rc)])
            fields["value"] = field_value
            seq.extend(rp)
            if source_prefix is not None:
                seq.append(source_prefix)
            seq.extend(prefixes)
            seq.append(FitsInstr(num, spec, fields))
            return seq

        if dp2 is not None:
            w = isa.operate2_width
            if value < (1 << w):
                plans.append(dp2_path(dp2[0], dp2[1], value, []))
            else:
                if dp2d is not None:
                    idx = isa.dict_find("operate", value, 1 << w)
                    if idx is not None:
                        plans.append(dp2_path(dp2d[0], dp2d[1], idx, []))
                prefixes, low = self.ext_chain(value, w)
                plans.append(dp2_path(dp2[0], dp2[1], low, prefixes))

        if dp3 is not None:
            w = isa.oprd_width
            rp, fields = self.regs_with_extr([("rc", rc), ("ra", ra)])
            if value < (1 << w):
                plans.append(rp + [FitsInstr(dp3[0], dp3[1], dict(fields, oprd=value))])
            else:
                if dp3d is not None:
                    idx = isa.dict_find("operate", value, 1 << w)
                    if idx is not None:
                        plans.append(
                            rp + [FitsInstr(dp3d[0], dp3d[1], dict(fields, oprd=idx))]
                        )
                prefixes, low = self.ext_chain(value, w)
                plans.append(rp + prefixes + [FitsInstr(dp3[0], dp3[1], dict(fields, oprd=low))])

        if not plans:
            return None
        return min(plans, key=len)

    def _source_prefix(self, arm_reg):
        """extr prefix supplying a full source-register index (k_reg == 4
        two-address geometries: the prefixed two-operand instruction reads
        this register instead of rc)."""
        found = self.find("ext", {"mode": "reg"})
        if found is None:
            return None
        num, spec = found
        return FitsInstr(num, spec, {"value": self.isa.fits_reg(arm_reg)})

    def _operate2_path(self, found, rc, ra, extra_fields, commutative_swap=None):
        """Plan for an Operate2-form op: 1:1 when rc==ra, commutative swap,
        or extr-source / mov2 otherwise.  Returns None if impossible."""
        num, spec = found
        fields = dict(extra_fields)
        if self.isa.k_reg == 4:
            fields["rc"] = self.isa.fits_reg(rc)
            if rc == ra:
                return [FitsInstr(num, spec, fields)]
            if commutative_swap is not None and rc == commutative_swap:
                swapped = dict(fields)
                swapped["value"] = self.isa.fits_reg(ra)
                return [FitsInstr(num, spec, swapped)]
            prefix = self._source_prefix(ra)
            if prefix is not None:
                return [prefix, FitsInstr(num, spec, fields)]
            return self._mov2(rc, ra) + [FitsInstr(num, spec, fields)]
        # k_reg == 3: hi bits through extr positions, sourcing through mov2
        rp, rfields = self.regs_with_extr([("rc", rc)])
        rfields.update(extra_fields)
        seq = [] if rc == ra else self._mov2(rc, ra)
        return seq + rp + [FitsInstr(num, spec, rfields)]

    def _mov2(self, rc, ra):
        found = self.find("mov2", {})
        if found is None:
            raise TranslationError("mov2 needed but not synthesized")
        num, spec = found
        prefix, fields = self.regs_with_extr([("rc", rc), ("ra", ra)])
        fields["oprd"] = 0
        return prefix + [FitsInstr(num, spec, fields)]

    COMMUTATIVE = frozenset({DPOp.ADD, DPOp.AND, DPOp.ORR, DPOp.EOR})

    def _plan_dp3(self, use):
        _sig, op, mode = use.sig
        if mode == "imm":
            return self._value_plans(use, op)
        plans = []
        found = self.find("dp3", {"op": op, "mode": "reg"})
        if found is not None:
            num, spec = found
            prefix, fields = self.regs_with_extr(
                [("rc", use.regs["rc"]), ("ra", use.regs["ra"]), ("oprd", use.regs["oprd"])]
            )
            plans.append(prefix + [FitsInstr(num, spec, fields)])
        found2 = self.find("dp2", {"op": op}, OPRD_REG)
        if found2 is not None:
            rc, ra, rm = use.regs["rc"], use.regs["ra"], use.regs["oprd"]
            swap = rm if op in self.COMMUTATIVE else None
            plan = self._operate2_path(
                found2, rc, ra, {"value": self.isa.fits_reg(rm)}, commutative_swap=swap
            )
            if plan is not None:
                plans.append(plan)
        return min(plans, key=len) if plans else None

    def _plan_movi(self, use):
        return self._wide_const(use, "movi")

    def _plan_mvni(self, use):
        return self._wide_const(use, "mvni")

    def _wide_const(self, use, kind):
        isa = self.isa
        value = use.imm & 0xFFFFFFFF
        raw = self.find(kind, {}, OPRD_RAW)
        dictform = self.find(kind, {}, OPRD_DICT)
        if raw is None and dictform is None:
            return None
        rc = use.regs["rc"]
        w = isa.operate2_width
        plans = []
        rp, fields = self.regs_with_extr([("rc", rc)])
        if raw is not None:
            if value < (1 << w):
                plans.append(rp + [FitsInstr(raw[0], raw[1], dict(fields, value=value))])
            else:
                prefixes, low = self.ext_chain(value, w)
                plans.append(rp + prefixes + [FitsInstr(raw[0], raw[1], dict(fields, value=low))])
        if dictform is not None:
            idx = isa.dict_find("operate", value, 1 << w)
            if idx is not None:
                plans.append(rp + [FitsInstr(dictform[0], dictform[1], dict(fields, value=idx))])
        return min(plans, key=len) if plans else None

    def _plan_mov2(self, use):
        return self._mov2(use.regs["rc"], use.regs["ra"])

    def _plan_ret(self, use):
        found = self.find("ret", {})
        if found is None:
            return None
        return [FitsInstr(found[0], found[1], {})]

    def _plan_cmp2(self, use):
        _sig, op, mode = use.sig
        isa = self.isa
        if mode == "reg":
            found = self.find("cmp2", {"op": op, "mode": "reg"})
            if found is None:
                return None
            prefix, fields = self.regs_with_extr([("ra", use.regs["ra"])])
            value, hi = self.reg_field(use.regs["oprd"])
            if hi:
                # operand register outside the field: route through extr
                # using the oprd slot (position 2)
                found_ext = self.find("ext", {"mode": "reg"})
                if found_ext is None:
                    raise TranslationError("extr needed for compare operand")
                prefix = prefix + [FitsInstr(found_ext[0], found_ext[1], {"value": 0b100})]
            fields["value"] = value
            return prefix + [FitsInstr(found[0], found[1], fields)]
        raw = self.find("cmp2", {"op": op, "mode": "imm"}, OPRD_RAW)
        dictform = self.find("cmp2", {"op": op, "mode": "imm"}, OPRD_DICT)
        if raw is None and dictform is None:
            return None
        value = use.imm & 0xFFFFFFFF
        w = isa.operate2_width
        prefix, fields = self.regs_with_extr([("ra", use.regs["ra"])])
        plans = []
        if raw is not None:
            if value < (1 << w):
                plans.append(prefix + [FitsInstr(raw[0], raw[1], dict(fields, value=value))])
            else:
                prefixes, low = self.ext_chain(value, w)
                plans.append(prefix + prefixes + [FitsInstr(raw[0], raw[1], dict(fields, value=low))])
        if dictform is not None:
            idx = isa.dict_find("operate", value, 1 << w)
            if idx is not None:
                plans.append(prefix + [FitsInstr(dictform[0], dictform[1], dict(fields, value=idx))])
        return min(plans, key=len) if plans else None

    def _plan_shifti(self, use):
        _sig, stype = use.sig
        plans = []
        found = self.find("shifti", {"shift": stype}, OPRD_RAW)
        found_d = self.find("shifti", {"shift": stype}, OPRD_DICT)
        if found is not None or found_d is not None:
            prefix, fields = self.regs_with_extr([("rc", use.regs["rc"]), ("ra", use.regs["ra"])])
            amount = use.imm
            w = self.isa.oprd_width
            if found is not None and amount < (1 << w):
                plans.append(prefix + [FitsInstr(found[0], found[1], dict(fields, oprd=amount))])
            else:
                if found_d is not None:
                    idx = self.isa.dict_find("operate", amount, 1 << w)
                    if idx is not None:
                        plans.append(prefix + [FitsInstr(found_d[0], found_d[1], dict(fields, oprd=idx))])
                if found is not None:
                    prefixes, low = self.ext_chain(amount, w)
                    plans.append(prefix + prefixes + [FitsInstr(found[0], found[1], dict(fields, oprd=low))])
        found2 = self.find("shift2i", {"shift": stype})
        if found2 is not None:
            plan = self._operate2_path(
                found2, use.regs["rc"], use.regs["ra"], {"value": use.imm}
            )
            if plan is not None:
                plans.append(plan)
        return min(plans, key=len) if plans else None

    def _plan_shiftr(self, use):
        _sig, stype = use.sig
        plans = []
        found = self.find("shiftr", {"shift": stype})
        if found is not None:
            prefix, fields = self.regs_with_extr(
                [("rc", use.regs["rc"]), ("ra", use.regs["ra"]), ("oprd", use.regs["oprd"])]
            )
            plans.append(prefix + [FitsInstr(found[0], found[1], fields)])
        found2 = self.find("shift2r", {"shift": stype})
        if found2 is not None:
            plan = self._operate2_path(
                found2,
                use.regs["rc"],
                use.regs["ra"],
                {"value": self.isa.fits_reg(use.regs["oprd"])},
            )
            if plan is not None:
                plans.append(plan)
        return min(plans, key=len) if plans else None

    def _plan_mul(self, use):
        plans = []
        found = self.find("mul", {})
        if found is not None:
            prefix, fields = self.regs_with_extr(
                [("rc", use.regs["rc"]), ("ra", use.regs["ra"]), ("oprd", use.regs["oprd"])]
            )
            plans.append(prefix + [FitsInstr(found[0], found[1], fields)])
        found2 = self.find("mul2", {})
        if found2 is not None:
            rc, ra, rm = use.regs["rc"], use.regs["ra"], use.regs["oprd"]
            plan = self._operate2_path(
                found2, rc, ra, {"value": self.isa.fits_reg(rm)}, commutative_swap=rm
            )
            if plan is not None:
                plans.append(plan)
        return min(plans, key=len) if plans else None

    # ---- memory -------------------------------------------------------

    def _plan_mem(self, use):
        _sig, load, width, signed = use.sig
        isa = self.isa
        offset = use.imm
        plans = []

        if use.sp_base and width == 4 and not signed:
            memsp = self.find("memsp", {"load": load})
            if memsp is not None and offset >= 0 and offset % 4 == 0:
                scaled = offset // 4
                if scaled < (1 << isa.operate2_width):
                    prefix, fields = self.regs_with_extr([("rd", use.regs["rd"])])
                    fields["imm"] = scaled
                    plans.append(prefix + [FitsInstr(memsp[0], memsp[1], fields)])

        raw = self.find("mem", {"load": load, "width": width, "signed": signed}, OPRD_RAW)
        dictform = self.find("mem", {"load": load, "width": width, "signed": signed}, OPRD_DICT)
        if raw is None and dictform is None and not plans:
            return None
        w = isa.oprd_width
        prefix, fields = self.regs_with_extr([("rd", use.regs["rd"]), ("rb", use.regs["rb"])])
        if raw is not None:
            if offset >= 0 and offset % width == 0 and (offset // width) < (1 << w):
                plans.append(prefix + [FitsInstr(raw[0], raw[1], dict(fields, imm=offset // width))])
            else:
                # prefixed displacements are byte-granular and signed
                prefixes, low = self.ext_chain(offset, w, signed=True)
                plans.append(prefix + prefixes + [FitsInstr(raw[0], raw[1], dict(fields, imm=low))])
        if dictform is not None:
            idx = isa.dict_find("mem", offset, 1 << w)
            if idx is not None:
                plans.append(prefix + [FitsInstr(dictform[0], dictform[1], dict(fields, imm=idx))])
        return min(plans, key=len) if plans else None

    def _plan_memr(self, use):
        _sig, load, width, signed, shift = use.sig
        plans = []
        found = self.find("memr", {"load": load, "width": width, "signed": signed, "shift": shift})
        if found is not None:
            prefix, fields = self.regs_with_extr(
                [("rd", use.regs["rd"]), ("rb", use.regs["rb"]), ("imm", use.regs["oprd"])]
            )
            plans.append(prefix + [FitsInstr(found[0], found[1], fields)])
        foundx = self.find("memrx", {"load": load, "width": width, "signed": signed, "shift": shift})
        if foundx is not None:
            index_prefix = self._source_prefix(use.regs["oprd"])
            if index_prefix is not None:
                fields = {
                    "rd": self.isa.fits_reg(use.regs["rd"]),
                    "rb": self.isa.fits_reg(use.regs["rb"]),
                }
                plans.append([index_prefix, FitsInstr(foundx[0], foundx[1], fields)])
        return min(plans, key=len) if plans else None

    def _plan_spadj(self, use):
        _sig, is_sub = use.sig
        magnitude = use.imm
        value = -magnitude if is_sub else magnitude
        found = self.find("spadj", {})
        if found is not None:
            num, spec = found
            w = self.isa.wide_width
            if _signed_fits(value, w):
                return [FitsInstr(num, spec, {"value": value})]
            prefixes, low = self.ext_chain(value, w, signed=True)
            return prefixes + [FitsInstr(num, spec, {"value": low - (1 << w) if low >= (1 << (w - 1)) else low})]
        # fall back to a two/three-operand add/sub on sp
        op = DPOp.SUB if is_sub else DPOp.ADD
        sub_use = Use(
            ("dp3", op, "imm"),
            regs={"rc": SP, "ra": SP},
            imm=magnitude,
            imm_category="operate",
            two_op=True,
        )
        return self._value_plans(sub_use, op)

    def _plan_ldm(self, use):
        found = self.find("ldm", {"reglist": use.sig[1]})
        if found is not None:
            return [FitsInstr(found[0], found[1], {})]
        # decompose: load each register, bump sp, pop-pc becomes pop-lr + ret
        reglist = list(use.sig[1])
        seq = []
        has_pc = 15 in reglist
        gprs = [r for r in reglist if r != 15]
        for i, reg in enumerate(gprs):
            seq.extend(self._mem_word_sub_use(True, reg, 4 * i))
        if has_pc:
            seq.extend(self._mem_word_sub_use(True, LR, 4 * len(gprs)))
        seq.extend(self._plan_spadj(Use(("spadj", False), imm=4 * len(reglist))))
        if has_pc:
            ret = self._plan_ret(None)
            if ret is None:
                raise TranslationError("ldm-with-pc decomposition needs ret")
            seq.extend(ret)
        return seq

    def _plan_stm(self, use):
        found = self.find("stm", {"reglist": use.sig[1]})
        if found is not None:
            return [FitsInstr(found[0], found[1], {})]
        reglist = list(use.sig[1])
        seq = []
        seq.extend(self._plan_spadj(Use(("spadj", True), imm=4 * len(reglist))))
        for i, reg in enumerate(reglist):
            seq.extend(self._mem_word_sub_use(False, reg, 4 * i))
        return seq

    def _mem_word_sub_use(self, load, reg, offset):
        sub = Use(
            ("mem", load, 4, False),
            regs={"rd": reg, "rb": SP},
            imm=offset,
            imm_category="mem",
            sp_base=True,
        )
        plan = self._plan_mem(sub)
        if plan is None:
            raise TranslationError("ldm/stm decomposition needs word transfers")
        return plan

    # ---- control flow -------------------------------------------------

    def _plan_b(self, use, disp):
        found = self.find("b", {"cond": use.sig[1]})
        if found is None:
            return None
        return self._branch_plan(found, disp)

    def _plan_bl(self, use, disp):
        found = self.find("bl", {})
        if found is None:
            return None
        return self._branch_plan(found, disp)

    def _branch_plan(self, found, disp):
        num, spec = found
        w = self.isa.wide_width
        if disp is None:
            disp = 0  # sizing pass placeholder
        if _signed_fits(disp, w):
            return [FitsInstr(num, spec, {"value": disp})]
        prefixes, low = self.ext_chain(disp, w, signed=True)
        low_signed = low - (1 << w) if low >= (1 << (w - 1)) else low
        return prefixes + [FitsInstr(num, spec, {"value": low_signed})]

    def _plan_swi(self, use):
        found = self.find("swi", {})
        if found is None:
            return None
        return [FitsInstr(found[0], found[1], {"value": use.imm})]


class FitsImage:
    """A translated FITS binary plus its mapping statistics.

    The data segment and its addresses are identical to the ARM image's
    (the address space is unchanged; only the code shrinks), so global
    address constants embedded in the translated code remain valid.
    """

    def __init__(self, arm_image, isa, records, unit_start, unit_size):
        self.name = arm_image.name
        self.arm_image = arm_image
        self.isa = isa
        self.records = records
        self.unit_start = unit_start  # ARM static index → first halfword index
        self.unit_size = unit_size    # ARM static index → halfword count
        self.code_base = arm_image.code_base
        self.data_base = arm_image.data_base
        self.data_bytes = arm_image.data_bytes
        self.global_addr = dict(arm_image.global_addr)
        self.memory_size = arm_image.memory_size
        self.stack_top = arm_image.stack_top
        self.entry = arm_image.entry

    @cached_property
    def halfwords(self):
        """The encoded code stream, one halfword per record."""
        return [encode_fits(self.isa, rec) for rec in self.records]

    @property
    def code_size(self):
        return 2 * len(self.records)

    def addr_of_index(self, index):
        return self.code_base + 2 * index

    def index_of_addr(self, addr):
        offset = addr - self.code_base
        if offset % 2 or not 0 <= offset < 2 * len(self.records):
            raise ValueError("0x%x is not a FITS code address" % addr)
        return offset // 2

    def initial_memory(self):
        mem = bytearray(self.memory_size)
        for i, half in enumerate(self.halfwords):
            mem[self.code_base + 2 * i : self.code_base + 2 * i + 2] = half.to_bytes(2, "little")
        mem[self.data_base : self.data_base + len(self.data_bytes)] = self.data_bytes
        return mem

    # ------------------------------------------------------------------
    # mapping statistics (Figures 3 and 4)

    def static_mapping_rate(self):
        """Fraction of ARM static instructions translated one-to-one."""
        ones = sum(1 for n in self.unit_size if n == 1)
        return ones / len(self.unit_size)

    def dynamic_mapping_rate(self, exec_counts):
        """Execution-weighted one-to-one fraction."""
        total = 0
        ones = 0
        for idx, n in enumerate(self.unit_size):
            count = int(exec_counts[idx])
            total += count
            if n == 1:
                ones += count
        return ones / total if total else 0.0

    def expansion_histogram(self):
        hist = {}
        for n in self.unit_size:
            hist[n] = hist.get(n, 0) + 1
        return hist


def translate(arm_image, isa, uses=None):
    """Translate an ARM image through a synthesized FITS ISA."""
    with obs.span("stage.translate", image=arm_image.name,
                  k_op=isa.k_op, k_reg=isa.k_reg):
        return _translate(arm_image, isa, uses)


def _translate(arm_image, isa, uses=None):
    if uses is None:
        uses = [classify(ins, index=i, image=arm_image) for i, ins in enumerate(arm_image.instrs)]
    planner = _Planner(isa)

    n_instrs = len(uses)
    sizes = [0] * n_instrs
    plans = [None] * n_instrs
    branch_indices = []
    # a non-branch instruction's plan depends only on its encoding, so
    # each distinct ARM word is planned once
    planned = {}
    for i, use in enumerate(uses):
        if use.sig[0] in ("b", "bl"):
            branch_indices.append(i)
            sizes[i] = 1  # a first guess for the fix-point below
            continue
        word = arm_image.words[i]
        if word not in planned:
            planned[word] = planner.plan(use)
        plans[i] = planned[word]
        sizes[i] = len(plans[i])

    # fix-point over branch displacement widths; the round that changes
    # no size has planned every branch against the final layout
    for _round in range(20):
        starts = list(accumulate(sizes, initial=0))[:-1]
        changed = False
        for i in branch_indices:
            target = uses[i].target_arm_index
            disp = starts[target] - (starts[i] + sizes[i])
            plan = planner.plan(uses[i], branch_disp=disp)
            if len(plan) != sizes[i]:
                sizes[i] = len(plan)
                changed = True
            plans[i] = plan
        if not changed:
            break
    else:
        raise TranslationError("branch displacement fix-point did not converge")

    records = []
    for plan in plans:
        records.extend(plan)
    if obs.enabled:
        ones = sum(1 for n in sizes if n == 1)
        obs.counter("translate.runs")
        obs.counter("translate.arm_instructions", len(sizes))
        obs.counter("translate.one_to_one", ones)
        obs.counter("translate.one_to_n", len(sizes) - ones)
        obs.counter("translate.halfwords", len(records))
        obs.observe("translate.max_expansion", max(sizes) if sizes else 0)
    return FitsImage(arm_image, isa, records, starts, sizes)
