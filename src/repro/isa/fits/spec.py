"""FITS ISA specification: formats, operation specs, decoder configuration.

Formats (paper Figure 2), all 16 bits wide, opcode first::

    Operate3   [ OP | RC | RA | OPRD ]      OPRD: reg / raw imm / dict index
    Operate2   [ OP | RC |   VALUE   ]      rd==rn two-operand, wide operand
    Compare    [ OP | RA |   VALUE   ]      no destination, wide operand
    Memory     [ OP | RD | RB | IMM  ]      displacement raw (scaled) / dict
    MemorySP   [ OP | RD |   IMM     ]      implicit sp base, wide displacement
    Wide       [ OP |     VALUE      ]      branch disp / trap number / movi-at
    Implicit   [ OP ]                       ret, ldm/stm with baked reglists

Operand interpretation is *per opcode* and fixed at synthesis time —
that is what the programmable decoder stores.  The ``ext`` prefix
instruction supplies high bits (immediate extension or register-field
extension) to the instruction that follows it.

:meth:`FitsIsa.to_dict` / :meth:`FitsIsa.from_dict` carry a whole
decoder configuration through JSON, so a synthesized ISA can be stored
and reused without synthesizing it again.
"""

from repro.isa.arm.model import Cond, DPOp, ShiftType

#: OPRD / IMM interpretation modes.
OPRD_REG = "reg"
OPRD_RAW = "raw"
OPRD_DICT = "dict"

#: Operation kinds a spec may carry (the decoder's semantic vocabulary).
KINDS = frozenset(
    {
        "dp3",     # rc = ra <op> oprd            (Operate3)
        "dp2",     # rc = rc <op> value           (Operate2)
        "movi",    # rc = value                   (Operate2)
        "mvni",    # rc = ~value                  (Operate2)
        "mov2",    # rc = ra                      (Operate3, oprd unused)
        "cmp2",    # flags = ra <op> value/reg    (Compare)
        "shifti",  # rc = ra shift #oprd          (Operate3)
        "shiftr",  # rc = ra shift reg(oprd)      (Operate3)
        "mul",     # rc = ra * oprd-reg           (Operate3)
        "shift2i", # rc = rc shift #value          (Operate2)
        "shift2r", # rc = rc shift reg(value)      (Operate2)
        "mul2",    # rc = rc * reg(value)          (Operate2)
        "memrx",   # load/store rd, [rb + reg from ext prefix] (short Memory)
        "mem",     # load/store rd, [rb + imm]    (Memory)
        "memr",    # load/store rd, [rb + reg]    (Memory, IMM names a register)
        "memsp",   # load/store rd, [sp + imm]    (MemorySP)
        "spadj",   # sp += signed value           (Wide)
        "ldm",     # pop a baked register list    (Implicit)
        "stm",     # push a baked register list   (Implicit)
        "b",       # conditional/unconditional branch (Wide, signed disp)
        "bl",      # call (Wide, signed disp)
        "ret",     # jump to lr (Implicit)
        "swi",     # trap (Wide)
        "ext",     # prefix: extend next instruction (Wide payload)
    }
)

#: Kinds whose wide VALUE field is a signed quantity.
SIGNED_WIDE = frozenset({"b", "bl", "spadj"})


class FitsEncodingError(Exception):
    """Raised when an operand cannot be encoded under a given spec."""


class OperationSpec:
    """One synthesized opcode: its format, semantics and operand modes.

    Attributes:
        kind: one of :data:`KINDS`.
        params: semantic parameters baked into the decoder entry —
            e.g. ``{"op": DPOp.ADD}``, ``{"load": True, "width": 4,
            "signed": False}``, ``{"cond": Cond.EQ}``,
            ``{"reglist": (4, 5, 14)}``, ``{"shift": ShiftType.LSR}``.
        oprd_mode: interpretation of the operand field
            (:data:`OPRD_REG` / :data:`OPRD_RAW` / :data:`OPRD_DICT`),
            where applicable.
        dict_category: which immediate dictionary a dict-mode operand
            indexes (``"operate"`` or ``"mem"``).
    """

    __slots__ = ("kind", "params", "oprd_mode", "dict_category", "name")

    def __init__(self, kind, params=None, oprd_mode=None, dict_category=None, name=None):
        if kind not in KINDS:
            raise ValueError("unknown kind %r" % kind)
        self.kind = kind
        self.params = dict(params or {})
        self.oprd_mode = oprd_mode
        self.dict_category = dict_category
        self.name = name or kind

    def key(self):
        """Hashable identity used by the synthesizer's opcode table."""
        return (
            self.kind,
            tuple(sorted((k, _freeze(v)) for k, v in self.params.items())),
            self.oprd_mode,
            self.dict_category,
        )

    def __repr__(self):
        return "<OperationSpec %s %r mode=%s>" % (self.name, self.params, self.oprd_mode)

    def to_dict(self):
        """JSON-ready form; :meth:`from_dict` restores an equal spec."""
        return {
            "kind": self.kind,
            "params": {k: _encode_param(v) for k, v in self.params.items()},
            "oprd_mode": self.oprd_mode,
            "dict_category": self.dict_category,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["kind"],
                   {k: _decode_param(v) for k, v in data["params"].items()},
                   oprd_mode=data["oprd_mode"],
                   dict_category=data["dict_category"], name=data["name"])


def _freeze(value):
    if isinstance(value, list):
        return tuple(value)
    return value


#: Enum types a spec parameter may hold, by class name.  They are
#: IntEnums, so JSON alone would turn them into plain ints.
_PARAM_ENUMS = {cls.__name__: cls for cls in (Cond, DPOp, ShiftType)}


def _encode_param(value):
    """An enum member becomes ``{"<Enum>": "<member>"}``, a tuple a list."""
    if isinstance(value, tuple(_PARAM_ENUMS.values())):
        return {type(value).__name__: value.name}
    if isinstance(value, tuple):
        return list(value)
    return value


def _decode_param(value):
    if isinstance(value, dict):
        ((cls, member),) = value.items()
        return _PARAM_ENUMS[cls][member]
    if isinstance(value, list):
        return tuple(value)
    return value


class FitsInstr:
    """One concrete FITS instruction: an opcode plus field values.

    ``fields`` maps field names (``rc``, ``ra``, ``oprd``, ``rd``,
    ``rb``, ``imm``, ``value``) to small integers as they will appear in
    the encoding.  Semantic resolution (dictionary lookups, register
    renaming) happens through the owning :class:`FitsIsa`.
    """

    __slots__ = ("opcode", "spec", "fields")

    def __init__(self, opcode, spec, fields):
        self.opcode = opcode
        self.spec = spec
        self.fields = dict(fields)

    def __repr__(self):
        body = " ".join("%s=%s" % kv for kv in sorted(self.fields.items()))
        return "<%s %s>" % (self.spec.name, body)

    def __eq__(self, other):
        return (
            isinstance(other, FitsInstr)
            and other.opcode == self.opcode
            and other.fields == self.fields
        )


class FitsIsa:
    """A complete synthesized FITS instruction set (decoder config).

    Attributes:
        k_op: opcode field width in bits.
        k_reg: register field width in bits.
        opcode_table: opcode number → :class:`OperationSpec`.
        regmap: ARM register number → FITS register index (renaming).
        dicts: category → list of 32-bit values (programmable immediate
            storage; a dict-mode operand field indexes into these).
    """

    def __init__(self, k_op, k_reg, opcode_table, regmap, dicts):
        if not 4 <= k_op <= 8:
            raise ValueError("k_op out of range: %d" % k_op)
        if k_reg not in (3, 4):
            raise ValueError("k_reg out of range: %d" % k_reg)
        self.k_op = k_op
        self.k_reg = k_reg
        self.opcode_table = dict(opcode_table)
        if len(self.opcode_table) > (1 << k_op):
            raise ValueError(
                "%d opcodes exceed the %d-bit opcode space"
                % (len(self.opcode_table), k_op)
            )
        self.regmap = dict(regmap)
        self.inv_regmap = {v: k for k, v in self.regmap.items()}
        self.dicts = {cat: list(vals) for cat, vals in dicts.items()}
        self.spec_to_opcode = {spec.key(): num for num, spec in self.opcode_table.items()}
        self.dict_index = {
            cat: {v & 0xFFFFFFFF: i for i, v in enumerate(vals)}
            for cat, vals in self.dicts.items()
        }

    def to_dict(self):
        """The decoder configuration as JSON-ready data.

        Insertion orders are kept (opcode table, register map, dictionary
        categories), so :meth:`from_dict` rebuilds an ISA that translates
        and hashes exactly like this one.
        """
        return {
            "k_op": self.k_op,
            "k_reg": self.k_reg,
            "opcodes": [[num, spec.to_dict()]
                        for num, spec in self.opcode_table.items()],
            "regmap": [list(pair) for pair in self.regmap.items()],
            "dicts": {cat: list(vals) for cat, vals in self.dicts.items()},
        }

    @classmethod
    def from_dict(cls, data):
        return cls(data["k_op"], data["k_reg"],
                   [(num, OperationSpec.from_dict(spec))
                    for num, spec in data["opcodes"]],
                   [tuple(pair) for pair in data["regmap"]], data["dicts"])

    # ------------------------------------------------------------------
    # field geometry

    @property
    def wide_width(self):
        """VALUE width of the Wide format (branch disp, trap, ext payload)."""
        return 16 - self.k_op

    @property
    def operate2_width(self):
        """VALUE width of Operate2/Compare (two-operand immediates)."""
        return 16 - self.k_op - self.k_reg

    @property
    def oprd_width(self):
        """OPRD/IMM width of Operate3/Memory."""
        return 16 - self.k_op - 2 * self.k_reg

    def field_layout(self, spec):
        """Ordered ``(name, width)`` pairs for a spec's format."""
        k = self.k_reg
        kind = spec.kind
        if kind in ("dp3", "mov2", "shifti", "shiftr", "mul"):
            return [("rc", k), ("ra", k), ("oprd", self.oprd_width)]
        if kind in ("dp2", "movi", "mvni", "shift2i", "shift2r", "mul2"):
            return [("rc", k), ("value", self.operate2_width)]
        if kind == "cmp2":
            return [("ra", k), ("value", self.operate2_width)]
        if kind in ("mem", "memr"):
            return [("rd", k), ("rb", k), ("imm", self.oprd_width)]
        if kind == "memrx":
            return [("rd", k), ("rb", k)]
        if kind == "memsp":
            return [("rd", k), ("imm", self.operate2_width)]
        if kind in ("b", "bl", "swi", "ext", "spadj"):
            return [("value", self.wide_width)]
        if kind in ("ldm", "stm", "ret"):
            return []
        raise ValueError("no layout for kind %r" % kind)

    # ------------------------------------------------------------------
    # register renaming

    def fits_reg(self, arm_reg):
        """FITS register index for an ARM register (KeyError if unmapped)."""
        return self.regmap[arm_reg]

    def arm_reg(self, fits_idx):
        return self.inv_regmap[fits_idx]

    def reg_fits_in_field(self, arm_reg):
        return self.regmap[arm_reg] < (1 << self.k_reg)

    # ------------------------------------------------------------------
    # dictionary access

    def dict_lookup(self, category, index):
        return self.dicts[category][index]

    def dict_find(self, category, value, max_index):
        """Index of ``value`` in a dictionary if below ``max_index``."""
        idx = self.dict_index.get(category, {}).get(value & 0xFFFFFFFF)
        if idx is not None and idx < max_index:
            return idx
        return None

    def opcode_for(self, spec):
        """Opcode number assigned to a spec (None if not synthesized)."""
        return self.spec_to_opcode.get(spec.key())

    def decoder_storage_bits(self):
        """Rough size of the programmable decoder state, in bits.

        Counts the opcode table (a generous 64 bits of decoded semantics
        per entry), the register map and the immediate dictionaries —
        the cost side of the synthesis trade-off.
        """
        table = len(self.opcode_table) * 64
        regs = len(self.regmap) * 4
        dicts = sum(len(v) * 32 for v in self.dicts.values())
        return table + regs + dicts

    def describe(self):
        lines = [
            "FITS ISA: k_op=%d k_reg=%d (%d opcodes)" % (self.k_op, self.k_reg, len(self.opcode_table)),
            "  operate3 oprd width: %d" % self.oprd_width,
            "  operate2 value width: %d" % self.operate2_width,
            "  wide value width: %d" % self.wide_width,
        ]
        for cat, vals in self.dicts.items():
            lines.append("  dict[%s]: %d entries" % (cat, len(vals)))
        for num in sorted(self.opcode_table):
            lines.append("  op %2d: %s" % (num, self.opcode_table[num].name))
        return "\n".join(lines)
