"""Instruction-set synthesis: profile → FITS ISA (paper Section 3.3).

The synthesizer searches a small space of format geometries
(opcode/register field widths), builds the mandatory instruction set for
each candidate (the BIS plus an immediate- or register-capable form of
every operation the application uses — the guarantee that every ARM
instruction *can* be translated, through prefixes if necessary), adds
application-specific instructions (AIS) greedily while opcode space
remains, synthesizes the immediate dictionaries, and scores each
candidate by actually translating the binary.  The best-scoring ISA
wins.

The two-operand/three-operand choice per operation follows the paper:
when almost all uses of an operation are ``rd == rn``, the two-operand
form (with its wider immediate field) is synthesized instead of the
three-operand one.
"""

from collections import Counter

from repro.isa.arm.model import Cond
from repro.isa.fits.spec import FitsIsa, OperationSpec, OPRD_DICT, OPRD_RAW, OPRD_REG
from repro.obs import core as obs
from repro.core.immediates import build_dictionaries, raw_operate_ok, raw_mem_ok
from repro.core.translator import translate, TranslationError


class SynthesisConfig:
    """Tunable knobs of the synthesis heuristic (ablation targets)."""

    def __init__(
        self,
        geometries=((4, 4), (5, 3), (6, 3), (7, 3), (5, 4), (6, 4)),
        dict_budgets=None,
        two_op_threshold=0.65,
        dyn_weight=None,
        use_dictionaries=True,
        use_ais=True,
        static_weight=1.0,
        dynamic_weight=1.0,
    ):
        self.geometries = tuple(geometries)
        self.dict_budgets = dict(dict_budgets or {"operate": 64, "mem": 32})
        self.two_op_threshold = two_op_threshold
        self.dyn_weight = dyn_weight
        self.use_dictionaries = use_dictionaries
        self.use_ais = use_ais
        self.static_weight = static_weight
        self.dynamic_weight = dynamic_weight


class SynthesisResult:
    """The chosen ISA plus the evaluation of every candidate geometry."""

    def __init__(self, isa, image, score, candidates):
        self.isa = isa
        self.image = image
        self.score = score
        self.candidates = candidates  # list of (k_op, k_reg, score or None)

    def __repr__(self):
        return "<SynthesisResult k_op=%d k_reg=%d score=%.4f>" % (
            self.isa.k_op,
            self.isa.k_reg,
            self.score,
        )


class _Geometry:
    """Field widths of a candidate (duck-typed like FitsIsa for dicts)."""

    def __init__(self, k_op, k_reg):
        self.k_op = k_op
        self.k_reg = k_reg
        self.wide_width = 16 - k_op
        self.operate2_width = 16 - k_op - k_reg
        self.oprd_width = 16 - k_op - 2 * k_reg


def synthesize(profile, config=None):
    """Synthesize the best FITS ISA for a profiled application."""
    with obs.span("stage.synthesize", image=profile.image.name):
        return _synthesize(profile, config)


def _synthesize(profile, config):
    config = config or SynthesisConfig()
    best = None
    candidates = []
    for k_op, k_reg in config.geometries:
        try:
            with obs.span("synthesize.candidate", k_op=k_op, k_reg=k_reg):
                isa = _synthesize_candidate(profile, k_op, k_reg, config)
                image = translate(profile.image, isa, uses=profile.uses)
        except (_Infeasible, TranslationError):
            candidates.append((k_op, k_reg, None))
            obs.counter("synthesize.candidates_infeasible")
            continue
        score = _score(profile, image, config)
        candidates.append((k_op, k_reg, score))
        if best is None or score < best[0]:
            best = (score, isa, image)
    if best is None:
        raise TranslationError("no feasible FITS geometry for %s" % profile.image.name)
    score, isa, image = best
    if obs.enabled:
        obs.counter("synthesize.runs")
        obs.counter("synthesize.candidates", len(candidates))
        obs.gauge("synthesize.selected_geometry", [isa.k_op, isa.k_reg])
        obs.observe("synthesize.score", score)
    return SynthesisResult(isa, image, score, candidates)


def _score(profile, image, config):
    """Lower is better: normalized static + dynamic fetch halfwords."""
    static_hw = len(image.records) / max(1, len(image.unit_size))
    total_dyn = 0
    weighted = 0
    for idx, n in enumerate(image.unit_size):
        count = int(profile.exec_counts[idx])
        total_dyn += count
        weighted += count * n
    dyn_hw = weighted / total_dyn if total_dyn else static_hw
    return config.static_weight * static_hw + config.dynamic_weight * dyn_hw


class _Infeasible(Exception):
    pass


def _synthesize_candidate(profile, k_op, k_reg, config):
    geom = _Geometry(k_op, k_reg)
    # With three register fields impossible (oprd narrower than a register
    # field), register-register operations use two-operand forms with an
    # extr prefix supplying the third register when needed.
    three_reg = geom.oprd_width >= k_reg

    regmap = {reg: idx for idx, reg in enumerate(profile.register_ranking())}
    sigs = profile.sig_static

    weight = _sig_weights(profile, config)

    specs = []

    def add(spec):
        specs.append(spec)

    # --- base / mandatory set -----------------------------------------
    add(OperationSpec("ext", {"mode": "imm"}, name="ext"))
    # k_reg == 3 always carries extr: registers ranked beyond the field
    # range (sp in a stray field role, lr in a decomposed pop) are rare
    # but must stay encodable.  Two-address geometries need it as the
    # source-register prefix.
    if k_reg == 3 or not three_reg:
        add(OperationSpec("ext", {"mode": "reg"}, name="extr"))

    if ("swi",) in sigs:
        add(OperationSpec("swi", name="swi"))
    has_ldm = any(s[0] == "ldm" for s in sigs)
    has_stm = any(s[0] == "stm" for s in sigs)
    if ("ret",) in sigs or any(15 in s[1] for s in sigs if s[0] == "ldm"):
        add(OperationSpec("ret", name="ret"))
    if ("bl",) in sigs:
        add(OperationSpec("bl", name="bl"))
    for sig in sorted((s for s in sigs if s[0] == "b"), key=lambda s: s[1]):
        add(OperationSpec("b", {"cond": sig[1]}, name="b.%s" % sig[1].name.lower()))

    if ("movi",) in sigs or any(s[0] == "dp3" and s[2] == "imm" for s in sigs):
        add(OperationSpec("movi", oprd_mode=OPRD_RAW, name="movi"))
    if ("mvni",) in sigs:
        add(OperationSpec("mvni", oprd_mode=OPRD_RAW, name="mvni"))

    need_mov2 = ("mov2",) in sigs
    two_op_frac = _two_op_fractions(profile)
    dp_imm_ops = sorted({s[1] for s in sigs if s[0] == "dp3" and s[2] == "imm"})
    dp2_ops = set()
    for op in dp_imm_ops:
        if two_op_frac.get(op, 0.0) >= config.two_op_threshold:
            add(OperationSpec("dp2", {"op": op}, oprd_mode=OPRD_RAW, name="%s2i" % op.name.lower()))
            dp2_ops.add(op)
            if two_op_frac[op] < 1.0:
                need_mov2 = True
        else:
            add(OperationSpec("dp3", {"op": op, "mode": "imm"}, oprd_mode=OPRD_RAW,
                              name="%s3i" % op.name.lower()))
    for op in sorted({s[1] for s in sigs if s[0] == "dp3" and s[2] == "reg"}):
        if three_reg:
            add(OperationSpec("dp3", {"op": op, "mode": "reg"}, oprd_mode=OPRD_REG,
                              name="%s3r" % op.name.lower()))
        else:
            add(OperationSpec("dp2", {"op": op}, oprd_mode=OPRD_REG,
                              name="%s2r" % op.name.lower()))

    for sig in sorted((s for s in sigs if s[0] == "cmp2"), key=repr):
        _k, op, mode = sig
        oprd_mode = OPRD_RAW if mode == "imm" else OPRD_REG
        add(OperationSpec("cmp2", {"op": op, "mode": mode}, oprd_mode=oprd_mode,
                          name="%s2%s" % (op.name.lower(), mode[0])))

    for sig in sorted((s for s in sigs if s[0] == "shifti"), key=repr):
        # three-address shifts whenever the format allows; amounts beyond
        # the raw field go through the dictionary or an ext prefix
        if three_reg:
            add(OperationSpec("shifti", {"shift": sig[1]}, oprd_mode=OPRD_RAW,
                              name="%si" % sig[1].name.lower()))
        else:
            add(OperationSpec("shift2i", {"shift": sig[1]}, oprd_mode=OPRD_RAW,
                              name="%s2i" % sig[1].name.lower()))
    for sig in sorted((s for s in sigs if s[0] == "shiftr"), key=repr):
        if three_reg:
            add(OperationSpec("shiftr", {"shift": sig[1]}, oprd_mode=OPRD_REG,
                              name="%sr" % sig[1].name.lower()))
        else:
            add(OperationSpec("shift2r", {"shift": sig[1]}, oprd_mode=OPRD_REG,
                              name="%s2r" % sig[1].name.lower()))
    if ("mul",) in sigs:
        if three_reg:
            add(OperationSpec("mul", name="mul"))
        else:
            add(OperationSpec("mul2", oprd_mode=OPRD_REG, name="mul2"))

    if need_mov2 or any(s.kind in ("dp2", "shift2i", "shift2r", "mul2") for s in specs):
        add(OperationSpec("mov2", name="mov2"))

    mem_families = sorted(
        {(s[1], s[2], s[3]) for s in sigs if s[0] == "mem"},
        key=repr,
    )
    for load, width, signed in mem_families:
        add(OperationSpec("mem", {"load": load, "width": width, "signed": signed},
                          oprd_mode=OPRD_RAW,
                          name="%s%d%s" % ("ld" if load else "st", width, "s" if signed else "")))
    # decomposing ldm/stm requires word transfers and sp adjustment
    if has_ldm and not any(f == (True, 4, False) for f in mem_families):
        add(OperationSpec("mem", {"load": True, "width": 4, "signed": False},
                          oprd_mode=OPRD_RAW, name="ld4"))
    if has_stm and not any(f == (False, 4, False) for f in mem_families):
        add(OperationSpec("mem", {"load": False, "width": 4, "signed": False},
                          oprd_mode=OPRD_RAW, name="st4"))
    for sig in sorted((s for s in sigs if s[0] == "memr"), key=repr):
        _k, load, width, signed, shift = sig
        if three_reg:
            add(OperationSpec("memr", {"load": load, "width": width, "signed": signed, "shift": shift},
                              oprd_mode=OPRD_REG,
                              name="%s%dr%d" % ("ld" if load else "st", width, shift)))
        else:
            add(OperationSpec("memrx", {"load": load, "width": width, "signed": signed, "shift": shift},
                              oprd_mode=OPRD_REG,
                              name="%s%dx%d" % ("ld" if load else "st", width, shift)))
    if any(s[0] == "spadj" for s in sigs) or has_ldm or has_stm:
        add(OperationSpec("spadj", name="spadj"))
    # sp-relative word transfers are mandatory whenever they occur: the
    # generic Memory format would otherwise burn a register index on sp
    for load in (True, False):
        if any(
            u.sp_base and u.sig == ("mem", load, 4, False) for u in profile.uses
        ):
            add(OperationSpec("memsp", {"load": load}, name="%ssp" % ("ld" if load else "st")))

    if len(specs) > (1 << k_op):
        raise _Infeasible(
            "mandatory set needs %d opcodes, only %d available" % (len(specs), 1 << k_op)
        )

    # --- dictionaries ---------------------------------------------------
    budgets = config.dict_budgets if config.use_dictionaries else {"operate": 0, "mem": 0}
    dyn_w = config.dyn_weight
    if dyn_w is None:
        total_dyn = sum(profile.sig_dynamic.values()) or 1
        total_static = sum(profile.sig_static.values()) or 1
        dyn_w = total_static / total_dyn
    dicts = build_dictionaries(profile, geom, budgets, dyn_w)

    # --- application-specific additions (AIS), greedy by benefit --------
    if config.use_ais:
        room = (1 << k_op) - len(specs)
        for spec, _benefit in _ais_candidates(profile, geom, dicts, dp2_ops, weight):
            if room <= 0:
                break
            specs.append(spec)
            room -= 1

    table = {i: spec for i, spec in enumerate(specs)}
    return FitsIsa(k_op, k_reg, table, regmap, dicts)


def _sig_weights(profile, config):
    total_dyn = sum(profile.sig_dynamic.values()) or 1
    total_static = sum(profile.sig_static.values()) or 1
    dyn_w = config.dyn_weight
    if dyn_w is None:
        dyn_w = total_static / total_dyn

    def weight(sig):
        return profile.sig_static[sig] + dyn_w * profile.sig_dynamic[sig]

    return weight


def _two_op_fractions(profile):
    """Per dp op: fraction of imm uses with rd == rn."""
    totals = Counter()
    twos = Counter()
    for use in profile.uses:
        if use.sig[0] == "dp3" and use.sig[2] == "imm":
            totals[use.sig[1]] += 1
            if use.two_op:
                twos[use.sig[1]] += 1
    return {op: twos[op] / totals[op] for op in totals}


def _ais_candidates(profile, geom, dicts, dp2_ops, weight):
    """Optional opcodes ranked by estimated benefit (halfwords saved)."""
    out = []

    # load/store-multiple lists: each saves (decomposed length - 1)
    for sig in profile.sig_static:
        if sig[0] in ("ldm", "stm"):
            reglist = sig[1]
            decomposed = len(reglist) + 1 + (1 if 15 in reglist else 0)
            benefit = (decomposed - 1) * weight(sig)
            name = "%s.%s" % (sig[0], "_".join(str(r) for r in reglist))
            out.append((OperationSpec(sig[0], {"reglist": reglist}, name=name), benefit))

    # dictionary-indexed variants per family
    operate_vals = dicts.get("operate", [])
    mem_vals = dicts.get("mem", [])
    if operate_vals:
        fam_hits = Counter()
        for use in profile.uses:
            if use.imm_category != "operate" or use.imm is None:
                continue
            sig0 = use.sig[0]
            if sig0 == "movi":
                width = geom.operate2_width
                fam = ("movi",)
            elif sig0 == "mvni":
                width = geom.operate2_width
                fam = ("mvni",)
            elif sig0 == "dp3" and use.sig[2] == "imm":
                op = use.sig[1]
                width = geom.operate2_width if op in dp2_ops else geom.oprd_width
                fam = ("dp2", op) if op in dp2_ops else ("dp3", op)
            elif sig0 == "cmp2" and use.sig[2] == "imm":
                width = geom.operate2_width
                fam = ("cmp2", use.sig[1])
            elif sig0 == "shifti" and geom.oprd_width >= geom.k_reg:
                width = geom.oprd_width
                fam = ("shifti", use.sig[1])
            else:
                continue
            if raw_operate_ok(use.imm, width):
                continue
            dict_reach = {("movi",): geom.operate2_width}.get(fam, width)
            idx_limit = 1 << dict_reach
            try:
                pos = operate_vals.index(use.imm)
            except ValueError:
                continue
            if pos < idx_limit:
                fam_hits[fam] += 1
        for fam, hits in fam_hits.items():
            spec = _dict_spec_for_family(fam)
            if spec is not None:
                out.append((spec, float(hits)))
    if mem_vals:
        fam_hits = Counter()
        for use in profile.uses:
            if use.sig[0] != "mem" or use.imm is None:
                continue
            load, width, signed = use.sig[1:]
            if raw_mem_ok(use.imm, width, geom.oprd_width):
                continue
            try:
                pos = mem_vals.index(use.imm)
            except ValueError:
                continue
            if pos < (1 << geom.oprd_width):
                fam_hits[(load, width, signed)] += 1
        for (load, width, signed), hits in fam_hits.items():
            spec = OperationSpec(
                "mem",
                {"load": load, "width": width, "signed": signed},
                oprd_mode=OPRD_DICT,
                dict_category="mem",
                name="%s%dd" % ("ld" if load else "st", width),
            )
            out.append((spec, float(hits)))

    out.sort(key=lambda pair: pair[1], reverse=True)
    return out


def _dict_spec_for_family(fam):
    if fam == ("movi",):
        return OperationSpec("movi", oprd_mode=OPRD_DICT, dict_category="operate", name="movid")
    if fam == ("mvni",):
        return OperationSpec("mvni", oprd_mode=OPRD_DICT, dict_category="operate", name="mvnid")
    if fam[0] == "dp2":
        return OperationSpec("dp2", {"op": fam[1]}, oprd_mode=OPRD_DICT,
                             dict_category="operate", name="%s2d" % fam[1].name.lower())
    if fam[0] == "dp3":
        return OperationSpec("dp3", {"op": fam[1], "mode": "imm"}, oprd_mode=OPRD_DICT,
                             dict_category="operate", name="%s3d" % fam[1].name.lower())
    if fam[0] == "cmp2":
        return OperationSpec("cmp2", {"op": fam[1], "mode": "imm"}, oprd_mode=OPRD_DICT,
                             dict_category="operate", name="%s2d" % fam[1].name.lower())
    if fam[0] == "shifti":
        return OperationSpec("shifti", {"shift": fam[1]}, oprd_mode=OPRD_DICT,
                             dict_category="operate", name="%sd" % fam[1].name.lower())
    return None
