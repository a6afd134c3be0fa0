"""The FITS profiler: static + dynamic requirements of an application.

Produces what the paper's profile stage produces (Section 3.2): opcode
(signature) usage, immediate-field requirements per category, register
pressure, and branch-displacement needs — the inputs to instruction-set
synthesis.
"""

from collections import Counter, defaultdict

from repro.core.signatures import classify
from repro.obs import core as obs


class ArmProfile:
    """Static and dynamic profile of one compiled, executed application.

    Attributes:
        image: the ARM image profiled.
        uses: per-static-instruction :class:`~repro.core.signatures.Use`.
        exec_counts: per-static-instruction dynamic execution counts
            (all zeros when profiling statically only).
        sig_static / sig_dynamic: Counter per signature.
        imm_static / imm_dynamic: category → Counter of immediate values.
        reg_static / reg_dynamic: Counter of ARM register numbers
            referenced through register fields.
    """

    def __init__(self, image, uses, exec_counts):
        self.image = image
        self.uses = uses
        self.exec_counts = exec_counts
        self.sig_static = Counter()
        self.sig_dynamic = Counter()
        self.imm_static = defaultdict(Counter)
        self.imm_dynamic = defaultdict(Counter)
        self.reg_static = Counter()
        self.reg_dynamic = Counter()
        for idx, use in enumerate(uses):
            weight = int(exec_counts[idx])
            self.sig_static[use.sig] += 1
            self.sig_dynamic[use.sig] += weight
            if use.imm is not None and use.imm_category is not None:
                self.imm_static[use.imm_category][use.imm] += 1
                self.imm_dynamic[use.imm_category][use.imm] += weight
            for role, reg in use.regs.items():
                if role == "rb" and use.sp_base:
                    # sp-based transfers are expected to use the dedicated
                    # MemorySP format; don't let sp claim a register index
                    continue
                self.reg_static[reg] += 1
                self.reg_dynamic[reg] += weight

    @classmethod
    def from_execution(cls, image, result):
        """Profile an image using a completed functional simulation:
        its :class:`~repro.sim.functional.trace.ExecutionResult`, or
        the per-instruction execution counts themselves."""
        counts = result.exec_counts() if hasattr(result, "exec_counts") else result
        return cls._classified(image, counts, "dynamic")

    @classmethod
    def static_only(cls, image):
        """Profile with no dynamic weights (static synthesis fallback)."""
        return cls._classified(image, [0] * len(image.instrs), "static")

    @classmethod
    def _classified(cls, image, exec_counts, mode):
        with obs.span("stage.profile", image=image.name, mode=mode):
            uses = [
                classify(instr, index=i, image=image)
                for i, instr in enumerate(image.instrs)
            ]
            profile = cls(image, uses, exec_counts)
        if obs.enabled:
            obs.counter("profile.runs")
            obs.counter("profile.signatures", len(profile.sig_static))
        return profile

    # ------------------------------------------------------------------

    def register_ranking(self):
        """ARM registers ranked by combined usage (most used first).

        Every ARM register that appears gets a slot; unused registers
        trail in numeric order so the map is total.
        """
        score = {
            r: (self.reg_static[r] + self.reg_dynamic[r], -r) for r in range(16)
        }
        return sorted(range(16), key=lambda r: score[r], reverse=True)

    def distinct_registers(self):
        """Number of ARM registers actually referenced by fields."""
        return len([r for r in range(16) if self.reg_static[r]])

    def signature_report(self, top=None):
        """Human-readable signature usage table."""
        rows = sorted(
            self.sig_static.items(), key=lambda kv: self.sig_dynamic[kv[0]], reverse=True
        )
        if top:
            rows = rows[:top]
        lines = ["%-44s %10s %12s" % ("signature", "static", "dynamic")]
        for sig, count in rows:
            lines.append("%-44s %10d %12d" % (repr(sig), count, self.sig_dynamic[sig]))
        return "\n".join(lines)
