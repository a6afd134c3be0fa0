"""Figure regeneration: one function per paper figure (3 through 14).

Each returns a :class:`FigureTable` whose rows mirror the bars of the
paper's figure (one per benchmark plus the average) and whose
``paper_note`` records what the paper reported, so EXPERIMENTS.md can be
regenerated mechanically.
"""

from repro.workloads import POWER_STUDY_BENCHMARKS, CODE_SIZE_BENCHMARKS


class FigureTable:
    """A rendered experiment: per-benchmark rows plus a summary row."""

    def __init__(self, figure, title, columns, rows, averages, paper_note):
        self.figure = figure
        self.title = title
        self.columns = columns          # value column names
        self.rows = rows                # list of (benchmark, [values])
        self.averages = averages        # [values]
        self.paper_note = paper_note

    def column(self, name):
        idx = self.columns.index(name)
        return {bench: values[idx] for bench, values in self.rows}

    def average(self, name):
        return self.averages[self.columns.index(name)]

    def render(self, fmt="%8.2f"):
        width = max(len(b) for b, _ in self.rows + [("average", None)]) + 2
        head = "%s — %s" % (self.figure, self.title)
        lines = [head, "=" * len(head)]
        header = " " * width + "".join("%12s" % c for c in self.columns)
        lines.append(header)
        for bench, values in self.rows:
            lines.append(bench.ljust(width) + "".join("%12s" % (fmt % v) for v in values))
        lines.append("-" * len(header))
        lines.append("average".ljust(width) + "".join("%12s" % (fmt % v) for v in self.averages))
        lines.append("paper: %s" % self.paper_note)
        return "\n".join(lines)


def _avg(rows):
    n = len(rows)
    cols = len(rows[0][1])
    return [sum(values[i] for _b, values in rows) / n for i in range(cols)]


def _table(figure, title, columns, rows, paper_note):
    return FigureTable(figure, title, columns, rows, _avg(rows), paper_note)


def _power_rows(data):
    return [(b, data[b]) for b in POWER_STUDY_BENCHMARKS if b in data]


# ----------------------------------------------------------------------


def fig3(data):
    rows = [(b, [100.0 * s["static_mapping"]]) for b, s in _power_rows(data)]
    return _table(
        "Figure 3", "ARM-to-FITS static mapping (% one-to-one)", ["static%"],
        rows, "96 % average static mapping",
    )


def fig4(data):
    rows = [(b, [100.0 * s["dynamic_mapping"]]) for b, s in _power_rows(data)]
    return _table(
        "Figure 4", "ARM-to-FITS dynamic mapping (% one-to-one)", ["dynamic%"],
        rows, "98 % average dynamic mapping",
    )


def fig5(data):
    rows = []
    for b in CODE_SIZE_BENCHMARKS:
        if b not in data:
            continue
        s = data[b]
        arm = s["arm_code_size"]
        rows.append(
            (b, [100.0, 100.0 * s["thumb_code_size"] / arm, 100.0 * s["fits_code_size"] / arm])
        )
    return _table(
        "Figure 5", "code size, normalized to ARM = 100", ["ARM", "THUMB", "FITS"],
        rows, "THUMB ≈ 67 (33 % saving); FITS ≈ 53 (47 % saving)",
    )


def fig6(data):
    """I-cache power breakdown per configuration (averaged fractions)."""
    rows = []
    for b, s in _power_rows(data):
        values = []
        for label in ("ARM16", "ARM8", "FITS16", "FITS8"):
            c = s.config(label)
            values.extend(
                [100 * c["frac_switching"], 100 * c["frac_internal"], 100 * c["frac_leakage"]]
            )
        rows.append((b, values))
    columns = [
        "%s.%s" % (cfg, comp)
        for cfg in ("A16", "A8", "F16", "F8")
        for comp in ("sw", "int", "lk")
    ]
    return _table(
        "Figure 6", "I-cache power breakdown (%)", columns, rows,
        "dynamic power dominates; internal > 50 % in all four schemes; "
        "leakage share roughly constant with size",
    )


def _component_saving(data, field, figure, title, paper_note):
    rows = []
    for b, s in _power_rows(data):
        rows.append(
            (b, [100.0 * s.saving(label, field) for label in ("ARM8", "FITS16", "FITS8")])
        )
    return _table(figure, title, ["ARM8", "FITS16", "FITS8"], rows, paper_note)


def fig7(data):
    return _component_saving(
        data, "switching_j", "Figure 7", "I-cache switching power saving (%)",
        "≈50 % for FITS16 and FITS8, ≈0 % for ARM8 (49.4 % avg in abstract)",
    )


def fig8(data):
    return _component_saving(
        data, "internal_j", "Figure 8", "I-cache internal power saving (%)",
        "half-sized caches (ARM8, FITS8) save substantially; 43.9 % avg in abstract",
    )


def fig9(data):
    return _component_saving(
        data, "leakage_j", "Figure 9", "I-cache leakage power saving (%)",
        "half-sized caches save ≈50 %, eroded by longer runtime for ARM8 on "
        "miss-heavy apps; 14.9 % avg in abstract",
    )


def fig10(data):
    rows = []
    for b, s in _power_rows(data):
        rows.append(
            (b, [100.0 * s.saving(label, "peak_w") for label in ("ARM8", "FITS16", "FITS8")])
        )
    return _table(
        "Figure 10", "I-cache peak power saving (%)", ["ARM8", "FITS16", "FITS8"],
        rows, "31 % ARM8, 46 % FITS16, 63 % FITS8 average",
    )


def fig11(data):
    return _component_saving(
        data, "icache_energy_j", "Figure 11", "total I-cache power saving (%)",
        "47 % FITS8 > 27 % ARM8 > 18 % FITS16 average",
    )


def fig12(data):
    rows = []
    for b, s in _power_rows(data):
        rows.append(
            (b, [100.0 * s.saving(label, "chip_w") for label in ("ARM8", "FITS16", "FITS8")])
        )
    return _table(
        "Figure 12", "total chip power saving (%)", ["ARM8", "FITS16", "FITS8"],
        rows, "15 % FITS8, 8 % ARM8, 7 % FITS16 average (power basis, as the "
        "paper reports; EXPERIMENTS.md discusses the runtime caveat)",
    )


def fig13(data):
    rows = []
    for b, s in _power_rows(data):
        rows.append(
            (b, [s.config(label)["mpm"] for label in ("ARM16", "ARM8", "FITS16", "FITS8")])
        )
    return _table(
        "Figure 13", "I-cache misses per million accesses",
        ["ARM16", "ARM8", "FITS16", "FITS8"], rows,
        "half-sized FITS8 misses no more than full-sized ARM16; ARM8 blows "
        "up on large-footprint applications",
    )


def fig14(data):
    rows = []
    for b, s in _power_rows(data):
        rows.append(
            (b, [s.config(label)["ipc"] for label in ("ARM16", "ARM8", "FITS16", "FITS8")])
        )
    return _table(
        "Figure 14", "instructions per cycle (dual issue, max 2)",
        ["ARM16", "ARM8", "FITS16", "FITS8"], rows,
        "all configurations satisfactory; FITS8 ≈ ARM16 with minor variations",
    )


FIGURES = {
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
}
