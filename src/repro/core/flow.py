"""The full FITS system flow (paper Figure 1).

``fits_flow`` runs profile → synthesize → compile/translate → configure
→ execute for one application, iterating over compiler register budgets
(the paper's feedback loop: "if all of the requirements are met, a
cost-effective solution has been produced; otherwise we go back to the
synthesize stage").  A tighter register budget keeps every hot register
inside the 3-bit field range but costs spill instructions; the flow
translates under each budget and keeps the cheapest total
(static + dynamic fetched halfwords).

Only the unrestricted compile (the *baseline*) is simulated on ARM.
Every budget compiles the same IR, so they share its control flow:
spill code and prologues change what an IR block lowers to, not how
often it runs.  The linker tags each instruction with its origin (the
IR block it was lowered from, see :mod:`repro.compiler.arm_backend`);
the baseline's execution counts, folded onto origins, are read back
through each budget image's own origins.  A budget image with an origin
the baseline lacks (a block that lowers to nothing at the baseline) is
simulated instead.  Only the kept FITS image runs on the FITS simulator.

The search's outcome is small: the kept budget and the synthesized ISA
(:func:`flow_record`).  :func:`replay_flow` rebuilds the kept FITS image
from it with one compile and one translation — no ARM simulation, no
profile from execution and no synthesis — and checks the rebuilt
image's content hash against the record's.
"""

import numpy as np

from repro.compiler.link import link_arm
from repro.isa.fits.spec import FitsIsa
from repro.obs import core as obs
from repro.sim.functional import ArmSimulator, cached_run
from repro.sim.functional.fits_sim import FitsSimulator
from repro.sim.functional.store import image_fingerprint
from repro.core.profiler import ArmProfile
from repro.core.synthesizer import synthesize
from repro.core.translator import translate

#: Register budgets explored by the flow, tightest first; ``None`` means
#: the full ARM callee-saved pool (no restriction: register-hungry
#: applications then lean on the k_reg=4 two-address geometries instead
#: of spilling).
DEFAULT_BUDGETS = ((4, 5), (4, 5, 6), (4, 5, 6, 7), None)

#: Instruction limit of the flow's ARM runs; the FITS run gets twice it.
MAX_INSTRUCTIONS = 200_000_000


class FitsFlowResult:
    """Everything the experiments need from one application's FITS flow.

    ``arm_result`` is the baseline (unrestricted) ARM run, the one the
    FITS exit code is checked against; the kept budget's execution
    counts are ``profile.exec_counts``.
    """

    def __init__(self, budget, arm_image, arm_result, profile, synthesis, fits_result):
        self.budget = budget
        self.arm_image = arm_image          # the FITS-tuned ARM compile
        self.arm_result = arm_result
        self.profile = profile
        self.synthesis = synthesis
        self.fits_image = synthesis.image
        self.fits_result = fits_result

    @property
    def isa(self):
        return self.synthesis.isa

    @property
    def static_mapping(self):
        return self.fits_image.static_mapping_rate()

    @property
    def dynamic_mapping(self):
        return self.fits_image.dynamic_mapping_rate(self.profile.exec_counts)

    def __repr__(self):
        return "<FitsFlowResult budget=%r k=(%d,%d) static=%.3f dynamic=%.3f>" % (
            self.budget,
            self.isa.k_op,
            self.isa.k_reg,
            self.static_mapping,
            self.dynamic_mapping,
        )


def _fits_cost(synthesis, exec_counts):
    """Total fetched halfwords: static footprint + dynamic stream."""
    image = synthesis.image
    dynamic = 0
    for idx, n in enumerate(image.unit_size):
        dynamic += int(exec_counts[idx]) * n
    return len(image.records) + dynamic


def origin_counts(image, exec_counts):
    """Execution counts of ``image`` folded onto ``(function, origin)``.

    A function without a prologue instruction (a frameless leaf) gets
    its epilogue's count as its prologue count, since it runs once per
    call too.
    """
    counts = dict(zip(image.origin_of_index, exec_counts.tolist()))
    for func, origin in list(counts):
        if origin == "epilogue":
            counts.setdefault((func, "prologue"), counts[func, origin])
    return counts


def project_counts(image, counts):
    """Per-instruction execution counts of ``image`` read from
    :func:`origin_counts` of another compile of the same IR, or None
    when ``image`` has an origin that compile lacks."""
    try:
        return np.array([counts[origin] for origin in image.origin_of_index],
                        dtype=np.int64)
    except KeyError:
        return None


def fits_flow(module, entry="main", budgets=DEFAULT_BUDGETS, config=None,
              max_instructions=MAX_INSTRUCTIONS):
    """Run the full FITS flow for an IR module; returns the best result.

    The FITS binary is executed to completion on the FITS simulator so
    the caller gets a validated trace, not just a translation.
    """
    baseline = link_arm(module, entry=entry)
    arm_result = cached_run(
        "arm", baseline,
        ArmSimulator(baseline, max_instructions=max_instructions).run)
    by_origin = origin_counts(baseline, arm_result.exec_counts())
    attempts = []
    for budget in budgets:
        with obs.span("flow.attempt", module=module.name,
                      budget=list(budget) if budget else None):
            if budget is None:
                arm_image, counts = baseline, arm_result.exec_counts()
            else:
                arm_image = link_arm(module, entry=entry, callee_saved=budget)
                counts = project_counts(arm_image, by_origin)
            if counts is None:
                obs.counter("flow.budget_simulations")
                counts = cached_run(
                    "arm", arm_image,
                    ArmSimulator(arm_image, max_instructions=max_instructions).run,
                ).exec_counts()
            profile = ArmProfile.from_execution(arm_image, counts)
            synthesis = synthesize(profile, config)
            cost = _fits_cost(synthesis, counts)
            mapping = synthesis.image.dynamic_mapping_rate(counts)
        obs.counter("flow.attempts")
        attempts.append((cost, mapping, budget, arm_image, profile, synthesis))
    # minimize fetched halfwords, but within a 10 % cost band prefer the
    # attempt with the best dynamic mapping (the paper's headline metric)
    min_cost = min(a[0] for a in attempts)
    eligible = [a for a in attempts if a[0] <= 1.10 * min_cost]
    _cost, _mapping, budget, arm_image, profile, synthesis = max(
        eligible, key=lambda a: a[1]
    )
    if obs.enabled:
        obs.counter("flow.runs")
        obs.gauge("flow.selected_budget", list(budget) if budget else None)
        obs.observe("flow.dynamic_mapping", _mapping)
    fits_result = run_fits(synthesis.image, 2 * max_instructions)
    if fits_result.exit_code != arm_result.exit_code:
        raise AssertionError(
            "FITS execution diverged from ARM (exit %r vs %r)"
            % (fits_result.exit_code, arm_result.exit_code)
        )
    return FitsFlowResult(budget, arm_image, arm_result, profile, synthesis, fits_result)


def run_fits(image, max_instructions=2 * MAX_INSTRUCTIONS):
    """Run a FITS image to completion through the trace store."""
    return cached_run(
        "fits", image,
        FitsSimulator(image, max_instructions=max_instructions).run)


def flow_record(flow):
    """What :func:`replay_flow` needs to rebuild ``flow``'s FITS image,
    plus the dynamic mapping rate the harness reports, as JSON-ready data."""
    return {
        "budget": list(flow.budget) if flow.budget else None,
        "isa": flow.isa.to_dict(),
        "dynamic_mapping": flow.dynamic_mapping,
        "image_hash": image_fingerprint(flow.fits_image),
    }


def replay_flow(module, record):
    """Rebuild and run the FITS image a :func:`flow_record` describes.

    Compiles ``module`` once at the kept budget and translates it with
    the stored ISA and the static operand uses that synthesis translates
    with.  Returns ``(image, result)``, or None when the rebuilt image's
    content hash is not the record's: the record then describes another
    compile, and the caller re-runs :func:`fits_flow`.
    """
    budget = record["budget"]
    arm_image = link_arm(module,
                         callee_saved=tuple(budget) if budget else None)
    image = translate(arm_image, FitsIsa.from_dict(record["isa"]),
                      uses=ArmProfile.static_only(arm_image).uses)
    if image_fingerprint(image) != record["image_hash"]:
        return None
    return image, run_fits(image)
