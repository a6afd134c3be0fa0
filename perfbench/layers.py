"""Outside-in layer timers for the traced benchmark run.

The benchmark never edits the program: it measures each layer by
wrapping the layer's entry points after import.  Functions are replaced
in every ``repro.*`` module namespace that bound them (callers that did
``from repro.compiler import compile_arm`` hold their own reference), and
methods are replaced on their class.

Time is accounted as a partition of the wall clock.  Every enter/exit of
a wrapped call closes the interval since the previous boundary and
charges it to the innermost open layer of each thread that has one,
split evenly when several threads are inside layers at once.  Intervals
with no open layer are charged to ``unattributed``.  A layer's share is
therefore its self time (nested timed calls are charged to themselves),
and the shares plus ``unattributed`` add up to the traced wall exactly.
"""

import functools
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict

UNATTRIBUTED = "unattributed"


class LayerTrace:
    """Wall-clock partition over the wrapped entry points."""

    def __init__(self):
        self._lock = threading.Lock()
        self._stacks = {}
        self._last = None
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.t0 = None
        self.t1 = None

    def start(self):
        self.t0 = self._last = time.perf_counter()

    def stop(self):
        with self._lock:
            now = time.perf_counter()
            self._advance(now)
            self.t1 = now

    @property
    def wall_s(self):
        return self.t1 - self.t0

    def _advance(self, now):
        if self._last is None:
            return
        dt = now - self._last
        self._last = now
        open_layers = [stack[-1] for stack in self._stacks.values() if stack]
        if not open_layers:
            self.self_s[UNATTRIBUTED] += dt
            return
        share = dt / len(open_layers)
        for layer in open_layers:
            self.self_s[layer] += share

    def enter(self, layer):
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks.setdefault(threading.get_ident(), []).append(layer)
            self.calls[layer] += 1

    def exit(self):
        with self._lock:
            self._advance(time.perf_counter())
            self._stacks[threading.get_ident()].pop()

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n

    def timed(self, layer, func, after=None):
        """``func`` wrapped as one ``layer`` span; ``after(result, args,
        kwargs)`` runs outside the span to record counts."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.enter(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(result, args, kwargs)
            return result
        return wrapper

    def timed_generator(self, layer, func, after=None):
        """``func`` (a generator function) with every ``next()`` timed as
        one ``layer`` span — the per-item window of a lazy producer."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            items = func(*args, **kwargs)
            while True:
                self.enter(layer)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if after is not None:
                    after(item, args, kwargs)
                yield item
        return wrapper


class Patcher:
    """Install wrappers and put the originals back on :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, wrap):
        """Replace ``module.name`` wherever a ``repro`` module bound it."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return wrapper

    def method(self, cls, name, wrap):
        """Replace ``cls.name`` (plain or class method) on the class."""
        raw = inspect.getattr_static(cls, name)
        self._undo.append((cls, name, raw))
        if isinstance(raw, classmethod):
            setattr(cls, name, classmethod(wrap(raw.__func__)))
        else:
            setattr(cls, name, wrap(raw))

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


def install(trace):
    """Wrap every layer entry point of the ``repro`` package.

    Returns the :class:`Patcher` holding the originals.  Imports happen
    here, before patching, so that every module that binds a wrapped
    name already holds it.
    """
    from repro.compiler import link, pipeline
    from repro.core import flow, profiler, synthesizer, translator
    from repro.dse import evaluate, scheduler, store as dse_store
    from repro.harness import runner
    from repro.power import CachePowerModel, ChipPowerModel
    # server binds run_tasks by name: it must be imported before patching
    from repro.serve import cache as serve_cache, server  # noqa: F401
    from repro.sim.cache import stack
    from repro.sim.functional import planes, store as trace_store
    from repro.sim.functional.arm_sim import ArmSimulator
    from repro.sim.functional.fits_sim import FitsSimulator
    from repro.sim.functional.thumb_sim import ThumbSimulator
    from repro.sim.pipeline import timing
    from repro.workloads import Workload

    p = Patcher()
    span = trace.timed

    p.method(Workload, "build_module", lambda f: span("workloads", f))
    p.method(Workload, "reference", lambda f: span("workloads", f))
    for name, module in (("compile_arm", pipeline),
                         ("compile_thumb", pipeline),
                         ("link_arm", link)):
        p.function(module, name, lambda f: span("compiler", f))
    p.method(profiler.ArmProfile, "from_execution",
             lambda f: span("core.profiler", f))
    p.function(synthesizer, "synthesize",
               lambda f: span("core.synthesizer", f))
    p.function(translator, "translate", lambda f: span("core.translator", f))

    def kept(_result, _args, _kwargs):
        trace.count("flow.kept")

    p.function(flow, "fits_flow", lambda f: _counted(f, kept))

    for isa, cls in (("arm", ArmSimulator), ("thumb", ThumbSimulator),
                     ("fits", FitsSimulator)):
        layer = "sim.functional." + isa

        def ran(result, _args, _kwargs, layer=layer):
            trace.count(layer + ".instructions", result.dynamic_instructions)

        p.method(cls, "run", lambda f, layer=layer, ran=ran:
                 span(layer, f, ran))

    def loaded(result, _args, _kwargs):
        trace.count("store.decode.hits" if result is not None
                    else "store.decode.misses")

    p.method(trace_store.TraceStore, "save",
             lambda f: span("sim.functional.store.encode", f))
    p.method(trace_store.TraceStore, "load",
             lambda f: span("sim.functional.store.decode", f, loaded))
    # the sweep coordinator decodes a job's store entries once and hands
    # them to the workers over shared memory
    p.method(planes.PlaneBus, "export_for",
             lambda f: span("sim.functional.store.decode", f))

    p.method(timing.TimingPrecomp, "__init__",
             lambda f: span("sim.pipeline.precomp", f))
    p.method(timing.TimingBatch, "report",
             lambda f: span("sim.pipeline.report", f))

    def profiled(_result, args, kwargs):
        geometries = kwargs.get("geometries", args[4] if len(args) > 4
                                else ())
        trace.count("stack.geometries", len(geometries))

    p.function(stack, "profile_spans_rle",
               lambda f: span("sim.cache.stack", f, profiled))

    p.method(CachePowerModel, "evaluate", lambda f: span("power", f))
    p.method(ChipPowerModel, "evaluate", lambda f: span("power", f))

    p.function(runner, "collect", lambda f: span("harness", f))
    p.function(runner, "run_benchmark", lambda f: span("harness", f))

    def point(_item, _args, _kwargs):
        trace.count("dse.points")

    def dispatched(results, _args, _kwargs):
        trace.count("dse.retries", sum(r.attempts - 1 for r in results))

    p.function(evaluate, "evaluate_points",
               lambda f: trace.timed_generator("dse.point", f, point))
    p.method(dse_store.ResultStore, "save", lambda f: span("dse.store", f))
    p.function(scheduler, "run_tasks",
               lambda f: span("dse.dispatch", f, dispatched))

    def looked_up(blob, _args, _kwargs):
        trace.count("serve.cache.hits" if blob is not None
                    else "serve.cache.misses")

    p.method(serve_cache.GlobalResultCache, "get",
             lambda f: span("serve", f, looked_up))
    p.method(serve_cache.GlobalResultCache, "put",
             lambda f: span("serve", f))
    return p


def _counted(func, after):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        after(result, args, kwargs)
        return result
    return wrapper
