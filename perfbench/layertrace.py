"""Outside-in layer tracing: time calls into each layer from the outside.

Nothing under ``src/`` knows about this module. For the length of one
traced region it replaces a fixed set of public entry points with
wrappers that push the callee's layer onto a span stack, and restores
the originals afterwards:

* ``Simulator.run`` / ``schedule`` / ``call_at`` (engine). Every event
  the loop pops is re-pointed at a wrapper that charges its callback to
  the layer of the module that owns it;
* ``RateAllocator.recompute`` (alloc);
* ``FlowScheduler.start_flow`` / ``cancel_flow`` / ``capacity_changed``
  / ``settle_now`` (flows);
* ``TransferManager.start`` / ``pause`` / ``resume`` / ``stall`` /
  ``cancel`` / ``fail`` (transfers);
* the ``on_complete`` / ``on_slice`` / ``on_failed`` hooks of flows and
  transfers, charged to the module that owns each hook;
* every public method of the classes in the traffic, repair, core,
  faults, journal, integrity and monitor packages.

Host time is charged to whichever layer is on top of the stack, so a
layer's self time excludes the nested calls it makes into other layers.
Time with no layer on the stack (the experiment harness, cluster and API
glue, metrics recorders, the benchmark itself) is ``unattributed``. The
self times and ``unattributed`` partition the region exactly.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types

#: Module or package -> layer.
LAYER_OF_MODULE = {
    "repro.sim.engine": "engine",
    "repro.sim.events": "engine",
    "repro.sim.allocator": "alloc",
    "repro.sim.flows": "flows",
    "repro.sim.transfers": "transfers",
    "repro.traffic": "traffic",
    "repro.repair": "repair",
    "repro.core": "core",
    "repro.faults": "faults",
    "repro.journal": "journal",
    "repro.integrity": "integrity",
    "repro.monitor": "monitor",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
UNATTRIBUTED = "unattributed"

#: Packages whose classes get every public method wrapped; the
#: simulator core gets only the entry points named above.
WRAPPED_PACKAGES = tuple(p for p in LAYER_OF_MODULE if not p.startswith("repro.sim."))

_HOOK_LISTS = {
    "flow": ("on_complete",),
    "transfer": ("on_complete", "on_slice", "on_failed"),
}


@functools.lru_cache(maxsize=None)
def layer_of_module(module: str | None) -> str:
    """The layer owning ``module`` (``unattributed`` outside the table)."""
    for prefix, layer in LAYER_OF_MODULE.items():
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


def layer_of_callable(fn) -> str:
    """Layer of the module that owns ``fn`` (function, method, partial)."""
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    return layer_of_module(getattr(fn, "__module__", None))


class LayerClock:
    """A span stack that charges elapsed host time to its top layer."""

    def __init__(self, timer=time.perf_counter) -> None:
        self._timer = timer
        self.self_s = dict.fromkeys((*LAYERS, UNATTRIBUTED), 0.0)
        #: Entries into a layer from a different layer.
        self.calls = dict.fromkeys(LAYERS, 0)
        self._stack = [UNATTRIBUTED]
        self._mark = 0.0
        self.started = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        self._mark = self.started = self._timer()

    def stop(self) -> None:
        now = self._timer()
        self.self_s[self._stack[-1]] += now - self._mark
        self._mark = now
        self.wall_s = now - self.started

    def enter(self, layer: str) -> None:
        now = self._timer()
        top = self._stack[-1]
        self.self_s[top] += now - self._mark
        self._mark = now
        if layer != top and layer != UNATTRIBUTED:
            self.calls[layer] += 1
        self._stack.append(layer)

    def exit(self) -> None:
        now = self._timer()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def wrap(self, fn, layer: str):
        """``fn`` run inside a ``layer`` span (a bare closure: this runs
        once per dispatched event and per hook call)."""
        enter, leave = self.enter, self.exit

        def spanned(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return spanned


class LayerTracer:
    """Installs the wrappers for one traced region; see the module doc.

    Use as a context manager around the run; ``counts`` and
    ``clock.self_s`` hold the results after it exits.
    """

    def __init__(self) -> None:
        self.clock = LayerClock()
        self.counts = {
            "alloc.calls": 0,
            "alloc.noop_calls": 0,
            "alloc.rates_changed": 0,
            "alloc.active_flows": 0,
            "flows.started": 0,
            "flows.cancelled": 0,
            "engine.events": 0,
            "transfers.started": 0,
            "transfers.control_calls": 0,
        }
        self.schedulers: dict = {}
        self._saved: list[tuple[type, str, object]] = []

    # -- patching -------------------------------------------------------------

    def _patch(self, cls: type, name: str, replacement) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _span(self, cls: type, name: str, layer: str, before=None, after=None):
        """Run ``cls.name`` inside a ``layer`` span; ``before(*args)`` and
        ``after(result, *args)`` update the counts outside the span."""
        original = cls.__dict__[name]
        enter, leave = self.clock.enter, self.clock.exit

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            if before is not None:
                before(*args)
            enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                leave()
            if after is not None:
                after(result, *args)
            return result

        self._patch(cls, name, spanned)

    def _hook_list(self):
        """A list whose iteration yields each hook inside its owner's span."""
        wrap = self.clock.wrap

        class HookList(list):
            __slots__ = ()

            def __iter__(self):
                for hook in list.__iter__(self):
                    yield wrap(hook, layer_of_callable(hook))

        return HookList

    def install(self) -> None:
        from repro.sim.allocator import RateAllocator
        from repro.sim.engine import Simulator
        from repro.sim.events import EventQueue
        from repro.sim.flows import FlowScheduler
        from repro.sim.transfers import TransferManager

        clock, counts = self.clock, self.counts
        hook_list = self._hook_list()

        def adopt_hooks(obj, kind: str) -> None:
            for attr in _HOOK_LISTS[kind]:
                hooks = getattr(obj, attr)
                if type(hooks) is list:
                    setattr(obj, attr, hook_list(hooks))

        # Engine: the loop, pushes, and attribution of every popped event.
        for name in ("run", "schedule", "call_at"):
            self._span(Simulator, name, "engine")
        original_pop = EventQueue.__dict__["pop"]

        def pop(queue):
            event = original_pop(queue)
            if event is not None:
                counts["engine.events"] += 1
                event.callback = clock.wrap(
                    event.callback, layer_of_callable(event.callback)
                )
            return event

        self._patch(EventQueue, "pop", pop)

        # Allocator: work per call, and calls that changed no rate.
        def before_recompute(allocator, *_args) -> None:
            counts["alloc.calls"] += 1
            counts["alloc.active_flows"] += len(allocator)

        def after_recompute(changed, *_args) -> None:
            counts["alloc.rates_changed"] += len(changed)
            counts["alloc.noop_calls"] += not changed

        self._span(RateAllocator, "recompute", "alloc", before_recompute, after_recompute)

        # Flows.
        def before_start_flow(scheduler, flow) -> None:
            counts["flows.started"] += 1
            self.schedulers[scheduler] = None
            adopt_hooks(flow, "flow")

        def before_cancel_flow(_scheduler, flow) -> None:
            if flow.started_at is not None and not (flow.done or flow.cancelled):
                counts["flows.cancelled"] += 1

        self._span(FlowScheduler, "start_flow", "flows", before_start_flow)
        self._span(FlowScheduler, "cancel_flow", "flows", before_cancel_flow)
        self._span(FlowScheduler, "capacity_changed", "flows")
        self._span(FlowScheduler, "settle_now", "flows")

        # Transfers.
        def before_start(_manager, transfer) -> None:
            counts["transfers.started"] += 1
            adopt_hooks(transfer, "transfer")

        self._span(TransferManager, "start", "transfers", before_start)

        def before_control(*_args) -> None:
            counts["transfers.control_calls"] += 1

        for name in ("pause", "resume", "stall", "cancel", "fail"):
            self._span(TransferManager, name, "transfers", before_control)

        # Every public method of the control-side packages.
        for cls, name in _public_methods(WRAPPED_PACKAGES):
            self._span(cls, name, layer_of_module(cls.__module__))

    def uninstall(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        self.clock.start()
        return self

    def __exit__(self, *exc) -> None:
        self.clock.stop()
        self.uninstall()

    @property
    def seconds(self) -> float:
        """Length of the traced region (the traced run's wall time)."""
        return self.clock.wall_s

    @property
    def py_flow_ops(self) -> int:
        return sum(s.py_flow_ops for s in self.schedulers)


def _public_methods(packages) -> list[tuple[type, str]]:
    """(class, method name) for every public function defined on a class
    of the given packages (submodules included)."""
    found = []
    seen: set = set()
    for package_name in packages:
        package = importlib.import_module(package_name)
        modules = [package] + [
            importlib.import_module(f"{package_name}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            for obj in vars(module).values():
                if (
                    not isinstance(obj, type)
                    or obj.__module__ != module.__name__
                    or obj in seen
                ):
                    continue
                seen.add(obj)
                for name, attr in vars(obj).items():
                    if not name.startswith("_") and isinstance(
                        attr, types.FunctionType
                    ):
                        found.append((obj, name))
    return found
