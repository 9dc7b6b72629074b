"""In-memory span recorder and the outside-in instrumentation of repro.

Nothing under ``src/`` is edited.  :func:`instrument` replaces module
functions, class methods and (per program, in :func:`wrap_kernel_hooks`)
a kernel program's round hooks with wrappers that add their duration
and call count to a :class:`Tracer`.  A module function is replaced in
its defining module *and* in every loaded ``repro`` module that bound
it with ``from ... import``, so call sites that import at call time
(the registry's ``prepare`` hooks) and at module load both reach the
wrapper.  A wrapper already active for its layer name passes straight
through, so nested or recursive calls are counted once.

Layers that exist only as a prefix of a call-site sequence (family
build, prepare, ``Network`` init, run, summarize, validate, digest) are
recorded by the cell runner with :meth:`Tracer.span`, which also keeps
the span itself (name, start, end, parent) for the trace file written
at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter_ns


class Tracer:
    """Per-layer call counts and busy time, plus explicit spans."""

    def __init__(self) -> None:
        # name -> [calls, total ns, active flag]
        self.acc: Dict[str, List[int]] = {}
        self.spans: List[Tuple[str, int, int, int, Dict[str, Any]]] = []
        self._stack: List[int] = []
        #: Name of the innermost open explicit span ("" outside any).
        self.phase = ""

    def slot(self, name: str) -> List[int]:
        slot = self.acc.get(name)
        if slot is None:
            slot = self.acc[name] = [0, 0, 0]
        return slot

    def seconds(self, name: str) -> float:
        return self.slot(name)[1] / 1e9

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Time one call-site layer and keep the span record."""
        slot = self.slot(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent, attrs))
        self._stack.append(index)
        outer_phase, self.phase = self.phase, name
        slot[2] += 1
        start = _now()
        try:
            yield
        finally:
            end = _now()
            slot[2] -= 1
            slot[0] += 1
            slot[1] += end - start
            self.phase = outer_phase
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, attrs)

    def wrap(
        self, name: str, fn: Callable, only_in: Optional[str] = None
    ) -> Callable:
        """``fn`` timed under layer ``name``; with ``only_in``, timed only
        while that explicit span is the innermost one open."""
        slot = self.slot(name)
        tracer = self

        def traced(*args, **kwargs):
            if slot[2] or (only_in is not None and tracer.phase != only_in):
                return fn(*args, **kwargs)
            slot[2] = 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += _now() - start
                slot[0] += 1
                slot[2] = 0

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as JSON-ready data."""
        return {
            "layers": {
                name: {"calls": calls, "seconds": ns / 1e9}
                for name, (calls, ns, _active) in sorted(self.acc.items())
            },
            "spans": [
                {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    **attrs,
                }
                for name, start, end, parent, attrs in self.spans
            ],
        }


# -- what to instrument --------------------------------------------------

#: (module, function, layer, only timed inside this explicit span).
FUNCTIONS: List[Tuple[str, str, str, Optional[str]]] = [
    ("repro.simulation.protocol", "build_plan", "simulation.plan", None),
    ("repro.routing.schedule", "build_schedule", "routing.schedule", None),
    ("repro.graphs.subgraph_iso", "contains_subgraph", "oracle", "prepare"),
    ("repro.mst.boruvka", "mst_reference", "oracle", "prepare"),
    ("repro.simulation.kernel", "vector_compute", "simulation.eval", None),
    ("repro.simulation.kernel", "vector_summary", "simulation.eval", None),
    ("repro.core.phases", "_parse_concat", "bits.decode", None),
    ("repro.core.engine.delivery", "deliver_outbox", "engine.deliver", None),
    ("repro.core.engine.delivery", "deliver_round_scalar", "engine.deliver", None),
]

#: Every public function of these modules builds (part of) a circuit.
CIRCUIT_MODULES = ["repro.circuits.arithmetic", "repro.circuits.builders"]

#: Functions named ``*_program`` in these modules build node programs.
PROGRAM_MODULES = [
    "repro.routing.lenzen",
    "repro.simulation.protocol",
    "repro.simulation.kernel",
    "repro.matmul.distributed",
    "repro.subgraphs.detection",
    "repro.mst.boruvka",
]

#: (module, class, method names, layer, only-in span).
METHODS: List[Tuple[str, str, Tuple[str, ...], str, Optional[str]]] = [
    ("repro.circuits.circuit", "Circuit", ("evaluate_outputs",), "oracle", "prepare"),
    ("repro.graphs.graph", "Graph", ("add_edge",), "graphs.add_edge", None),
    (
        "repro.core.bits", "Bits",
        ("__getitem__", "to_uint", "to_uint_chunks", "chunks"),
        "bits.decode", None,
    ),
    (
        "repro.core.bits", "BitReader",
        ("read_bit", "read_uint", "read_bits", "read_gamma"),
        "bits.decode", None,
    ),
    (
        "repro.core.bits", "Bits",
        ("from_uint", "from_uint_concat", "from_bools", "concat", "__add__"),
        "bits.encode", None,
    ),
    (
        "repro.core.bits", "BitWriter",
        ("write_bit", "write_uint", "write_bits", "write_gamma", "getvalue"),
        "bits.encode", None,
    ),
    ("repro.core.fastlane", "FixedLane", ("deliver",), "engine.deliver", None),
    ("repro.core.fastlane", "BroadcastLane", ("deliver",), "engine.deliver", None),
    (
        "repro.core.fastlane", "BatchLane",
        ("deliver_compiled", "deliver_kernel"), "engine.deliver", None,
    ),
    (
        "repro.core.fastlane", "BatchBroadcastLane",
        ("deliver_kernel",), "engine.deliver", None,
    ),
]


def _module(name: str):
    """The module, or None when a later version of the code removed it."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _rebind(original: Callable, wrapper: Callable) -> int:
    """Replace ``original`` by ``wrapper`` wherever a loaded ``repro``
    module holds it as a global; returns how many bindings changed."""
    count = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                count += 1
    return count


def _wrap_method(tracer: Tracer, cls: type, attr: str, layer: str, only_in) -> bool:
    raw = cls.__dict__.get(attr)
    if raw is None:
        return False
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__, only_in)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(layer, raw.__func__, only_in)))
    elif callable(raw):
        setattr(cls, attr, tracer.wrap(layer, raw, only_in))
    else:
        return False
    return True


def instrument(tracer: Tracer) -> List[str]:
    """Install every wrapper; returns the ``module.name`` of each one
    installed (entries whose target no longer exists are skipped)."""
    installed: List[str] = []
    targets: List[Tuple[Any, str, str, Optional[str]]] = []
    for mod_name, attr, layer, only_in in FUNCTIONS:
        module = _module(mod_name)
        if module is not None and callable(getattr(module, attr, None)):
            targets.append((module, attr, layer, only_in))
    for mod_name in CIRCUIT_MODULES:
        module = _module(mod_name)
        for attr, value in sorted(vars(module).items() if module else ()):
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == mod_name
            ):
                targets.append((module, attr, "circuits.build", None))
    for mod_name in PROGRAM_MODULES:
        module = _module(mod_name)
        for attr, value in sorted(vars(module).items() if module else ()):
            if (
                inspect.isfunction(value)
                and attr.endswith("_program")
                and value.__module__ == mod_name
                and not inspect.isgeneratorfunction(value)
            ):
                targets.append((module, attr, "program.build", None))
    for module, attr, layer, only_in in targets:
        original = getattr(module, attr)
        if _rebind(original, tracer.wrap(layer, original, only_in)):
            installed.append(f"{module.__name__}.{attr}")
    for mod_name, cls_name, attrs, layer, only_in in METHODS:
        cls = getattr(_module(mod_name), cls_name, None)
        if cls is None:
            continue
        for attr in attrs:
            if _wrap_method(tracer, cls, attr, layer, only_in):
                installed.append(f"{mod_name}.{cls_name}.{attr}")
    return installed


def wrap_kernel_hooks(tracer: Tracer, program: Any) -> bool:
    """Time a kernel program's init hooks, round callbacks and finish as
    ``node.compute``; False when ``program`` is not a kernel program of
    the shape this knows (the caller then derives compute from delivery)."""
    rounds = getattr(program, "rounds", None)
    if not getattr(program, "is_kernel_program", False) or rounds is None:
        return False
    wrap = tracer.wrap
    program.init_hooks = [wrap("node.compute", hook) for hook in program.init_hooks]
    for rnd in rounds:
        for attr in ("send", "recv"):
            hook = getattr(rnd, attr, None)
            if hook is not None:
                setattr(rnd, attr, wrap("node.compute", hook))
    if program.finish is not None:
        program.finish = wrap("node.compute", program.finish)
    return True
