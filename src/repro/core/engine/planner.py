"""The execution planner: one front door, the best backend per program.

:class:`ExecutionPlanner` replaces the attribute-sniffing dispatch that
used to live inline in :meth:`Network.run`.  Selection walks an ordered
**dispatch table** of named rules; the first rule that returns an engine
wins:

1. ``kernel-program`` — a declared
   :class:`~repro.core.kernels.KernelProgram` runs on the kernel engine
   (a kernel program *is* its own execution semantics; an explicitly
   requested backend is honoured only if it advertises
   ``supports_kernel_programs``).
2. ``requested`` — the backend the network was constructed with, via the
   ``Network(engine=...)`` shim: a string naming a registered engine, or
   any :class:`~repro.core.engine.base.Engine` instance (the plug-in
   point for new backends).
3. ``default`` — the fast engine, whose own fallback chain covers
   compiled replay for oblivious programs and full execution otherwise.

The planner never re-routes around a capability mismatch below rule 1:
if a requested backend cannot execute the program, the engine's own
``check_program`` raises, keeping surprises loud.  Selection is pure —
it never mutates the network — so ``plan`` can also be used to ask
"which backend *would* run this?" (the scenario matrix does).

Graceful degradation
--------------------

:meth:`ExecutionPlanner.execute` / :meth:`~ExecutionPlanner.execute_many`
wrap selection with the degradation chain: when the planned backend dies
with a *non-protocol* exception (an engine bug, a resource failure — not
a :class:`~repro.core.errors.ReproError`, which is the program's own
semantics and always propagates), the run is re-executed on the next
capable backend in kernel → fast → legacy order and the fallback is
recorded on the result.  The legacy engine is the reference semantics,
so *its* exceptions propagate unchanged; if the chain is exhausted
without reaching it, :class:`~repro.core.errors.EngineFallbackError`
chains the original failure.  ``Network(degrade=False)`` opts out.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.core.engine.base import Engine, is_kernel_program
from repro.core.engine.fast import FastEngine
from repro.core.engine.kernel import KernelEngine
from repro.core.engine.legacy import LegacyEngine
from repro.core.errors import EngineFallbackError, ReproError

__all__ = [
    "LEGACY_ENGINE",
    "FAST_ENGINE",
    "KERNEL_ENGINE",
    "ENGINES",
    "ExecutionPlanner",
    "resolve_engine",
]

#: Shared stateless singletons (all per-run state lives on the network).
LEGACY_ENGINE = LegacyEngine()
FAST_ENGINE = FastEngine()
KERNEL_ENGINE = KernelEngine()

#: Registry of built-in backends by name — the values accepted by the
#: ``Network(engine=...)`` shim besides direct Engine instances.
ENGINES = {
    LEGACY_ENGINE.name: LEGACY_ENGINE,
    FAST_ENGINE.name: FAST_ENGINE,
    KERNEL_ENGINE.name: KERNEL_ENGINE,
}


def resolve_engine(engine: Any) -> Optional[Engine]:
    """Normalize a ``Network(engine=...)`` value to an Engine instance.

    ``None`` and ``"auto"`` mean "let the planner choose" and resolve to
    ``None``; a known name resolves through :data:`ENGINES`; an
    :class:`Engine` instance passes through.  Anything else raises
    ``ValueError`` (the shim's historical contract).
    """
    if engine is None or engine == "auto":
        return None
    if isinstance(engine, Engine):
        return engine
    resolved = ENGINES.get(engine)
    if resolved is None:
        raise ValueError(f"unknown engine {engine!r}")
    return resolved


def _kernel_program_rule(network: Any, program: Any) -> Optional[Engine]:
    if not is_kernel_program(program):
        return None
    requested = network._requested_engine
    if requested is not None and requested.supports_kernel_programs:
        return requested
    return KERNEL_ENGINE


def _requested_rule(network: Any, program: Any) -> Optional[Engine]:
    return network._requested_engine


def _default_rule(network: Any, program: Any) -> Optional[Engine]:
    return FAST_ENGINE


class ExecutionPlanner:
    """Ordered rule table mapping ``(network, program)`` to an Engine."""

    #: Default dispatch table; each entry is ``(label, rule)`` with
    #: ``rule(network, program) -> Optional[Engine]``.
    DEFAULT_TABLE: Tuple[Tuple[str, Callable[[Any, Any], Optional[Engine]]], ...] = (
        ("kernel-program", _kernel_program_rule),
        ("requested", _requested_rule),
        ("default", _default_rule),
    )

    __slots__ = ("table",)

    def __init__(
        self,
        table: Optional[
            List[Tuple[str, Callable[[Any, Any], Optional[Engine]]]]
        ] = None,
    ) -> None:
        self.table = tuple(table) if table is not None else self.DEFAULT_TABLE

    def plan(self, network: Any, program: Any) -> Engine:
        """The backend that will execute ``program`` on ``network``."""
        for _label, rule in self.table:
            engine = rule(network, program)
            if engine is not None:
                return engine
        raise AssertionError("planner table has no default rule")

    def explain(self, network: Any, program: Any) -> Tuple[str, Engine]:
        """``(rule label, engine)`` — which table entry decided."""
        for label, rule in self.table:
            engine = rule(network, program)
            if engine is not None:
                return label, engine
        raise AssertionError("planner table has no default rule")

    # -- graceful degradation --------------------------------------------

    def fallback_chain(self, program: Any, failed: Engine) -> List[Engine]:
        """The engines that may stand in for ``failed`` on ``program``,
        most capable first (kernel → fast → legacy), restricted to
        backends that can execute the program's flavour at all."""
        kernel = is_kernel_program(program)
        chain: List[Engine] = []
        for engine in (KERNEL_ENGINE, FAST_ENGINE, LEGACY_ENGINE):
            if engine is failed or engine.name == failed.name:
                continue
            if kernel and not engine.supports_kernel_programs:
                continue
            if not kernel and not engine.supports_generator_programs:
                continue
            chain.append(engine)
        return chain

    def execute(
        self,
        network: Any,
        program: Any,
        inputs: Any = None,
        checkpoint: Any = None,
        resume_from: Any = None,
    ) -> Any:
        """Plan and run one execution, degrading on engine failure.
        Checkpoint/resume requests travel with the call: a fallback
        engine honours them too (natively or via replay-restore), and a
        :class:`~repro.core.errors.RunPreempted` — a ``ReproError`` —
        always propagates instead of degrading."""
        if checkpoint is None and resume_from is None:
            return self._degrade(
                network,
                program,
                lambda engine: engine.run(network, program, inputs),
            )
        return self._degrade(
            network,
            program,
            lambda engine: engine.run(
                network, program, inputs,
                checkpoint=checkpoint, resume_from=resume_from,
            ),
        )

    def execute_many(
        self,
        network: Any,
        program: Any,
        inputs_list: Any,
        checkpoint: Any = None,
        resume_from: Any = None,
    ) -> Any:
        """Plan and run a sweep, degrading on engine failure."""
        if checkpoint is None and resume_from is None:
            return self._degrade(
                network,
                program,
                lambda engine: engine.run_many(network, program, inputs_list),
            )
        return self._degrade(
            network,
            program,
            lambda engine: engine.run_many(
                network, program, inputs_list,
                checkpoint=checkpoint, resume_from=resume_from,
            ),
        )

    def _degrade(self, network: Any, program: Any, call: Callable[[Engine], Any]) -> Any:
        planned = self.plan(network, program)
        if not getattr(network, "degrade", True):
            return call(planned)
        try:
            return call(planned)
        except ReproError:
            # Protocol semantics (bandwidth, topology, round budget,
            # program contract): deterministic behaviour of the program
            # itself, identical on every backend — never masked.
            raise
        except Exception as exc:
            if planned.name == LEGACY_ENGINE.name:
                # The reference semantics failed: its exception is the
                # truth about the program, not an engine fault to route
                # around.
                raise
            failures = [(planned.name, f"{type(exc).__name__}: {exc}")]
            chain = self.fallback_chain(program, planned)
            if not chain:
                raise
            last_exc: BaseException = exc
            for engine in chain:
                try:
                    result = call(engine)
                except ReproError:
                    raise
                except Exception as fallback_exc:  # noqa: BLE001
                    if engine is LEGACY_ENGINE:
                        # The reference semantics failed too: its
                        # exception *is* the truth about the program.
                        raise
                    failures.append(
                        (engine.name, f"{type(fallback_exc).__name__}: {fallback_exc}")
                    )
                    last_exc = fallback_exc
                    continue
                info = {
                    "from": planned.name,
                    "to": engine.name,
                    "error": failures[0][1],
                }
                for item in result if isinstance(result, list) else (result,):
                    item.fallback = dict(info)
                return result
            raise EngineFallbackError(
                "every engine in the degradation chain failed: "
                + "; ".join(f"{name}: {error}" for name, error in failures)
            ) from last_exc


#: The planner every network uses unless given its own.
DEFAULT_PLANNER = ExecutionPlanner()
