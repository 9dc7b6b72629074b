"""Workload definitions and the cell runner, shared by the entry point
(``run.py``), the job runner (``job.py``) and the self-test.

A *cell* is one (protocol, family, n) coordinate run on one engine,
executed through the public calls in order: ``GraphFamily.build``,
``ProtocolSpec.prepare``, ``Network(**network_kwargs)``, ``run`` (or
``run_many`` for multi-instance scenarios), ``summarize``, ``validate``
and the ScenarioMatrix digest formula.  The coordinate string, the
digest formulas and the per-instance records come from
``repro.scenarios.matrix`` itself; the instance rng and network seed
derive from the coordinate as ``ScenarioMatrix.run`` derives them, so a
cell's digest here equals the matrix's digest for the same coordinate
(the self-test checks this).
"""

from __future__ import annotations

import hashlib
import importlib
import random
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Tuple

#: The seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: Label of cells run on ``Network``'s default engine (the planner's
#: choice), as opposed to a sweep's explicitly named engines.
DEFAULT_ENGINE = "default"

SWEEP_PROTOCOLS = [
    "routing", "routing_many", "circuit_simulation", "mst", "subgraph_detection",
]
SWEEP_FAMILIES = ["gnp", "sparse", "complete", "cycle"]
SWEEP_WORKERS = 2

#: name -> kind and the cell coordinates at each scale.  ``full`` is
#: what the benchmark measures; ``tiny`` is the pinned-digest canary
#: every run checks and what the self-test drives.
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "tmm64": {
        "kind": "cells",
        "full": {"protocols": ["triangle_mm"], "families": ["gnp"], "sizes": [64]},
        "tiny": {"protocols": ["triangle_mm"], "families": ["gnp", "sparse"], "sizes": [8]},
    },
    "bcast256": {
        "kind": "cells",
        "full": {
            "protocols": ["mst", "subgraph_detection"],
            "families": ["gnp", "sparse"],
            "sizes": [256],
        },
        "tiny": {
            "protocols": ["mst", "subgraph_detection"],
            "families": ["gnp", "sparse"],
            "sizes": [16],
        },
    },
    "sweep128": {
        "kind": "sweep",
        "full": {"protocols": SWEEP_PROTOCOLS, "families": SWEEP_FAMILIES, "sizes": [64, 128]},
        "tiny": {"protocols": SWEEP_PROTOCOLS, "families": SWEEP_FAMILIES, "sizes": [8]},
    },
}

#: Modules a run needs: what ``setup_s`` imports in a fresh interpreter
#: and what every job imports before its timed section.  A module a
#: later version of the code removed is skipped.
IMPORTS = [
    "repro",
    "repro.scenarios",
    "repro.scenarios.sweep",
    "repro.core.engine.planner",
    "repro.circuits.arithmetic",
    "repro.circuits.builders",
    "repro.simulation.protocol",
    "repro.simulation.kernel",
    "repro.matmul.distributed",
    "repro.routing.lenzen",
    "repro.routing.schedule",
    "repro.subgraphs.detection",
    "repro.mst.boruvka",
    "repro.graphs.subgraph_iso",
]


def import_all() -> None:
    for name in IMPORTS:
        try:
            importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise


def coordinates(workload: str, scale: str) -> List[Tuple[str, str, int]]:
    grid = WORKLOADS[workload][scale]
    return [
        (protocol, family, n)
        for protocol in grid["protocols"]
        for family in grid["families"]
        for n in grid["sizes"]
    ]


def cell_key(protocol: str, family: str, n: int, engine: str) -> str:
    return f"{protocol}:{family}:{n}:{engine}"


def sweep_engines() -> List[str]:
    """Every registered engine, in ScenarioMatrix execution order (the
    reference engine first)."""
    from repro.scenarios import ScenarioMatrix

    return ScenarioMatrix(SWEEP_PROTOCOLS, SWEEP_FAMILIES, [8]).ordered_engines()


class CellStats:
    """Per-cell layer split that needs per-run arithmetic: kernel
    programs time their hooks (delivery is the rest of the run);
    generator programs time delivery (node compute is the rest)."""

    def __init__(self) -> None:
        self.compute_s = 0.0
        self.deliver_s = 0.0

    def add(self, tracer, kernel: bool, before: Tuple[float, float, float]) -> None:
        run_s = tracer.seconds("network.run") - before[0]
        compute_s = tracer.seconds("node.compute") - before[1]
        deliver_s = tracer.seconds("engine.deliver") - before[2]
        if kernel:
            deliver_s = run_s - compute_s
        else:
            compute_s = run_s - deliver_s
        self.compute_s += compute_s
        self.deliver_s += deliver_s


def _layer_marks(tracer) -> Tuple[float, float, float]:
    return (
        tracer.seconds("network.run"),
        tracer.seconds("node.compute"),
        tracer.seconds("engine.deliver"),
    )


def _run_on(
    spec, prepared, engine: str, cell_seed: int, tracer, stats: Optional[CellStats]
) -> Dict[str, Any]:
    """Run one prepared coordinate on one engine; a cell record.  A run
    the engine planner degraded to another engine is a failed cell: its
    time is not the planned engine's."""
    from repro.core.network import Network
    from repro.scenarios.matrix import _digest, _instance_records, _records_digest

    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    if engine == DEFAULT_ENGINE:
        program = prepared.programs.get("kernel") or prepared.programs["generator"]
    else:
        program = prepared.programs.get(spec.program_for(engine))
    kernel = False
    if tracer is not None:
        from tracing import wrap_kernel_hooks

        kernel = wrap_kernel_hooks(tracer, program)
    kwargs = dict(prepared.network_kwargs)
    kwargs.setdefault("seed", cell_seed)
    if engine != DEFAULT_ENGINE:
        kwargs["engine"] = engine
    with span("network.init"):
        network = Network(**kwargs)
    marks = _layer_marks(tracer) if tracer is not None else None
    start = time.perf_counter()
    with span("network.run"):
        if prepared.instances is not None:
            runs = network.run_many(program, prepared.instances)
        else:
            runs = [network.run(program, inputs=prepared.inputs)]
    run_s = time.perf_counter() - start
    if stats is not None:
        stats.add(tracer, kernel, marks)
    record: Dict[str, Any] = {
        "run_s": run_s,
        "rounds": runs[0].rounds,
        "bits": sum(run.total_bits for run in runs),
        "validated": True,
    }
    fallback = next((run.fallback for run in runs if run.fallback is not None), None)
    if fallback is not None:
        record["validated"] = False
        record["error"] = (
            f"engine fallback {fallback['from']}->{fallback['to']}: {fallback['error']}"
        )
    with span("summarize"):
        if prepared.instances is not None:
            instance_records = _instance_records(prepared, runs)
            summaries = [item[0] for item in instance_records]
        else:
            summaries = [prepared.summarize(runs[0])]
    with span("validate"):
        try:
            if prepared.instances is not None:
                for k, summary in enumerate(summaries):
                    prepared.validate_instance(k, summary)
            elif prepared.validate is not None:
                prepared.validate(summaries[0])
        except AssertionError as exc:
            record["validated"] = False
            record.setdefault("error", f"validation: {exc}")
    with span("digest"):
        if prepared.instances is not None:
            record["digest"] = _records_digest(instance_records)
        else:
            record["digest"] = _digest(summaries[0], runs[0])
    return record


def run_cells(
    workload: str,
    scale: str,
    seed: int,
    tracer=None,
    stats: Optional[CellStats] = None,
) -> List[Dict[str, Any]]:
    """Run every cell of ``workload`` at ``scale``: on the default
    engine for cell workloads, on every engine the protocol supports
    for the sweep (graph and prepare shared across engines, as in the
    serial ScenarioMatrix runner).  One record per attempted cell;
    unsupported engines are not attempted."""
    from repro.scenarios import get_family, get_protocol
    from repro.scenarios.matrix import _cell_coord

    span = tracer.span if tracer is not None else (lambda name, **kw: nullcontext())
    if WORKLOADS[workload]["kind"] == "sweep":
        engines = sweep_engines()
    else:
        engines = [DEFAULT_ENGINE]
    records: List[Dict[str, Any]] = []
    for protocol, family, n in coordinates(workload, scale):
        spec = get_protocol(protocol)
        runnable = [
            engine for engine in engines
            if engine == DEFAULT_ENGINE or engine in spec.engines
        ]
        coord = _cell_coord(seed, protocol, family, n)
        cell_seed = int.from_bytes(hashlib.sha256(coord.encode()).digest()[:4], "big")
        rng = random.Random(coord)
        with span("cell", key=coord):
            try:
                with span("graphs.build"):
                    graph = get_family(family).build(n, rng)
                with span("prepare"):
                    prepared = spec.prepare(n, graph, rng)
            except Exception as exc:  # noqa: BLE001 - a failed cell is a result
                for engine in runnable:
                    records.append({
                        "key": cell_key(protocol, family, n, engine),
                        "error": f"prepare: {type(exc).__name__}: {exc}",
                    })
                continue
            for engine in runnable:
                if engine != DEFAULT_ENGINE and prepared.programs.get(
                    spec.program_for(engine)
                ) is None:
                    continue
                key = cell_key(protocol, family, n, engine)
                try:
                    record = _run_on(spec, prepared, engine, cell_seed, tracer, stats)
                except Exception as exc:  # noqa: BLE001
                    record = {"error": f"run: {type(exc).__name__}: {exc}"}
                record["key"] = key
                records.append(record)
    return records


def run_sweep_pool(workload: str, scale: str, seed: int, journal: str):
    """The sweep exactly as a user runs it: the supervised worker pool
    with a fresh journal, default options otherwise."""
    from repro.scenarios import ScenarioMatrix

    grid = WORKLOADS[workload][scale]
    matrix = ScenarioMatrix(grid["protocols"], grid["families"], grid["sizes"], seed=seed)
    return matrix.run(workers=SWEEP_WORKERS, journal=journal)
