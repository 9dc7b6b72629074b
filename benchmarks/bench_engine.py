"""Engine throughput benchmark: rounds/sec and messages/sec.

Measures the message-passing engine itself (no protocol logic) across
all three communication models and all engine paths:

* ``legacy``        — the original per-round-allocation reference loop;
* ``fast``          — the zero-churn scalar loop (reused inbox buffers,
                      hoisted validation);
* ``fast+fixedlane``— the fast loop fed by fixed-width outboxes
                      (``Outbox.fixed_width`` for unicast/CONGEST,
                      ``Outbox.broadcast_uint`` on the blackboard —
                      reported as ``fast+bcastlane``), so whole rounds
                      are delivered through numpy bulk writes.

Workloads (width-32 payloads):

* ``unicast``   — all-to-all on the clique: n·(n-1) messages per round;
* ``broadcast`` — every node writes the blackboard: n·(n-1) deliveries
                  per round;
* ``congest``   — a ring topology: 2n messages per round (dominated by
                  per-round overhead, i.e. a rounds/sec probe).

On top of the raw engine sweep, a ``protocols`` section times two
broadcast-heavy real protocols end to end (the ``transmit_broadcast``
phase and full-learning subgraph detection at n=128) under both
engines, so the broadcast lane's effect on actual workloads is tracked
alongside the synthetic numbers.

A ``replay`` section measures the *repeated-run* workloads the compiled
schedule layer targets: the same oblivious protocol executed K times on
one network, comparing plain per-run execution (the PR 2 fast engine),
compiled replay (``mark_oblivious`` + K ``run`` calls), and batched
multi-instance execution (``run_many`` with stacked payload matrices).
Two protocol trial sweeps (``transmit_broadcast`` over K payload
instances and full-learning detection over K graphs) are run both as a
sequential loop and through ``run_many``.

A ``kernels`` section measures the kernel-program path (PR 4): the same
repeated unicast workload expressed as declared round kernels — zero
generator resumptions — against the compiled generator replay, at
n ∈ {64, 256} (quick: {16, 32}), plus a Lenzen-routing sweep comparing
``route_kernel_program`` with the generator ``route_program`` under
``run_many``.

A ``scenario_matrix`` section (PR 5) sweeps the protocol registry —
problem × graph family × n × engine — through
:class:`repro.scenarios.ScenarioMatrix`: per-cell timing and bit
accounting, ground-truth validation, and a digest comparison pinning
every backend to the legacy reference engine.  The sweep aborts the
benchmark if any cell diverges, so the JSON doubles as an equivalence
certificate for the engine subsystem.

A ``sharded`` section (PR 8) runs one sweep through the resilient
sharded executor (:mod:`repro.scenarios.sweep`) at several worker
counts, asserts the pooled digests byte-identical to the serial runner,
aggregates per-worker accounting (cells / seconds / bits), and gates
the serial path's dispatch overhead with the pool code inactive at
1.05x.

A ``checkpoint`` section (PR 9) gates the zero-cost contract of the
snapshot/restore layer — a run with checkpointing *disabled* must cost
no more than 1.05x the raw planner dispatch — and measures, for
context, the enabled-path cost of flushing a snapshot every round and
the wall-clock saving of resuming a preempted run from its mid-run
snapshot instead of re-executing from scratch.

A ``zero_copy`` section (PR 10) gates the zero-copy sweep fabric: a
cold sweep through a persistent compiled-schedule cache followed by a
warm sweep that must record **zero** compiles (every lane structure
loads from disk), K-sharded and pooled runs that must stay
byte-identical to the serial digests, a shared-memory vs. pickled-queue
transport microbenchmark (the shm round-trip must be at least 1.0x the
pickle+pipe baseline), and a leak check on the ``/dev/shm`` namespace
after the pooled runs.

An ``analysis`` section runs the static protocol verifier
(:mod:`repro.analysis`) over the registry — obliviousness proofs,
bandwidth-budget checks, registry consistency — and aborts the
benchmark on any violation: numbers measured against an unproven
registry are not published.

Run from the repo root (writes ``BENCH_engine.json`` there)::

    PYTHONPATH=src python benchmarks/bench_engine.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_engine.py --quick    # CI smoke

The JSON keeps a per-config table plus ``speedups``, an ``acceptance``
block (fixed-lane vs. legacy messages/sec at the largest unicast size,
replay/batched vs. the plain fast engine on the repeated-run
scenarios), and a ``meta`` block stamping python/numpy versions and the
git revision so the perf trajectory across PRs stays comparable.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import pickle
import platform
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.core.bits import Bits
from repro.core.compiled import mark_oblivious
from repro.core.fastlane import FixedWidthSchedule
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import transmit_broadcast

WIDTH = 32
MASK = (1 << WIDTH) - 1


# -- node programs ------------------------------------------------------


def unicast_dict_program(rounds):
    def program(ctx):
        me = ctx.node_id
        payloads = {
            v: Bits.from_uint((me * 2654435761 + v) & MASK, WIDTH)
            for v in ctx.neighbors
        }
        for _ in range(rounds):
            yield Outbox.unicast(payloads)
        return None

    return program


def unicast_fixed_program(rounds):
    schedule = FixedWidthSchedule(WIDTH)

    def program(ctx):
        me = ctx.node_id
        dests = np.fromiter(ctx.neighbors, dtype=np.intp, count=len(ctx.neighbors))
        values = (dests.astype(np.uint64) + np.uint64(me * 2654435761)) & np.uint64(MASK)
        outbox = schedule.outbox(dests, values)
        for _ in range(rounds):
            yield outbox
        return None

    return program


def broadcast_program(rounds):
    def program(ctx):
        payload = Bits.from_uint((ctx.node_id * 2654435761) & MASK, WIDTH)
        for _ in range(rounds):
            yield Outbox.broadcast(payload)
        return None

    return program


def broadcast_fixed_program(rounds):
    def program(ctx):
        outbox = Outbox.broadcast_uint((ctx.node_id * 2654435761) & MASK, WIDTH)
        for _ in range(rounds):
            yield outbox
        return None

    return program


# -- harness ------------------------------------------------------------


def ring_topology(n):
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def _time_best(fn, repeats):
    """Best-of-N wall clock for one workload; returns (seconds, value)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def time_run(network, program, repeats):
    return _time_best(lambda: network.run(program), repeats)


def bench_config(mode, n, engine, lane, rounds, repeats):
    """One (mode, n, engine-path) measurement; returns the record."""
    if mode == "unicast":
        network = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST, engine=engine)
        maker = unicast_fixed_program if lane else unicast_dict_program
        messages_per_round = n * (n - 1)
    elif mode == "broadcast":
        network = Network(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine=engine)
        maker = broadcast_fixed_program if lane else broadcast_program
        messages_per_round = n * (n - 1)  # deliveries; bits charged once/writer
    elif mode == "congest":
        network = Network(
            n=n,
            bandwidth=WIDTH,
            mode=Mode.CONGEST,
            topology=ring_topology(n),
            engine=engine,
        )
        maker = unicast_fixed_program if lane else unicast_dict_program
        messages_per_round = 2 * n
    else:  # pragma: no cover - config typo guard
        raise ValueError(mode)
    seconds, result = time_run(network, maker(rounds), repeats)
    assert result.rounds == rounds
    messages = messages_per_round * rounds
    if lane:
        label = "fast+bcastlane" if mode == "broadcast" else "fast+fixedlane"
    else:
        label = engine
    return {
        "mode": mode,
        "n": n,
        "engine": label,
        "rounds": rounds,
        "messages": messages,
        "total_bits": result.total_bits,
        "seconds": round(seconds, 6),
        "rounds_per_sec": round(rounds / seconds, 2),
        "messages_per_sec": round(messages / seconds, 1),
    }


def rounds_for(mode, n, quick):
    if mode == "congest":
        budget = 4_000 if quick else 100_000
        return max(10, min(400, budget // (2 * n)))
    budget = 10_000 if quick else 400_000
    return max(3, min(100, budget // (n * (n - 1))))


def engine_paths(mode):
    return [("legacy", False), ("fast", False), ("fast", True)]


def run_sweep(sizes, quick, repeats):
    configs = []
    for mode in ("unicast", "broadcast", "congest"):
        for n in sizes:
            rounds = rounds_for(mode, n, quick)
            per_engine = {}
            for engine, lane in engine_paths(mode):
                record = bench_config(mode, n, engine, lane, rounds, repeats)
                configs.append(record)
                per_engine[record["engine"]] = record
                print(
                    f"{mode:>9}  n={n:<4} {record['engine']:<14} "
                    f"{record['rounds_per_sec']:>10.1f} rounds/s  "
                    f"{record['messages_per_sec']:>12.0f} msgs/s"
                )
            # Same protocol, same accounting — engines must agree.
            bit_totals = {rec["total_bits"] for rec in per_engine.values()}
            assert len(bit_totals) == 1, f"engines disagree on bits: {per_engine}"
    return configs


# -- protocol scenarios -------------------------------------------------


def bench_protocols(quick, repeats):
    """Broadcast-heavy protocols end to end, legacy vs fast.

    The raw sweep isolates the engine; these scenarios check that the
    broadcast lane's win survives contact with real protocol logic.
    """
    import random as _random

    from repro.graphs import random_graph
    from repro.graphs.graph import Graph
    from repro.subgraphs.detection import full_learning_detect

    def measure(record, runner):
        bit_totals = set()
        for engine in ("legacy", "fast"):
            best, result = _time_best(lambda: runner(engine), repeats)
            writes = result.total_bits // record["bandwidth"]
            record[engine] = {
                "seconds": round(best, 6),
                "rounds": result.rounds,
                "total_bits": result.total_bits,
                "broadcasts_per_sec": round(writes / best, 1),
            }
            bit_totals.add(result.total_bits)
        assert len(bit_totals) == 1, f"engines disagree on bits: {record}"
        record["speedup_vs_legacy"] = round(
            record["fast"]["broadcasts_per_sec"]
            / record["legacy"]["broadcasts_per_sec"],
            2,
        )
        print(
            f"{record['name']:>26}  n={record['n']:<4} "
            f"legacy {record['legacy']['seconds']:.3f}s  "
            f"fast {record['fast']['seconds']:.3f}s  "
            f"({record['speedup_vs_legacy']}x msgs/s)"
        )
        return record

    # 1. transmit_broadcast phase: every node streams a long payload
    #    through b-bit blackboard frames (pure phase-layer traffic).
    n_phase = 32 if quick else 128
    payload_bits = 64 if quick else 256
    phase_bw = 16

    def run_phase(engine):
        def program(ctx):
            payload = Bits.from_uint(
                (ctx.node_id * 0x9E3779B97F4A7C15) % (1 << payload_bits),
                payload_bits,
            )
            got = yield from transmit_broadcast(
                ctx, payload, max_bits=payload_bits
            )
            return len(got)

        network = Network(
            n=n_phase, bandwidth=phase_bw, mode=Mode.BROADCAST, engine=engine
        )
        return network.run(program)

    phase_record = measure(
        {
            "name": "transmit_broadcast_phase",
            "n": n_phase,
            "bandwidth": phase_bw,
            "payload_bits": payload_bits,
        },
        run_phase,
    )

    # 2. full-learning subgraph detection (triangle) — the Theorem 7
    #    baseline, whose rounds are all blackboard frames.
    n_det = 32 if quick else 128
    det_bw = 8
    det_graph = random_graph(n_det, 0.3, _random.Random(1))
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def run_detection(engine):
        _outcome, result = full_learning_detect(
            det_graph, triangle, bandwidth=det_bw, engine=engine
        )
        return result

    det_record = measure(
        {"name": "subgraph_detection_full", "n": n_det, "bandwidth": det_bw},
        run_detection,
    )

    return [phase_record, det_record]


# -- compiled replay / batched scenarios --------------------------------


def bench_replay(quick, repeats):
    """Repeated-run workloads: the same oblivious protocol executed K
    times on one network, as (a) plain fast-engine runs, (b) compiled
    replay, (c) one batched ``run_many`` call."""
    n = 32 if quick else 64
    rounds = 30 if quick else 40
    instances = 8 if quick else 24
    records = []

    def repeated(mode, maker):
        deliveries = instances * rounds * n * (n - 1)
        record = {
            "scenario": f"repeated_{mode}",
            "n": n,
            "rounds": rounds,
            "instances": instances,
        }
        totals = set()
        for label in ("fast", "fast+replay", "fast+batched"):
            network = Network(
                n=n,
                bandwidth=WIDTH,
                mode=Mode.BROADCAST if mode == "broadcast" else Mode.UNICAST,
            )
            program = maker(rounds)
            if label != "fast":
                mark_oblivious(program)
            if label == "fast+batched":
                network.run_many(program, [None])  # record once, off-clock

                def workload(network=network, program=program):
                    return network.run_many(program, [None] * instances)

            else:
                network.run(program)  # warm buffers (and record)

                def workload(network=network, program=program):
                    return [network.run(program) for _ in range(instances)]

            seconds, results = _time_best(workload, repeats)
            totals.update(r.total_bits for r in results)
            assert all(r.rounds == rounds for r in results)
            record[label] = {
                "seconds": round(seconds, 6),
                "messages_per_sec": round(deliveries / seconds, 1),
                "schedule_stats": dict(network.schedule_stats),
            }
        assert len(totals) == 1, f"paths disagree on bits: {record}"
        record["replay_speedup_vs_fast"] = round(
            record["fast+replay"]["messages_per_sec"]
            / record["fast"]["messages_per_sec"],
            2,
        )
        record["batched_speedup_vs_fast"] = round(
            record["fast+batched"]["messages_per_sec"]
            / record["fast"]["messages_per_sec"],
            2,
        )
        print(
            f"{record['scenario']:>22}  n={n:<4} "
            f"replay {record['replay_speedup_vs_fast']}x  "
            f"batched {record['batched_speedup_vs_fast']}x vs fast"
        )
        return record

    def unicast_maker(rounds):
        # Fresh closure per path so each records its own schedule key.
        schedule = FixedWidthSchedule(WIDTH)

        def program(ctx):
            me = ctx.node_id
            dests = np.fromiter(
                ctx.neighbors, dtype=np.intp, count=len(ctx.neighbors)
            )
            values = (
                dests.astype(np.uint64) + np.uint64(me * 2654435761)
            ) & np.uint64(MASK)
            outbox = schedule.outbox(dests, values)
            for _ in range(rounds):
                yield outbox
            return None

        return program

    def broadcast_maker(rounds):
        def program(ctx):
            outbox = Outbox.broadcast_uint(
                (ctx.node_id * 2654435761) & MASK, WIDTH
            )
            for _ in range(rounds):
                yield outbox
            return None

        return program

    records.append(repeated("unicast", unicast_maker))
    records.append(repeated("broadcast", broadcast_maker))
    records.extend(bench_replay_protocols(quick, repeats))
    return records


def bench_replay_protocols(quick, repeats):
    """Protocol trial sweeps, sequential loop vs one ``run_many``."""
    import random as _random

    from repro.routing import build_schedule, route_program

    records = []

    def sweep(record, sequential, batched):
        seq_s, seq_results = _time_best(sequential, repeats)
        bat_s, bat_results = _time_best(batched, repeats)
        assert [r.total_bits for r in seq_results] == [
            r.total_bits for r in bat_results
        ], f"run_many accounting diverged: {record}"
        assert [r.outputs for r in seq_results] == [
            r.outputs for r in bat_results
        ], f"run_many outputs diverged: {record}"
        record["sequential_seconds"] = round(seq_s, 6)
        record["run_many_seconds"] = round(bat_s, 6)
        record["run_many_speedup"] = round(seq_s / bat_s, 2)
        print(
            f"{record['scenario']:>22}  n={record['n']:<4} "
            f"sequential {seq_s:.3f}s  run_many {bat_s:.3f}s  "
            f"({record['run_many_speedup']}x)"
        )
        records.append(record)

    # 1. transmit_broadcast phase over K payload instances.
    n_phase = 16 if quick else 64
    payload_bits = 64 if quick else 192
    phase_bw = 16
    instances = 6 if quick else 16

    def phase_program(ctx):
        got = yield from transmit_broadcast(
            ctx, ctx.input, max_bits=payload_bits
        )
        return len(got)

    mark_oblivious(phase_program)

    def phase_inputs(k):
        return [
            Bits.from_uint(
                (v * 0x9E3779B97F4A7C15 + k) % (1 << payload_bits),
                payload_bits,
            )
            for v in range(n_phase)
        ]

    inputs_list = [phase_inputs(k) for k in range(instances)]
    bat_net = Network(n=n_phase, bandwidth=phase_bw, mode=Mode.BROADCAST)
    bat_net.run_many(phase_program, inputs_list[:1])  # record off-clock
    sweep(
        {
            "scenario": "transmit_broadcast_many",
            "n": n_phase,
            "instances": instances,
            "payload_bits": payload_bits,
            "bandwidth": phase_bw,
        },
        lambda: [
            Network(
                n=n_phase, bandwidth=phase_bw, mode=Mode.BROADCAST
            ).run(phase_program, inputs)
            for inputs in inputs_list
        ],
        lambda: bat_net.run_many(phase_program, inputs_list),
    )

    # 2. Lenzen routing over K payload instances: one public schedule
    #    (a dense balanced demand), fresh frame contents per instance —
    #    the pure engine-bound trial sweep the replay layer targets.
    n_route = 16 if quick else 48
    frame_size = 16
    route_instances = 6 if quick else 16
    rng = _random.Random(9)
    demand = {}
    for src in range(n_route):
        for dst in range(n_route):
            if src != dst and rng.random() < 0.7:
                demand[(src, dst)] = rng.randint(1, 3)
    schedule = build_schedule(demand, n_route)
    program = route_program(schedule, frame_size)

    def route_inputs(k):
        contents = _random.Random(1000 + k)
        per_node = [dict() for _ in range(n_route)]
        for (src, dst), count in demand.items():
            for idx in range(count):
                per_node[src][(src, dst, idx)] = Bits.from_uint(
                    contents.getrandbits(frame_size), frame_size
                )
        return per_node

    inputs_list = [route_inputs(k) for k in range(route_instances)]
    route_net = Network(n=n_route, bandwidth=frame_size)
    route_net.run_many(program, inputs_list[:1])  # record off-clock
    sweep(
        {
            "scenario": "lenzen_routing_many",
            "n": n_route,
            "instances": route_instances,
            "frames": sum(demand.values()),
            "frame_size": frame_size,
        },
        lambda: [
            Network(n=n_route, bandwidth=frame_size).run(program, inputs)
            for inputs in inputs_list
        ],
        lambda: route_net.run_many(program, inputs_list),
    )
    return records


def unicast_kernel_program(n, rounds):
    """The kernel twin of ``unicast_fixed_program``: the same all-to-all
    constant payload, declared once, frozen for the zero-churn path."""
    from repro.core.kernels import KernelBuilder

    builder = KernelBuilder(n, Mode.UNICAST)
    pairs = [(v, [u for u in range(n) if u != v]) for v in range(n)]
    # The flat all-to-all payload (ascending sender, ascending dest,
    # diagonal dropped) in a handful of whole-matrix numpy ops; frozen
    # and cached per instance count, the kernel analogue of the
    # generator twin reusing one validated outbox round after round.
    senders = np.arange(n, dtype=np.uint64)
    matrix = (senders[None, :] + senders[:, None] * np.uint64(2654435761)) & np.uint64(MASK)
    flat = matrix[~np.eye(n, dtype=bool)]
    payload_cache = {}

    def init(state, kctx):
        values = payload_cache.get(kctx.instances)
        if values is None:
            values = np.broadcast_to(flat, (kctx.instances, flat.size)).copy()
            values.flags.writeable = False
            payload_cache[kctx.instances] = values
        state["values"] = values

    builder.on_init(init)

    def send(state):
        return state["values"]

    for _ in range(rounds):
        builder.unicast_round(pairs, WIDTH, send)
    return builder.build(
        lambda state, kctx: [[None] * n for _ in range(kctx.instances)],
        name="unicast_sweep",
    )


def bench_kernels(quick, repeats):
    """Kernel programs vs compiled generator replay: the repeated
    unicast sweep (the acceptance workload) and a routing trial sweep."""
    records = []
    sizes = [16, 32] if quick else [64, 256]
    for n in sizes:
        rounds = 10 if quick else 20
        instances = 4 if quick else 12
        deliveries = instances * rounds * n * (n - 1)
        record = {"scenario": "kernel_unicast", "n": n, "rounds": rounds,
                  "instances": instances}
        totals = set()

        # Compiled generator replay (the PR 3 fast path).
        replay_net = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST)
        gen_program = unicast_fixed_program(rounds)
        mark_oblivious(gen_program)
        replay_net.run(gen_program)  # record off-clock

        def replay_workload():
            return [replay_net.run(gen_program) for _ in range(instances)]

        seconds, results = _time_best(replay_workload, repeats)
        totals.update(r.total_bits for r in results)
        record["generator_replay"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }

        # Kernel path: same structure, zero generator steps.
        kernel_net = Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST)
        kernel_program = unicast_kernel_program(n, rounds)
        kernel_net.run(kernel_program)  # compile off-clock

        def kernel_workload():
            return [kernel_net.run(kernel_program) for _ in range(instances)]

        seconds, results = _time_best(kernel_workload, repeats)
        totals.update(r.total_bits for r in results)
        record["kernel"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }

        # And the batched kernel sweep (one run_many call).
        def kernel_batched():
            return kernel_net.run_many(kernel_program, [None] * instances)

        seconds, results = _time_best(kernel_batched, repeats)
        totals.update(r.total_bits for r in results)
        record["kernel_batched"] = {
            "seconds": round(seconds, 6),
            "messages_per_sec": round(deliveries / seconds, 1),
        }
        assert len(totals) == 1, f"paths disagree on bits: {record}"
        record["kernel_speedup_vs_replay"] = round(
            record["kernel"]["messages_per_sec"]
            / record["generator_replay"]["messages_per_sec"],
            2,
        )
        record["kernel_batched_speedup_vs_replay"] = round(
            record["kernel_batched"]["messages_per_sec"]
            / record["generator_replay"]["messages_per_sec"],
            2,
        )
        print(
            f"{record['scenario']:>22}  n={n:<4} "
            f"kernel {record['kernel_speedup_vs_replay']}x  "
            f"batched {record['kernel_batched_speedup_vs_replay']}x vs replay"
        )
        records.append(record)

    # Routing trial sweep: kernel program vs generator program, both
    # through run_many on one network each.
    import random as _random

    from repro.routing import build_schedule, route_kernel_program, route_program

    n_route = 16 if quick else 48
    frame_size = 16
    route_instances = 6 if quick else 16
    rng = _random.Random(9)
    demand = {}
    for src in range(n_route):
        for dst in range(n_route):
            if src != dst and rng.random() < 0.7:
                demand[(src, dst)] = rng.randint(1, 3)
    schedule = build_schedule(demand, n_route)

    def route_inputs(k):
        contents = _random.Random(1000 + k)
        per_node = [dict() for _ in range(n_route)]
        for (src, dst), count in demand.items():
            for idx in range(count):
                per_node[src][(src, dst, idx)] = Bits.from_uint(
                    contents.getrandbits(frame_size), frame_size
                )
        return per_node

    inputs_list = [route_inputs(k) for k in range(route_instances)]
    record = {
        "scenario": "kernel_routing_many",
        "n": n_route,
        "instances": route_instances,
        "frames": sum(demand.values()),
        "frame_size": frame_size,
    }
    gen_program = route_program(schedule, frame_size)
    gen_net = Network(n=n_route, bandwidth=frame_size)
    gen_net.run_many(gen_program, inputs_list[:1])  # record off-clock
    gen_s, gen_results = _time_best(
        lambda: gen_net.run_many(gen_program, inputs_list), repeats
    )
    kernel_program = route_kernel_program(schedule, frame_size)
    kernel_net = Network(n=n_route, bandwidth=frame_size)
    kernel_net.run_many(kernel_program, inputs_list[:1])  # compile off-clock
    ker_s, ker_results = _time_best(
        lambda: kernel_net.run_many(kernel_program, inputs_list), repeats
    )
    assert [r.outputs for r in gen_results] == [r.outputs for r in ker_results]
    assert [r.total_bits for r in gen_results] == [
        r.total_bits for r in ker_results
    ]
    record["generator_run_many_seconds"] = round(gen_s, 6)
    record["kernel_run_many_seconds"] = round(ker_s, 6)
    record["kernel_speedup_vs_generator"] = round(gen_s / ker_s, 2)
    print(
        f"{record['scenario']:>22}  n={n_route:<4} "
        f"generator {gen_s:.3f}s  kernel {ker_s:.3f}s  "
        f"({record['kernel_speedup_vs_generator']}x)"
    )
    records.append(record)
    return records


def bench_scenario_matrix(quick, repeats):
    """Scenario-matrix sweep over the protocol registry: every cell is
    timed, validated against ground truth, and digest-compared to the
    legacy reference engine."""
    from repro.scenarios import ScenarioMatrix, protocol_names

    sizes = [8] if quick else [8, 16]
    families = ["gnp", "cycle"] if quick else ["gnp", "sparse", "cycle"]
    matrix = ScenarioMatrix(
        protocols=protocol_names(),
        families=families,
        sizes=sizes,
        seed=20260730,
        repeats=repeats,
    )
    # A fresh schedule cache for the whole registry sweep: every
    # compiled-replay cell records its lane structures once and the
    # cache counters surface in the report (PR 10).
    with tempfile.TemporaryDirectory(prefix="bench-schedcache-") as cache:
        result = matrix.run(schedule_cache=cache)
    mismatches = result.mismatches()
    assert not mismatches, (
        "scenario cells diverged from the legacy reference: "
        + "; ".join(
            f"{c.protocol}/{c.family}/n={c.n}/{c.engine}: {c.error or 'digest mismatch'}"
            for c in mismatches[:5]
        )
    )
    report = result.to_dict()
    # Always 0 after the assert above; recorded through
    # MatrixResult.mismatches() so the definition lives in one place.
    report["mismatch_count"] = len(mismatches)
    # Compiled-replay evictions surfaced per cell (PR 9): any nonzero
    # total means a protocol deviated from its declared structure and
    # silently fell back off the replay fast path.
    report["evictions_total"] = sum(
        cell.evictions or 0 for cell in result.cells
    )
    # Schedule-cache traffic for the sweep above (PR 10): corrupt
    # evictions are folded into cache_evictions by the cell accounting;
    # a nonzero eviction total means on-disk entries went bad mid-sweep.
    for field in (
        "cache_hits", "cache_misses", "cache_evictions", "schedule_compiles",
    ):
        report[f"{field}_total"] = sum(
            getattr(cell, field) or 0 for cell in result.cells
        )
    return report


def bench_analysis(quick):
    """Static-analysis gate inside the benchmark report: the verifier
    must prove every registered protocol (obliviousness + budget +
    registry consistency) at the analyzed sizes — a benchmark run over
    an unproven registry is not a result worth publishing."""
    from repro.analysis.verifier import analyze_all

    sizes = [6] if quick else [6, 8]
    report = analyze_all(sizes=sizes)
    violations = report.violations()
    assert not violations, (
        "static analysis failed on the registry: " + "; ".join(violations[:5])
    )
    payload = report.to_dict()
    payload["violation_count"] = len(violations)
    return payload


def bench_faults(quick, repeats):
    """The zero-overhead contract of the fault layer: carrying an
    *inactive* FaultPlan (all rates zero, no triggers) must cost the
    fast engine nothing measurable — one attribute check per run — so
    the chaos machinery can ship enabled-by-default.  An active chaos
    run is timed alongside for context (no gate: it legitimately takes
    the full-execution path)."""
    from repro.core.faults import FaultPlan

    n = 16 if quick else 32
    rounds = rounds_for("unicast", n, quick)
    samples = max(5, repeats * 3)

    def run_with(plan):
        network = Network(
            n=n,
            bandwidth=WIDTH,
            mode=Mode.UNICAST,
            engine="fast",
            fault_plan=plan,
        )
        seconds, result = time_run(network, unicast_fixed_program(rounds), samples)
        return seconds, result

    base_seconds, base = run_with(None)
    idle_seconds, idle = run_with(FaultPlan(seed=1))
    chaos_seconds, chaos = run_with(
        FaultPlan(seed=1, drop_rate=0.02, corrupt_rate=0.02)
    )
    assert base.total_bits == idle.total_bits
    assert base.faults is None and idle.faults is None
    assert chaos.faults, "active plan injected nothing — widen the workload"
    overhead = idle_seconds / base_seconds
    record = {
        "n": n,
        "rounds": rounds,
        "samples": samples,
        "no_plan_seconds": round(base_seconds, 6),
        "inactive_plan_seconds": round(idle_seconds, 6),
        "chaos_plan_seconds": round(chaos_seconds, 6),
        "chaos_fault_events": len(chaos.faults),
        "inactive_plan_overhead": round(overhead, 4),
    }
    print(
        f"   faults  n={n:<4} inactive-plan overhead "
        f"{overhead:.3f}x  chaos {chaos_seconds / base_seconds:.2f}x "
        f"({len(chaos.faults)} events)"
    )
    assert overhead <= 1.05, (
        f"inactive FaultPlan costs {overhead:.3f}x on the fast path "
        "(budget 1.05x) — the no-plan short-circuit regressed"
    )
    return record


def calls_into(module, fn):
    """``(count, result)``: how many Python function calls land in
    ``module``'s source file while ``fn()`` runs on this thread.  A
    count, unlike a timing ratio, cannot flake on a noisy host."""
    path = module.__file__
    calls = [0]

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == path:
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return calls[0], result


def bench_checkpoint(quick, repeats):
    """The zero-cost contract of the checkpoint layer, plus its payoff.
    Gated: a run with checkpointing *disabled* (no ``checkpoint=`` /
    ``resume_from=`` keywords) must make no call into
    :mod:`repro.core.checkpoint` — merging snapshot support must not tax
    ordinary runs, and a disabled run that polls the checkpoint layer
    at all is the regression.  Measured for context (no gate): the
    disabled run's time against the raw planner dispatch, the
    enabled-path overhead of flushing a snapshot every round, and the
    resume saving of a run restored from a mid-run snapshot versus
    re-executing from scratch."""
    import shutil
    import tempfile

    import repro.core.checkpoint as checkpoint_module
    from repro.core.checkpoint import CheckpointPolicy
    from repro.core.errors import RunPreempted

    n = 16 if quick else 32
    rounds = rounds_for("unicast", n, quick)
    samples = max(5, repeats * 3)

    def make_network():
        return Network(n=n, bandwidth=WIDTH, mode=Mode.UNICAST, engine="fast")

    program_maker = unicast_fixed_program

    # Gate: the disabled path is one `is None` branch in Network.run and
    # never reaches the checkpoint module.
    disabled_calls, _ = calls_into(
        checkpoint_module,
        lambda: make_network().run(program_maker(rounds)),
    )
    network = make_network()
    raw_seconds, raw = _time_best(
        lambda: network._planner.execute(network, program_maker(rounds), None),
        samples,
    )
    run_seconds, plain = _time_best(
        lambda: network.run(program_maker(rounds)), samples
    )
    assert raw.total_bits == plain.total_bits
    assert network.checkpoint_stats["snapshots"] == 0
    overhead = run_seconds / raw_seconds

    # Context: snapshot-every-round cost on a fresh directory per sample.
    tmp = tempfile.mkdtemp(prefix="bench_ckpt_")
    try:
        counter = [0]

        def checkpointed():
            counter[0] += 1
            directory = pathlib.Path(tmp) / f"s{counter[0]}"
            return make_network().run(
                program_maker(rounds),
                checkpoint=CheckpointPolicy(str(directory), every_rounds=1),
            )

        enabled_seconds, enabled = _time_best(checkpointed, samples)
        assert enabled.total_bits == plain.total_bits

        # Context: resume saving.  Preempt halfway, then time the resumed
        # completion against a full re-execution.
        half = rounds // 2
        resume_dir = pathlib.Path(tmp) / "resume"
        fired = [0]

        def preempt():
            fired[0] += 1
            return fired[0] > half

        try:
            make_network().run(
                program_maker(rounds),
                checkpoint=CheckpointPolicy(
                    str(resume_dir), every_rounds=1, preempt=preempt
                ),
            )
            raise AssertionError("preemption never fired")
        except RunPreempted:
            pass
        resumed_net = make_network()
        resume_seconds, resumed = _time_best(
            lambda: resumed_net.run(
                program_maker(rounds),
                checkpoint=CheckpointPolicy(str(resume_dir)),
                resume_from="auto",
            ),
            samples,
        )
        assert resumed.total_bits == plain.total_bits
        stats = resumed_net.checkpoint_stats
        assert stats["rounds_restored"] == half
        assert stats["rounds_executed"] == rounds - half
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {
        "n": n,
        "rounds": rounds,
        "samples": samples,
        "raw_dispatch_seconds": round(raw_seconds, 6),
        "disabled_run_seconds": round(run_seconds, 6),
        "checkpoint_disabled_calls": disabled_calls,
        "checkpoint_disabled_overhead": round(overhead, 4),
        "enabled_every_round_seconds": round(enabled_seconds, 6),
        "enabled_overhead_vs_disabled": round(enabled_seconds / run_seconds, 4),
        "resume_from_round": half,
        "resumed_seconds": round(resume_seconds, 6),
        "resume_speedup_vs_full": round(run_seconds / resume_seconds, 4),
        "rounds_restored": stats["rounds_restored"],
        "rounds_reexecuted": stats["rounds_executed"],
    }
    print(
        f"checkpoint  n={n:<4} disabled calls {disabled_calls}  "
        f"overhead {overhead:.3f}x  "
        f"every-round {enabled_seconds / run_seconds:.2f}x  "
        f"resume from r{half} saves "
        f"{record['resume_speedup_vs_full']:.2f}x"
    )
    assert disabled_calls == 0, (
        f"a checkpointing-disabled run made {disabled_calls} calls into "
        "repro.core.checkpoint — the no-checkpoint short-circuit regressed"
    )
    return record


def bench_sharded(quick, repeats):
    """The resilient sharded executor: the same sweep serial and pooled.

    Two contracts are gated here.  Determinism: pooled digests must be
    byte-identical to the serial runner at every tested worker count.
    Zero-cost inactivity: the plain serial path (``run()`` with no sweep
    keywords) must cost no more than 1.05x the raw serial loop — merging
    the pool code must not tax users who never shard.  Per-worker
    accounting (cells / seconds / bits per worker) is aggregated into
    the report for the pooled runs.
    """
    from repro.scenarios import ScenarioMatrix

    protocols = ["routing", "mst"]
    families = ["gnp"] if quick else ["gnp", "cycle"]
    sizes = [8] if quick else [8, 16]
    worker_counts = [2] if quick else [1, 2, 4]
    # Best-of-many: the dispatch-overhead gate compares millisecond-scale
    # serial sweeps, so take enough samples to squeeze out scheduler noise.
    samples = max(5, repeats * 3)

    def make():
        return ScenarioMatrix(
            protocols, families, sizes,
            engines=["legacy", "fast"], seed=20260808,
        )

    def views(result):
        return [
            (c.protocol, c.family, c.n, c.engine, c.status, c.digest)
            for c in result.cells
        ]

    raw_seconds, serial = _time_best(lambda: make()._run_serial(), samples)
    run_seconds, via_run = _time_best(lambda: make().run(), samples)
    assert views(via_run) == views(serial)
    overhead = run_seconds / raw_seconds
    record = {
        "protocols": protocols,
        "families": families,
        "sizes": sizes,
        "cells": len(serial.cells),
        "samples": samples,
        "serial_raw_seconds": round(raw_seconds, 6),
        "serial_run_seconds": round(run_seconds, 6),
        "serial_dispatch_overhead": round(overhead, 4),
        "pool": {},
    }
    print(
        f"   sharded serial {len(serial.cells)} cells "
        f"{raw_seconds:.3f}s  dispatch overhead {overhead:.3f}x"
    )
    for workers in worker_counts:
        seconds, pooled = _time_best(
            lambda w=workers: make().run(workers=w), 1
        )
        assert views(pooled) == views(serial), (
            f"sharded sweep diverged from the serial runner at W={workers}"
        )
        pool_meta = pooled.meta["pool"]
        assert pool_meta["executor"] == "pool", pool_meta
        record["pool"][f"W={workers}"] = {
            "seconds": round(seconds, 6),
            "speedup_vs_serial": round(raw_seconds / seconds, 4),
            "respawns": pool_meta["respawns"],
            "quarantined": len(pool_meta["quarantined"]),
            "worker_stats": pool_meta["worker_stats"],
        }
        busiest = max(
            (s["cells"] for s in pool_meta["worker_stats"].values()),
            default=0,
        )
        print(
            f"   sharded W={workers}  {seconds:.3f}s  "
            f"digests identical  busiest worker {busiest} cells"
        )
    assert overhead <= 1.05, (
        f"serial path costs {overhead:.3f}x with the pool code inactive "
        "(budget 1.05x) — run() dispatch regressed"
    )
    record["digest_match"] = True
    return record


def _transport_baseline(payload, nbytes):
    """Pickled-queue transport stand-in: what a shard result costs on
    the plain result queue — serialize (the queue pickles every item),
    push the bytes through a kernel pipe (reader thread draining, as
    the queue feeder does), reassemble, deserialize."""
    import socket
    import threading

    left, right = socket.socketpair()
    received = []

    def drain():
        chunks = []
        remaining = nbytes
        while remaining:
            data = right.recv(min(1 << 20, remaining))
            if not data:
                break
            chunks.append(data)
            remaining -= len(data)
        received.append(pickle.loads(b"".join(chunks)))

    reader = threading.Thread(target=drain)
    reader.start()
    try:
        left.sendall(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        reader.join()
        left.close()
        right.close()
    return received[0]


def bench_zero_copy(quick, repeats):
    """The zero-copy sweep fabric end to end (PR 10).

    Four contracts are gated here.  **Warm-cache compiles**: a second
    sweep through the same persistent schedule cache must record zero
    compiles — every fast/kernel lane structure loads from disk.
    **Digest identity**: cold, warm, K-sharded, and pooled (each tested
    worker count) sweeps must all be byte-identical to the plain serial
    runner.  **Transport**: the shared-memory payload round-trip must
    cost no more than the pickle-through-a-pipe baseline (ratio >= 1.0x)
    at shard-result sizes.  **Cleanup**: no segments may survive under
    this supervisor's ``/dev/shm`` prefix once the pooled runs finish.
    """
    from repro.scenarios import ScenarioMatrix
    from repro.scenarios.sweep.shm import (
        SEGMENT_PREFIX,
        fetch_payload,
        leaked_segments,
        publish_payload,
        shm_available,
    )

    protocols = ["routing_many"]
    families = ["gnp"] if quick else ["gnp", "cycle"]
    sizes = [8] if quick else [8, 16]
    worker_counts = [2] if quick else [1, 2, 4]
    shard_k = 2

    def make():
        return ScenarioMatrix(
            protocols, families, sizes, seed=20260808, repeats=repeats,
        )

    def views(result):
        return [
            (c.protocol, c.family, c.n, c.engine, c.status, c.digest)
            for c in result.cells
        ]

    record = {
        "protocols": protocols,
        "families": families,
        "sizes": sizes,
        "shard_k": shard_k,
        "worker_counts": worker_counts,
    }
    serial = make().run()
    with tempfile.TemporaryDirectory(prefix="bench-zerocopy-") as cache:
        cold = make().run(schedule_cache=cache, shard_k=shard_k)
        warm = make().run(schedule_cache=cache, shard_k=shard_k)
        assert views(cold) == views(serial), (
            "K-sharded cold sweep diverged from the serial runner"
        )
        assert views(warm) == views(serial), (
            "K-sharded warm sweep diverged from the serial runner"
        )

        def totals(result):
            return {
                field: sum(
                    getattr(c, f"cache_{field}" if field != "compiles"
                            else "schedule_compiles") or 0
                    for c in result.cells
                )
                for field in ("hits", "misses", "evictions", "compiles")
            }

        record["cold"] = totals(cold)
        record["warm"] = totals(warm)
        warm_compiles = record["warm"]["compiles"]
        assert warm_compiles == 0, (
            f"warm sweep recorded {warm_compiles} schedule compiles — "
            "the persistent cache missed (budget: 0)"
        )
        assert record["warm"]["misses"] == 0, record["warm"]
        print(
            f"   zero-copy cold compiles {record['cold']['compiles']}  "
            f"warm compiles 0  warm hits {record['warm']['hits']}"
        )

        record["pool"] = {}
        for workers in worker_counts:
            seconds, pooled = _time_best(
                lambda w=workers: make().run(
                    workers=w, schedule_cache=cache, shard_k=shard_k,
                ),
                1,
            )
            assert views(pooled) == views(serial), (
                f"zero-copy pooled sweep diverged at W={workers}"
            )
            pool_meta = pooled.meta["pool"]
            record["pool"][f"W={workers}"] = {
                "seconds": round(seconds, 6),
                "shard_tasks": pool_meta["shard_tasks"],
                "shm": pool_meta["shm"],
                "segments_swept": pool_meta["segments_swept"],
                "compiles": totals(pooled)["compiles"],
            }
            print(
                f"   zero-copy W={workers}  {seconds:.3f}s  "
                f"shard tasks {pool_meta['shard_tasks']}  "
                f"shm={pool_meta['shm']}  digests identical"
            )
    leaks = leaked_segments(SEGMENT_PREFIX)
    assert not leaks, f"leaked shared-memory segments: {leaks}"
    record["leaked_segments"] = 0
    record["digest_match"] = True

    # Transport microbenchmark: one shard-result-sized payload through
    # the shared-memory path vs. the pickled-pipe baseline.
    # Sized where shard results live: segment setup costs a fixed few
    # ms, so the shm path wins from ~8 MiB up — below that the pool
    # would be better off inline, above it the win grows with size.
    payload = {"records": np.arange(24 << 17, dtype=np.uint64)}
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    record["transport_payload_bytes"] = len(blob)
    if shm_available():
        samples = max(5, repeats)

        def via_shm():
            descriptor, inline = publish_payload(
                payload, f"{SEGMENT_PREFIX}-bench-transport"
            )
            assert descriptor is not None
            return fetch_payload(descriptor)

        # Untimed warmup: first calls pay one-time costs (module
        # imports, tracker daemon traffic, allocator growth) that
        # belong to neither transport.
        via_shm()
        _transport_baseline(payload, len(blob))
        shm_seconds, _ = _time_best(via_shm, samples)
        pipe_seconds, _ = _time_best(
            lambda: _transport_baseline(payload, len(blob)), samples
        )
        ratio = pipe_seconds / shm_seconds
        record["transport"] = {
            "shm_seconds": round(shm_seconds, 6),
            "pickle_pipe_seconds": round(pipe_seconds, 6),
            "shm_speedup_vs_pickle": round(ratio, 4),
        }
        assert ratio >= 1.0, (
            f"shared-memory transport is {ratio:.3f}x the pickled-pipe "
            "baseline (budget: >= 1.0x)"
        )
        print(
            f"   zero-copy transport {len(blob) >> 20} MiB  "
            f"shm {shm_seconds * 1e3:.1f}ms  pipe {pipe_seconds * 1e3:.1f}ms  "
            f"{ratio:.2f}x"
        )
    else:  # pragma: no cover - gated environments without /dev/shm
        record["transport"] = None
    return record


def git_revision(root=REPO_ROOT):
    """Short HEAD of the checkout at ``root``, ``"uncommitted"`` when
    tracked files differ from HEAD (the numbers then come from code no
    commit holds), ``None`` when git is unavailable."""
    try:
        def git(*args):
            return subprocess.run(
                ["git", *args],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()

        head = git("rev-parse", "--short", "HEAD") or None
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.SubprocessError):
        return None
    return "uncommitted" if head and dirty else head


def bench_meta():
    """Environment stamp so BENCH_engine.json files are comparable
    across PRs and machines."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_revision": git_revision(),
    }


def summarize(configs):
    speedups = {}
    for record in configs:
        if record["engine"] == "legacy":
            continue
        legacy = next(
            c
            for c in configs
            if c["engine"] == "legacy"
            and c["mode"] == record["mode"]
            and c["n"] == record["n"]
        )
        key = f"{record['mode']}/n={record['n']}"
        speedups.setdefault(key, {})[record["engine"]] = round(
            record["messages_per_sec"] / legacy["messages_per_sec"], 2
        )
    return speedups


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="node counts to sweep"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small sizes / few rounds (CI smoke)"
    )
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=REPO_ROOT / "BENCH_engine.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    if args.sizes and min(args.sizes) < 2:
        parser.error("--sizes values must be >= 2 (a 1-node clique has no links)")
    sizes = args.sizes or ([16, 32] if args.quick else [32, 64, 128, 256])
    repeats = args.repeats or (1 if args.quick else 3)

    configs = run_sweep(sizes, args.quick, repeats)
    speedups = summarize(configs)
    protocols = bench_protocols(args.quick, repeats)
    replay = bench_replay(args.quick, repeats)
    kernels = bench_kernels(args.quick, repeats)
    scenario_matrix = bench_scenario_matrix(args.quick, repeats)
    faults = bench_faults(args.quick, repeats)
    checkpoint = bench_checkpoint(args.quick, repeats)
    sharded = bench_sharded(args.quick, repeats)
    zero_copy = bench_zero_copy(args.quick, repeats)
    analysis = bench_analysis(args.quick)

    top_n = max(sizes)
    acceptance_key = f"unicast/n={top_n}"
    bcast_key = f"broadcast/n={top_n}"
    repeated_unicast = next(
        rec for rec in replay if rec["scenario"] == "repeated_unicast"
    )
    acceptance = {
        "mode": "unicast",
        "n": top_n,
        "fast_vs_legacy_msgs_per_sec": speedups[acceptance_key].get("fast"),
        "fixedlane_vs_legacy_msgs_per_sec": speedups[acceptance_key].get(
            "fast+fixedlane"
        ),
        "bcastlane_vs_legacy_msgs_per_sec": speedups[bcast_key].get(
            "fast+bcastlane"
        ),
        "protocol_speedups_vs_legacy": {
            rec["name"]: rec["speedup_vs_legacy"] for rec in protocols
        },
        "replay_vs_fast_msgs_per_sec": repeated_unicast[
            "replay_speedup_vs_fast"
        ],
        "batched_vs_fast_msgs_per_sec": repeated_unicast[
            "batched_speedup_vs_fast"
        ],
        "run_many_protocol_speedups": {
            rec["scenario"]: rec["run_many_speedup"]
            for rec in replay
            if "run_many_speedup" in rec
        },
        "kernel_vs_replay_msgs_per_sec": max(
            (rec for rec in kernels if rec["scenario"] == "kernel_unicast"),
            key=lambda rec: rec["n"],
        )["kernel_speedup_vs_replay"],
        "kernel_speedups": {
            f"{rec['scenario']}/n={rec['n']}": (
                rec.get("kernel_speedup_vs_replay")
                or rec.get("kernel_speedup_vs_generator")
            )
            for rec in kernels
        },
        "scenario_cells_ok": sum(
            1 for cell in scenario_matrix["cells"] if cell["status"] == "ok"
        ),
        "scenario_cells_total": len(scenario_matrix["cells"]),
        "scenario_mismatches": scenario_matrix["mismatch_count"],
        "faults_disabled_overhead": faults["inactive_plan_overhead"],
        "checkpoint_disabled_calls": checkpoint["checkpoint_disabled_calls"],
        "checkpoint_disabled_overhead": checkpoint[
            "checkpoint_disabled_overhead"
        ],
        "checkpoint_resume_speedup": checkpoint["resume_speedup_vs_full"],
        "scenario_evictions_total": scenario_matrix["evictions_total"],
        "scenario_cache_hits_total": scenario_matrix["cache_hits_total"],
        "scenario_cache_misses_total": scenario_matrix["cache_misses_total"],
        "scenario_cache_evictions_total": scenario_matrix[
            "cache_evictions_total"
        ],
        "sharded_serial_overhead": sharded["serial_dispatch_overhead"],
        "sharded_digest_match": sharded["digest_match"],
        "sharded_worker_counts": sorted(sharded["pool"]),
        "zero_copy_warm_compiles": zero_copy["warm"]["compiles"],
        "zero_copy_digest_match": zero_copy["digest_match"],
        "zero_copy_leaked_segments": zero_copy["leaked_segments"],
        "zero_copy_shm_speedup": (
            zero_copy["transport"]["shm_speedup_vs_pickle"]
            if zero_copy["transport"] is not None
            else None
        ),
        "analysis_violations": analysis["violation_count"],
    }
    report = {
        "generated_by": "benchmarks/bench_engine.py",
        "meta": bench_meta(),
        "width_bits": WIDTH,
        "quick": args.quick,
        "repeats": repeats,
        "configs": configs,
        "speedups": speedups,
        "protocols": protocols,
        "replay": replay,
        "kernels": kernels,
        "scenario_matrix": scenario_matrix,
        "faults": faults,
        "checkpoint": checkpoint,
        "sharded": sharded,
        "zero_copy": zero_copy,
        "analysis": analysis,
        "acceptance": acceptance,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nspeedups vs legacy (messages/sec):")
    for key, values in speedups.items():
        print(f"  {key:<18} {values}")
    print(f"\nwrote {args.out}")
    return report


if __name__ == "__main__":
    main()
