"""Kernel forms of the migrated protocols vs their generator reference
implementations — byte-identical RunResults, seeded fuzz."""

from __future__ import annotations

import random

import pytest

from repro.core.bits import Bits
from repro.core.network import Mode, Network
from repro.core.phases import (
    transmit_broadcast,
    transmit_broadcast_kernel_program,
    transmit_unicast,
    transmit_unicast_kernel_program,
)
from repro.graphs import random_graph
from repro.matmul.distributed import detect_triangle_mm, detect_triangle_mm_many
from repro.routing.lenzen import route_kernel_program, route_program
from repro.routing.schedule import build_schedule
from repro.simulation.protocol import simulate_circuit_many


def result_tuple(result):
    return (
        result.rounds,
        result.total_bits,
        result.max_round_bits,
        result.outputs,
    )


def assert_equivalent(generator_results, kernel_results):
    assert len(generator_results) == len(kernel_results)
    for expected, got in zip(generator_results, kernel_results):
        assert result_tuple(got) == result_tuple(expected)


class TestTransmitUnicastKernel:
    def make_case(self, seed, bandwidth, max_bits, n=9):
        rng = random.Random(seed)
        links = [
            (src, dst)
            for src in range(n)
            for dst in range(n)
            if src != dst and rng.random() < 0.4
        ]

        def make_inputs(instance):
            r = random.Random(seed * 100 + instance)
            per_node = [dict() for _ in range(n)]
            for src, dst in links:
                length = r.randint(0, max_bits)
                per_node[src][dst] = Bits(
                    r.getrandbits(length) if length else 0, length
                )
            return per_node

        return n, links, [make_inputs(k) for k in range(3)]

    @pytest.mark.parametrize(
        "seed,bandwidth,max_bits",
        [(1, 8, 40), (2, 16, 5), (3, 70, 150), (4, 5, 0)],
    )
    def test_matches_generator(self, seed, bandwidth, max_bits):
        n, links, inputs_list = self.make_case(seed, bandwidth, max_bits)

        def gen_program(ctx):
            received = yield from transmit_unicast(
                ctx, ctx.input or {}, max_bits
            )
            return received

        kernel_program = transmit_unicast_kernel_program(
            n, bandwidth, links, max_bits
        )
        gnet = Network(n=n, bandwidth=bandwidth)
        knet = Network(n=n, bandwidth=bandwidth)
        assert_equivalent(
            [gnet.run(gen_program, inputs) for inputs in inputs_list],
            knet.run_many(kernel_program, inputs_list),
        )

    def test_empty_links_still_runs_the_phase(self):
        n, bandwidth, max_bits = 4, 8, 20
        kernel_program = transmit_unicast_kernel_program(
            n, bandwidth, [], max_bits
        )

        def gen_program(ctx):
            received = yield from transmit_unicast(ctx, {}, max_bits)
            return received

        expected = Network(n=n, bandwidth=bandwidth).run(gen_program)
        got = Network(n=n, bandwidth=bandwidth).run(
            kernel_program, [dict() for _ in range(n)]
        )
        assert result_tuple(got) == result_tuple(expected)
        assert got.rounds > 0 and got.total_bits == 0


class TestTransmitBroadcastKernel:
    @pytest.mark.parametrize(
        "seed,bandwidth,max_bits", [(1, 8, 40), (2, 16, 3), (3, 80, 130)]
    )
    def test_matches_generator(self, seed, bandwidth, max_bits):
        rng = random.Random(seed)
        n = 8
        writers = [v for v in range(n) if rng.random() < 0.7]

        def make_inputs(instance):
            r = random.Random(seed * 31 + instance)
            per_node = [None] * n
            for w in writers:
                length = r.randint(0, max_bits)
                per_node[w] = Bits(
                    r.getrandbits(length) if length else 0, length
                )
            return per_node

        inputs_list = [make_inputs(k) for k in range(3)]

        def gen_program(ctx):
            received = yield from transmit_broadcast(ctx, ctx.input, max_bits)
            return received

        kernel_program = transmit_broadcast_kernel_program(
            n, bandwidth, writers, max_bits
        )
        gnet = Network(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST)
        knet = Network(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST)
        assert_equivalent(
            [gnet.run(gen_program, inputs) for inputs in inputs_list],
            knet.run_many(kernel_program, inputs_list),
        )


class TestRoutingKernel:
    @pytest.mark.parametrize("seed,n,density", [(1, 10, 0.3), (2, 16, 0.7), (3, 6, 1.0)])
    def test_matches_generator(self, seed, n, density):
        rng = random.Random(seed)
        frame_size = 16
        demand = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < density:
                    demand[(src, dst)] = rng.randint(1, 4)
        schedule = build_schedule(demand, n)
        gen_program = route_program(schedule, frame_size)
        kernel_program = route_kernel_program(schedule, frame_size)

        def make_inputs(instance):
            r = random.Random(seed * 7 + instance)
            per_node = [dict() for _ in range(n)]
            for (src, dst), count in demand.items():
                for idx in range(count):
                    per_node[src][(src, dst, idx)] = Bits(
                        r.getrandbits(frame_size), frame_size
                    )
            return per_node

        inputs_list = [make_inputs(k) for k in range(3)]
        gnet = Network(n=n, bandwidth=frame_size)
        knet = Network(n=n, bandwidth=frame_size)
        assert_equivalent(
            gnet.run_many(gen_program, inputs_list),
            knet.run_many(kernel_program, inputs_list),
        )

    def test_wide_frames_ride_the_object_path(self):
        n, frame_size = 6, 80
        demand = {(v, (v + 1) % n): 2 for v in range(n)}
        schedule = build_schedule(demand, n)
        gen_program = route_program(schedule, frame_size)
        kernel_program = route_kernel_program(schedule, frame_size)
        rng = random.Random(9)
        inputs = [dict() for _ in range(n)]
        for (src, dst), count in demand.items():
            for idx in range(count):
                inputs[src][(src, dst, idx)] = Bits(
                    rng.getrandbits(frame_size), frame_size
                )
        expected = Network(n=n, bandwidth=frame_size).run(gen_program, inputs)
        got = Network(n=n, bandwidth=frame_size).run(kernel_program, inputs)
        assert result_tuple(got) == result_tuple(expected)


def _mixed_parity(salt):
    """A GenericGate truth table the evaluator cannot sum."""
    return lambda xs: (sum((i + salt) * x for i, x in enumerate(xs)) + salt) % 3 == 0


def _random_gate(rng, family, fan):
    from repro.circuits.gates import (
        AND,
        NOT,
        OR,
        XOR,
        GenericGate,
        MajorityGate,
        ModGate,
        ThresholdGate,
    )

    if family == 0:
        return AND
    if family == 1:
        return OR
    if family == 2:
        return NOT
    if family == 3:
        return XOR
    if family == 4:
        return ModGate(rng.randint(2, 4))
    if family == 5:
        if rng.random() < 0.5:
            return MajorityGate(fan)
        return ThresholdGate(rng.randint(0, fan))
    if family == 6:
        weights = [rng.randint(0, 5) for _ in range(fan)]
        return ThresholdGate(rng.randint(0, sum(weights) + 1), weights)
    return GenericGate(_mixed_parity(rng.randint(0, 5)), fan)


FAMILIES = 8  # AND OR NOT XOR MOD THR weighted-THR generic


def _random_circuit(rng, heavy):
    """Every gate family at fan-in 1 and with repeated input ids, then a
    random mix (generic gates share layers with summed ones); with
    ``heavy``, three gates wide enough that the n=8 assignment makes
    them heavy, plus light consumers of them."""
    from repro.circuits.circuit import Circuit

    circuit = Circuit()
    pool = list(circuit.add_inputs(18))
    pool.append(circuit.add_const(True))
    pool.append(circuit.add_const(False))
    for family in range(FAMILIES):
        pool.append(
            circuit.add_gate(_random_gate(rng, family, 1), [rng.choice(pool)])
        )
        if family != 2:
            fan = rng.randint(2, 4)
            inputs = [rng.choice(pool)] * (fan - 1) + [rng.choice(pool)]
            pool.append(circuit.add_gate(_random_gate(rng, family, fan), inputs))
    for _ in range(40):
        family = rng.randrange(FAMILIES)
        fan = 1 if family == 2 else rng.randint(1, 6)
        gid = circuit.add_gate(
            _random_gate(rng, family, fan), [rng.choice(pool) for _ in range(fan)]
        )
        pool.append(gid)
        if rng.random() < 0.3:
            circuit.mark_output(gid)
    if heavy:
        # Heavy means weight >= 2·n·ceil(wires/n²); this fan-in clears
        # that bound for all three at n = 8.
        fan = circuit.wire_count() + 80
        wide = [
            circuit.add_gate(
                _random_gate(rng, family, fan),
                [rng.choice(pool) for _ in range(fan)],
            )
            for family in (6, 7, 3)
        ]
        for _ in range(6):
            family = rng.randrange(FAMILIES)
            fan = 1 if family == 2 else rng.randint(1, 4)
            gid = circuit.add_gate(
                _random_gate(rng, family, fan),
                [rng.choice(wide if rng.random() < 0.5 else pool) for _ in range(fan)],
            )
            circuit.mark_output(gid)
        for gid in wide:
            circuit.mark_output(gid)
    if not circuit.outputs:
        circuit.mark_output(pool[-1])
    return circuit


def _wire(result):
    return [
        sorted((src, dst, bits.to_uint(), len(bits)) for src, dst, bits in rnd.sends)
        for rnd in result.transcript
    ]


class TestSimulationKernel:
    def test_random_circuits_match(self):
        from repro.simulation.kernel import make_kernel_program
        from repro.simulation.protocol import make_program

        rng = random.Random(13)
        heavy_layers = 0
        for trial in range(6):
            heavy = trial % 2 == 1
            circuit = _random_circuit(rng, heavy)
            n = 8 if heavy else rng.choice([5, 8])
            inputs_list = [
                [rng.random() < 0.5 for _ in range(circuit.num_inputs)]
                for _ in range(rng.randint(3, 5))
            ]
            expected_outputs, expected_results, plan = simulate_circuit_many(
                circuit, n, inputs_list
            )
            if heavy:
                assert plan.assignment.heavy
                heavy_layers += sum(lp.has_summary_round for lp in plan.layer_plans)
            kernel_outputs, kernel_results, _plan = simulate_circuit_many(
                circuit, n, inputs_list, plan=plan, kernel=True
            )
            assert kernel_outputs == expected_outputs
            assert_equivalent(expected_results, kernel_results)
            for values, outputs in zip(inputs_list, kernel_outputs):
                truth = circuit.evaluate(values)
                assert all(truth[g] == v for g, v in outputs.items())

            # Byte for byte against the reference engine's wire.
            per_node_list = []
            for values in inputs_list:
                per_node = [dict() for _ in range(n)]
                for position, gid in enumerate(circuit.input_ids):
                    per_node[position % n][gid] = values[position]
                per_node_list.append(per_node)
            legacy = Network(
                n=n, bandwidth=plan.bandwidth, engine="legacy",
                record_transcript=True,
            )
            reference = [
                legacy.run(make_program(plan), per_node) for per_node in per_node_list
            ]
            kernel = Network(
                n=n, bandwidth=plan.bandwidth, record_transcript=True
            ).run_many(make_kernel_program(plan), per_node_list)
            assert_equivalent(reference, kernel)
            for expected, got in zip(reference, kernel):
                assert _wire(got) == _wire(expected)
        assert heavy_layers > 0


class TestTriangleMMKernel:
    @pytest.mark.parametrize("circuit_kind", ["naive", "strassen"])
    def test_matches_generator(self, circuit_kind):
        graphs = [
            random_graph(9, p, random.Random(s))
            for s, p in [(1, 0.0), (2, 0.25), (3, 0.6)]
        ]
        expected_outcomes, expected_results, plan = detect_triangle_mm_many(
            graphs, trials=3, circuit_kind=circuit_kind
        )
        kernel_outcomes, kernel_results, _plan = detect_triangle_mm_many(
            graphs, trials=3, circuit_kind=circuit_kind, plan=plan, kernel=True
        )
        assert kernel_outcomes == expected_outcomes
        assert_equivalent(expected_results, kernel_results)

    def test_single_run_path(self):
        graph = random_graph(8, 0.4, random.Random(17))
        expected, expected_result, plan = detect_triangle_mm(
            graph, trials=2, circuit_kind="naive"
        )
        got, got_result, _plan = detect_triangle_mm(
            graph, trials=2, circuit_kind="naive", plan=plan, kernel=True
        )
        assert got == expected
        assert result_tuple(got_result) == result_tuple(expected_result)

    @pytest.mark.parametrize("seed", [3, 20, 36])
    def test_corrupted_output_frames_match_legacy(self, seed):
        # Player i scores the C[i][j] bits it was delivered, so a
        # corrupted output frame changes the kernel's answer exactly as
        # it changes the generator's (these seeds corrupt one).
        from repro.circuits.arithmetic import matmul_circuit_naive
        from repro.core.faults import FaultPlan
        from repro.matmul.distributed import (
            matmul_input_partition,
            triangle_mm_kernel_program,
            triangle_mm_program,
        )
        from repro.simulation.protocol import build_plan

        size = 8
        plan = build_plan(
            matmul_circuit_naive(size), size, matmul_input_partition(size), None
        )
        graph = random_graph(size, 0.5, random.Random(seed))
        rows = [
            [1 if graph.has_edge(v, u) else 0 for u in range(size)]
            for v in range(size)
        ]
        faults = FaultPlan(seed=seed, corrupt_rate=0.05)

        def run(engine, program):
            result = Network(
                n=size, bandwidth=plan.bandwidth, engine=engine,
                fault_plan=faults, seed=1,
            ).run(program, inputs=rows)
            return result.outputs, result.faults

        kernel = run("kernel", triangle_mm_kernel_program(graph, plan, 2))
        assert kernel == run("legacy", triangle_mm_program(graph, plan, 2))
        assert kernel[1]

    def test_simulation_compiled_once_for_all_trials(self, monkeypatch):
        # Every trial appends the same simulation rounds: the layer
        # evaluators (and the gate table behind them) are built once per
        # plan, never once per trial.
        import repro.simulation.kernel as sim_kernel
        from repro.circuits.arithmetic import matmul_circuit_strassen
        from repro.matmul.distributed import (
            matmul_input_partition,
            triangle_mm_kernel_program,
        )
        from repro.simulation.protocol import build_plan

        builds = {"evaluator": 0, "table": 0}

        class CountingEvaluator(sim_kernel.LayerEvaluator):
            def __init__(self, *args):
                builds["evaluator"] += 1
                super().__init__(*args)

        class CountingTable(sim_kernel._GateTable):
            def __init__(self, *args):
                builds["table"] += 1
                super().__init__(*args)

        monkeypatch.setattr(sim_kernel, "LayerEvaluator", CountingEvaluator)
        monkeypatch.setattr(sim_kernel, "_GateTable", CountingTable)
        size = 8
        plan = build_plan(
            matmul_circuit_strassen(size), size, matmul_input_partition(size), None
        )
        graph = random_graph(size, 0.5, random.Random(5))
        program = triangle_mm_kernel_program(graph, plan, trials=3)
        per_layer = sum(
            bool(lp.light_owned) + bool(lp.heavy_gates) for lp in plan.layer_plans
        )
        assert per_layer > 0
        assert builds == {"evaluator": per_layer, "table": 1}
        rows = [
            [1 if graph.has_edge(v, u) else 0 for u in range(size)]
            for v in range(size)
        ]
        Network(n=size, bandwidth=plan.bandwidth).run(program, inputs=rows)
        assert builds == {"evaluator": per_layer, "table": 1}
