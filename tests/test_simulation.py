"""Theorem 2: the circuit simulation on CLIQUE-UCAST.

The two load-bearing claims:
  (1) correctness — distributed evaluation equals direct evaluation for
      arbitrary circuits, inputs, and input partitions;
  (2) round complexity — rounds grow linearly with circuit *depth* (not
      size), at bandwidth O(b + s).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import builders
from repro.circuits.circuit import Circuit
from repro.circuits.gates import AND, OR, XOR
from repro.simulation import assign_gates, build_plan, simulate_circuit


def check_equivalence(circuit, n, inputs, **kwargs):
    outputs, result, plan = simulate_circuit(circuit, n, inputs, **kwargs)
    direct = circuit.evaluate(inputs)
    for gid in circuit.outputs:
        assert outputs[gid] == direct[gid], f"gate {gid} differs"
    return result, plan


class TestAssignment:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_invariants(self, n):
        rng = random.Random(n)
        circuit = builders.random_layered_circuit(10, 4, 8, rng)
        assignment = assign_gates(circuit, n)
        # every gate owned, owners in range
        assert len(assignment.owner) == len(circuit)
        assert all(0 <= p < n for p in assignment.owner)
        # at most one heavy gate per player
        heavy_owners = [assignment.owner[g] for g in assignment.heavy]
        assert len(heavy_owners) == len(set(heavy_owners))
        # light loads within capacity
        assert all(load <= assignment.capacity for load in assignment.light_load)

    def test_heavy_gate_classification(self):
        circuit = builders.majority_circuit(64)  # one gate of weight 65
        assignment = assign_gates(circuit, 4)
        s = assignment.s_param
        for node in circuit.nodes:
            gid = node.gate_id
            if node.kind == "gate":
                expected_heavy = circuit.weight(gid) >= 2 * 4 * s
                assert (gid in assignment.heavy) == expected_heavy

    def test_const_gates_weightless(self):
        circuit = Circuit()
        const = circuit.add_const(True)
        x = circuit.add_input()
        g = circuit.add_gate(AND, [const, x])
        circuit.mark_output(g)
        assignment = assign_gates(circuit, 2)
        assert const not in assignment.heavy


class TestCorrectness:
    @pytest.mark.parametrize("fan_in", [2, 4])
    @pytest.mark.parametrize("n", [4, 8])
    def test_parity_tree(self, n, fan_in):
        circuit = builders.parity_tree(24, fan_in)
        rng = random.Random(7)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(24)]
            check_equivalence(circuit, n, xs)

    def test_majority_single_heavy_gate(self):
        circuit = builders.majority_circuit(32)
        rng = random.Random(1)
        for _ in range(4):
            xs = [rng.random() < 0.5 for _ in range(32)]
            check_equivalence(circuit, 8, xs)

    def test_threshold_parity(self):
        circuit = builders.threshold_parity_circuit(12)
        rng = random.Random(2)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(12)]
            check_equivalence(circuit, 6, xs)

    def test_inner_product(self):
        circuit = builders.inner_product_circuit(10)
        rng = random.Random(3)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(20)]
            check_equivalence(circuit, 5, xs)

    def test_mod_tree(self):
        circuit = builders.mod_tree(27, 3, 3)
        rng = random.Random(4)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(27)]
            check_equivalence(circuit, 9, xs)

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=25)
    def test_random_circuits(self, seed, n):
        rng = random.Random(seed)
        circuit = builders.random_layered_circuit(
            8, depth=rng.randint(1, 4), width=rng.randint(2, 6), rng=rng
        )
        xs = [rng.random() < 0.5 for _ in range(8)]
        check_equivalence(circuit, n, xs)

    def test_custom_input_partition(self):
        circuit = builders.parity_tree(12, 3)
        rng = random.Random(5)
        xs = [rng.random() < 0.5 for _ in range(12)]
        # all inputs start at player 0 (maximally unbalanced)
        check_equivalence(circuit, 4, xs, input_partition=[0] * 12)
        # round-robin
        check_equivalence(circuit, 4, xs, input_partition=[i % 4 for i in range(12)])

    def test_bandwidth_override(self):
        circuit = builders.parity_tree(16, 4)
        rng = random.Random(6)
        xs = [rng.random() < 0.5 for _ in range(16)]
        result, plan = check_equivalence(circuit, 4, xs, bandwidth=2)
        assert plan.bandwidth == 2

    def test_single_output_const_circuit(self):
        circuit = Circuit()
        t = circuit.add_const(True)
        x = circuit.add_input()
        g = circuit.add_gate(OR, [t, x])
        circuit.mark_output(g)
        outputs, _result, _plan = simulate_circuit(circuit, 2, [False])
        assert outputs[g] is True

    def test_multi_output(self):
        circuit = Circuit()
        xs = circuit.add_inputs(6)
        for i in range(5):
            circuit.mark_output(circuit.add_gate(XOR, [xs[i], xs[i + 1]]))
        rng = random.Random(8)
        values = [rng.random() < 0.5 for _ in range(6)]
        check_equivalence(circuit, 3, values)


class TestRoundComplexity:
    def test_rounds_track_depth_not_size(self):
        """Theorem 2's headline: rounds = O(D).  Compare two circuits of
        equal size but different depth."""
        n = 8
        rng = random.Random(11)
        shallow = builders.parity_tree(64, 8)   # depth 2
        deep = builders.parity_tree(64, 2)      # depth 6
        xs = [rng.random() < 0.5 for _ in range(64)]
        _, res_shallow, _ = simulate_circuit(shallow, n, xs)
        _, res_deep, _ = simulate_circuit(deep, n, xs)
        assert res_shallow.rounds < res_deep.rounds

    @pytest.mark.parametrize("depth", [1, 2, 4, 6])
    def test_rounds_linear_in_depth(self, depth):
        n = 6
        rng = random.Random(depth)
        circuit = builders.random_layered_circuit(12, depth, 6, rng)
        xs = [rng.random() < 0.5 for _ in range(12)]
        _, result, _plan = simulate_circuit(circuit, n, xs)
        assert result.rounds <= 6 * (circuit.depth() + 2)

    def test_bandwidth_is_o_of_b_plus_s(self):
        """The plan's bandwidth never exceeds max(separability, s)."""
        circuit = builders.majority_circuit(64)
        plan = build_plan(circuit, 8)
        s = plan.assignment.s_param
        max_sep = circuit.max_summary_width()
        assert plan.bandwidth <= max(max_sep, s)

    def test_plan_reuse(self):
        circuit = builders.parity_tree(16, 4)
        plan = build_plan(circuit, 4)
        rng = random.Random(12)
        for _ in range(3):
            xs = [rng.random() < 0.5 for _ in range(16)]
            outputs, _, _ = simulate_circuit(circuit, 4, xs, plan=plan)
            assert [outputs[g] for g in circuit.outputs] == circuit.evaluate_outputs(xs)


def test_kernel_programs_build_no_plan_views(monkeypatch):
    """The kernel path reads the plan's arrays only: building the
    triangle_mm and circuit kernel programs on a fresh plan builds none
    of the dict-of-list views that ``execute_plan`` reads."""
    import pickle

    from repro.circuits.arithmetic import matmul_circuit_strassen
    from repro.core.checkpoint import stable_digest
    from repro.graphs import random_graph
    from repro.matmul.distributed import matmul_input_partition, triangle_mm_kernel_program
    from repro.routing.lenzen import PayloadOrder
    from repro.routing.schedule import RoutingSchedule
    from repro.simulation.kernel import make_kernel_program
    from repro.simulation.protocol import LayerPlan

    built = []
    for cls, name in [
        (PayloadOrder, "as_dict"),
        (PayloadOrder, "lengths"),
        (LayerPlan, "_group_owned"),
        (RoutingSchedule, "_views"),
    ]:
        real = getattr(cls, name)

        def counting(self, _real=real, _name=name):
            built.append(_name)
            return _real(self)

        monkeypatch.setattr(cls, name, counting)
    size = 8
    plan = build_plan(matmul_circuit_strassen(size), size, matmul_input_partition(size))
    digest, pickled = stable_digest(plan), pickle.dumps(plan)
    triangle_mm_kernel_program(random_graph(size, 0.5, random.Random(3)), plan, 2)
    make_kernel_program(plan)
    assert built == []
    # Reading the views leaves the plan's digest and pickle unchanged.
    assert plan.input_order and all(lp.light_owned for lp in plan.layer_plans)
    assert [lp.light_schedule.send_plan for lp in plan.layer_plans if lp.light_order]
    assert built
    assert stable_digest(plan) == digest and pickle.dumps(plan) == pickled
    clone = pickle.loads(pickled)
    assert clone.input_order == plan.input_order
    assert [lp.light_order for lp in clone.layer_plans] == [
        lp.light_order for lp in plan.layer_plans
    ]
