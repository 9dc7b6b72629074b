"""The deterministic balanced router (Lenzen-style substitution)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.network import run_protocol
from repro.routing import build_schedule, payload_demand, route_payloads
from repro.routing import schedule as schedule_mod
from repro.routing.schedule import _greedy_edge_coloring


def random_demand(rng, n, max_frames, pairs):
    demand = {}
    for _ in range(pairs):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if src != dst:
            demand[(src, dst)] = rng.randint(1, max_frames)
    return demand


class TestSchedule:
    def test_empty_demand(self):
        schedule = build_schedule({}, 4)
        assert schedule.num_rounds == 0

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            build_schedule({(1, 1): 1}, 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_schedule({(0, 9): 1}, 4)

    def test_single_frames_one_round(self):
        demand = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        schedule = build_schedule(demand, 3)
        assert schedule.num_rounds == 1

    def test_coloring_is_proper(self):
        rng = random.Random(1)
        frames = []
        for _ in range(200):
            s, d = rng.randrange(10), rng.randrange(10)
            if s != d:
                frames.append((s, d, len(frames)))
        colors, count = _greedy_edge_coloring(frames)
        by_color = {}
        for frame, color in zip(frames, colors):
            group = by_color.setdefault(color, [])
            for other in group:
                assert other[0] != frame[0] and other[1] != frame[1]
            group.append(frame)
        assert count <= 2 * max(
            max(
                sum(1 for f in frames if f[0] == v)
                for v in range(10)
            ),
            max(
                sum(1 for f in frames if f[1] == v)
                for v in range(10)
            ),
        )

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_link_capacity_never_violated(self, n, seed):
        rng = random.Random(seed)
        demand = random_demand(rng, n, max_frames=2 * n, pairs=3 * n)
        schedule = build_schedule(demand, n)
        for r in range(schedule.num_rounds):
            links = set()
            for src, sends in schedule.send_plan[r].items():
                for dst, _frame in sends:
                    assert (src, dst) not in links, "two frames on one link"
                    links.add((src, dst))

    def test_balanced_demand_constant_rounds(self):
        """Per-node O(n) frames -> O(1) rounds, independent of n."""
        rounds_seen = []
        for n in (8, 16, 32):
            rng = random.Random(n)
            # every node sends exactly n frames, spread unevenly
            demand = {}
            for src in range(n):
                remaining = n
                while remaining > 0:
                    dst = rng.randrange(n)
                    if dst == src:
                        continue
                    take = min(remaining, rng.randint(1, n // 2))
                    demand[(src, dst)] = demand.get((src, dst), 0) + take
                    remaining -= take
            schedule = build_schedule(demand, n)
            rounds_seen.append(schedule.num_rounds)
        assert max(rounds_seen) <= 16

    def test_concentrated_demand_beats_direct(self):
        """2n frames on a single pair: direct would need 2n rounds, the
        two-phase schedule needs O(1)·(2n/n) rounds."""
        n = 16
        schedule = build_schedule({(0, 1): 2 * n}, n)
        assert schedule.num_rounds <= 8


class TestRoutePayloads:
    @pytest.mark.parametrize("frame_size", [1, 3, 8])
    def test_roundtrip_random(self, frame_size):
        rng = random.Random(5)
        n = 6
        lengths = {}
        contents = {}
        for src in range(n):
            for dst in range(n):
                if src != dst and rng.random() < 0.5:
                    bits = rng.randint(1, 30)
                    lengths[(src, dst)] = bits
                    contents[(src, dst)] = Bits.from_uint(
                        rng.getrandbits(bits) if bits else 0, bits
                    )

        def program(ctx):
            mine = {
                dst: contents[(ctx.node_id, dst)]
                for (src, dst) in lengths
                if src == ctx.node_id
            }
            received = yield from route_payloads(
                ctx, lengths, mine, frame_size
            )
            return {src: payload for src, payload in received.items()}

        result = run_protocol(program, n=n, bandwidth=frame_size)
        for dst in range(n):
            expected = {
                src: contents[(src, dst)]
                for (src, d2) in lengths
                if d2 == dst
            }
            assert result.outputs[dst] == expected

    def test_length_mismatch_rejected(self):
        lengths = {(0, 1): 5}

        def program(ctx):
            mine = {1: Bits.zeros(4)} if ctx.node_id == 0 else {}
            yield from route_payloads(ctx, lengths, mine, 4)

        with pytest.raises(ValueError):
            run_protocol(program, n=2, bandwidth=4)

    def test_zero_length_payloads_skipped(self):
        lengths = {(0, 1): 0}

        def program(ctx):
            mine = {1: Bits.empty()} if ctx.node_id == 0 else {}
            received = yield from route_payloads(ctx, lengths, mine, 4)
            return dict(received)

        result = run_protocol(program, n=2, bandwidth=4)
        assert result.rounds == 0
        assert result.outputs[1] == {}

    def test_demand_helper(self):
        assert payload_demand({(0, 1): 10, (1, 0): 0}, 4) == {(0, 1): 3}


# -- the array schedule against the dict-based greedy reference ---------------


def reference_schedule(demand, n):
    """The router as one greedy pass over Python frame tuples: colour
    every frame, then take the direct timetable when it is no slower
    than the two-phase one.  Returns ``(rounds, send_plan, recv_plan)``
    with each round's dicts as item lists, so insertion order counts."""
    frames = []
    max_multiplicity = 0
    for (src, dst), count in sorted(demand.items()):
        if count <= 0:
            continue
        max_multiplicity = max(max_multiplicity, count)
        frames.extend((src, dst, idx) for idx in range(count))
    if not frames:
        return 0, [], []
    used_src, used_dst, colors = {}, {}, []
    for src, dst, _ in frames:
        a, b = used_src.setdefault(src, set()), used_dst.setdefault(dst, set())
        color = 0
        while color in a or color in b:
            color += 1
        colors.append(color)
        a.add(color)
        b.add(color)
    slots = -(-(max(colors) + 1) // n)
    if max_multiplicity <= 2 * slots or n == 1:
        rounds = max_multiplicity
        sends = [{} for _ in range(rounds)]
        recvs = [{} for _ in range(rounds)]
        for r in range(rounds):
            for (src, dst), count in sorted(demand.items()):
                if r < count:
                    sends[r].setdefault(src, []).append((dst, (src, dst, r)))
                    recvs[r][(src, dst)] = ((src, dst, r), True)
    else:
        rounds = 2 * slots
        sends = [{} for _ in range(rounds)]
        recvs = [{} for _ in range(rounds)]
        for frame, color in zip(frames, colors):
            src, dst, _ = frame
            middle, slot = color % n, color // n
            if middle != src:
                sends[slot].setdefault(src, []).append((middle, frame))
                recvs[slot][(src, middle)] = (frame, middle == dst)
            if middle != dst:
                sends[slots + slot].setdefault(middle, []).append((dst, frame))
                recvs[slots + slot][(middle, dst)] = (frame, True)
    return rounds, [list(r.items()) for r in sends], [list(r.items()) for r in recvs]


@st.composite
def demands(draw):
    """Demands on 1..9 nodes; one pair may carry up to 4n frames, which
    forces the two-phase timetable."""
    n = draw(st.integers(1, 9))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1]
    )
    demand = draw(st.dictionaries(pairs, st.integers(0, 3), max_size=3 * n)) if n > 1 else {}
    if demand and draw(st.booleans()):
        demand[draw(st.sampled_from(sorted(demand)))] = draw(st.integers(1, 4 * n))
    return n, demand


@given(demands())
def test_schedule_matches_greedy_reference(case):
    n, demand = case
    schedule = build_schedule(demand, n)
    rounds, sends, recvs = reference_schedule(demand, n)
    assert schedule.num_rounds == rounds
    assert [list(r.items()) for r in schedule.send_plan] == sends
    assert [list(r.items()) for r in schedule.recv_plan] == recvs


def test_two_phase_reference_cases_are_drawn():
    # The high-multiplicity case above really leaves the direct path.
    schedule = build_schedule({(0, 1): 36, (2, 3): 1}, 9)
    assert reference_schedule({(0, 1): 36, (2, 3): 1}, 9)[0] == schedule.num_rounds < 36


def test_degree_bound_skips_the_colouring(monkeypatch):
    calls = []
    real = schedule_mod._greedy_edge_coloring

    def counting(frames):
        calls.append(len(frames))
        return real(frames)

    monkeypatch.setattr(schedule_mod, "_greedy_edge_coloring", counting)
    n = 8
    # Every node sends 2 frames to each other node: Δ = 14, so
    # 2·⌈Δ/n⌉ = 4 ≥ multiplicity 2 and the direct timetable is certain.
    balanced = {(s, d): 2 for s in range(n) for d in range(n) if s != d}
    assert build_schedule(balanced, n).num_rounds == 2
    assert calls == []
    # Multiplicity 5 on one pair beats the bound (Δ = 5 → 2 rounds), so
    # only the colouring can decide.
    assert build_schedule({(0, 1): 5}, n).num_rounds == 2
    assert calls == [5]


def test_array_demand_matches_mapping():
    demand = {(2, 0): 3, (0, 1): 1, (1, 2): 0}
    src, dst, count = zip(*((s, d, c) for (s, d), c in demand.items()))
    a, b = build_schedule(demand, 3), build_schedule((src, dst, count), 3)
    assert (a.send_plan, a.recv_plan) == (b.send_plan, b.recv_plan)
    with pytest.raises(ValueError, match="twice"):
        build_schedule(([0, 0], [1, 1], [1, 2]), 3)


def test_kernel_payloads_name_unrouted_and_surplus_frames():
    from repro.routing.lenzen import KernelPayloads, PayloadOrder
    from repro.simulation.kernel import payload_bridge

    schedule = build_schedule({(0, 1): 2}, 3)
    with pytest.raises(ValueError, match=r"does not route frame \(0, 1, 2\) of"):
        KernelPayloads(schedule, {(0, 1): 9}, 3)
    with pytest.raises(ValueError, match=r"does not route frame \(1, 2, 0\) of"):
        KernelPayloads(schedule, ([0, 1], [1, 2], [6, 1]), 3)
    with pytest.raises(ValueError, match="routes 2 frames, the payload lengths need 1"):
        KernelPayloads(schedule, {(0, 1): 3}, 3)
    payloads = KernelPayloads(schedule, {(0, 1): 6, (2, 0): 0}, 3)
    assert payloads.positions.tolist() == list(range(6))
    short = PayloadOrder.from_keys([1] * 5, [7, 8, 9, 10, 11], 3)
    with pytest.raises(ValueError, match=r"payload \(0, 1\) carries 5 gate values, plan says 6"):
        payload_bridge(short, payloads)
