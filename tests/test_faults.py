"""Chaos clique: deterministic fault injection, the engine degradation
chain, resilient transmit phases, the round-limit watchdog, and the
self-checking scenario sweep."""

import pytest

from repro.core.bits import Bits
from repro.core.engine import FAST_ENGINE, KERNEL_ENGINE, LEGACY_ENGINE, FastEngine
from repro.core.errors import (
    EngineFallbackError,
    FaultInjectionError,
    MaxRoundsExceededError,
    ReproError,
    RoundLimitExceeded,
)
from repro.core.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    FaultSession,
    FaultyDeliveryBackend,
)
from repro.core.network import Mode, Network, Outbox
from repro.core.phases import (
    phase_length,
    transmit_broadcast,
    transmit_broadcast_kernel_program,
    transmit_broadcast_redundant,
    transmit_unicast,
    transmit_unicast_acked,
    transmit_unicast_kernel_program,
)

WIDTH = 8

#: Faults that take a frame off the wire (or add one) — what the
#: ``present`` mask of a kernel round records.
PRESENCE_FAULTS = [
    dict(drop_rate=0.25),
    dict(delay_rate=0.25),
    dict(duplicate_rate=0.25),
    dict(crashes={2: 2}),
]
PRESENCE_FAULT_IDS = ["drop", "delay", "duplicate", "crash"]


def chatter_program(rounds):
    """Every node sends a round/sender-dependent byte to every other
    node each round and returns everything it heard, tagged by round."""

    def program(ctx):
        me = ctx.node_id
        heard = []
        for r in range(rounds):
            payloads = {
                dest: ((me * 31 + dest * 7 + r * 13) & 0xFF)
                for dest in range(ctx.n)
                if dest != me
            }
            inbox = yield Outbox.fixed_width_map(payloads, WIDTH)
            heard.append(sorted(inbox.uint_items()))
        return heard

    return program


def gossip_program(rounds):
    def program(ctx):
        heard = []
        for r in range(rounds):
            inbox = yield Outbox.broadcast_uint(
                (ctx.node_id * 17 + r * 5) & 0xFF, WIDTH
            )
            heard.append(sorted(inbox.uint_items()))
        return heard

    return program


def run_outputs(engine, plan, rounds=4, n=5, mode=Mode.UNICAST, **kwargs):
    network = Network(
        n=n, bandwidth=WIDTH, mode=mode, engine=engine, fault_plan=plan, **kwargs
    )
    program = gossip_program(rounds) if mode is Mode.BROADCAST else chatter_program(rounds)
    return network.run(program)


CHAOS = FaultPlan(
    seed=7,
    drop_rate=0.12,
    corrupt_rate=0.1,
    duplicate_rate=0.08,
    delay_rate=0.08,
    crashes={3: 3},
)


class TestFaultPlanValidation:
    @pytest.mark.parametrize("field", ["drop_rate", "corrupt_rate", "duplicate_rate", "delay_rate", "crash_rate"])
    def test_rates_must_be_probabilities(self, field):
        for bad in (-0.1, 1.5):
            with pytest.raises(FaultInjectionError):
                FaultPlan(**{field: bad})

    def test_trigger_kind_must_be_known(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(1, 0, 1): "mangle"})
        # Crashes are configured via `crashes`, not triggers.
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(1, 0, 1): "crash"})

    def test_trigger_round_is_one_based(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(triggers={(0, 0, 1): "drop"})

    def test_window_and_horizon_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan(from_round=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(from_round=3, until_round=2)
        with pytest.raises(FaultInjectionError):
            FaultPlan(crash_horizon=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(delay_rounds=0)
        with pytest.raises(FaultInjectionError):
            FaultPlan(crashes={0: 0})

    def test_error_taxonomy(self):
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(EngineFallbackError, ReproError)
        assert issubclass(RoundLimitExceeded, MaxRoundsExceededError)

    def test_inactive_plan(self):
        assert not FaultPlan(seed=99).is_active
        assert FaultPlan(drop_rate=0.1).is_active
        assert FaultPlan(crashes={0: 1}).is_active
        assert FaultPlan(triggers={(1, 0, 1): "drop"}).is_active


class TestDeterministicSchedule:
    def test_coin_is_pure_function_of_coordinates(self):
        plan = FaultPlan(seed=3, drop_rate=0.5)
        first = [plan.fault_for(r, s, d) for r in range(1, 5) for s in range(4) for d in range(4)]
        second = [plan.fault_for(r, s, d) for r in range(1, 5) for s in range(4) for d in range(4)]
        assert first == second

    def test_seed_changes_schedule(self):
        coords = [(r, s, d) for r in range(1, 9) for s in range(6) for d in range(6) if s != d]
        a = [FaultPlan(seed=1, drop_rate=0.3).fault_for(*c) for c in coords]
        b = [FaultPlan(seed=2, drop_rate=0.3).fault_for(*c) for c in coords]
        assert a != b

    def test_trigger_beats_probabilistic_kinds(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, triggers={(2, 1, 0): "corrupt"})
        assert plan.fault_for(2, 1, 0) == "corrupt"
        assert plan.fault_for(2, 1, 2) == "drop"

    def test_round_window(self):
        plan = FaultPlan(seed=0, drop_rate=1.0, from_round=2, until_round=3)
        assert plan.fault_for(1, 0, 1) is None
        assert plan.fault_for(2, 0, 1) == "drop"
        assert plan.fault_for(3, 0, 1) == "drop"
        assert plan.fault_for(4, 0, 1) is None

    def test_corrupt_bit_in_range(self):
        plan = FaultPlan(seed=5, corrupt_rate=1.0)
        for width in (1, 3, 8, 64):
            for src in range(6):
                bit = plan.corrupt_bit(1, src, 0, width)
                assert 0 <= bit < width

    def test_crash_round_deterministic(self):
        plan = FaultPlan(seed=4, crash_rate=0.5, crash_horizon=6)
        sched = {v: plan.crash_round(v) for v in range(20)}
        assert sched == {v: plan.crash_round(v) for v in range(20)}
        crashed = [r for r in sched.values() if r is not None]
        assert crashed, "crash_rate=0.5 over 20 nodes should crash someone"
        assert all(1 <= r <= 6 for r in crashed)
        assert FaultPlan(seed=4, crashes={2: 9}).crash_round(2) == 9

    @pytest.mark.parametrize("seed", [0, 1, 17, 12345])
    def test_fuzz_same_seed_same_events_across_engines(self, seed):
        plan = FaultPlan(seed=seed, drop_rate=0.15, corrupt_rate=0.1, delay_rate=0.1)
        legacy = run_outputs("legacy", plan)
        fast = run_outputs("fast", plan)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        assert legacy.total_bits == fast.total_bits

    def test_run_many_matches_run(self):
        network = Network(
            n=5, bandwidth=WIDTH, mode=Mode.UNICAST, engine="fast", fault_plan=CHAOS
        )
        batch = network.run_many(chatter_program(4), [None, None, None])
        single = run_outputs("fast", CHAOS)
        for item in batch:
            assert item.outputs == single.outputs
            assert item.faults == single.faults

    def test_events_sorted_canonically_within_round(self):
        result = run_outputs("legacy", CHAOS, rounds=6, n=6)
        assert result.faults
        keys = [e.key() for e in result.faults]
        assert keys == sorted(keys)
        rounds = [e.round for e in result.faults]
        assert rounds == sorted(rounds)


class TestScalarFaultSemantics:
    def test_all_kinds_reachable_and_engines_agree(self):
        plan = FaultPlan(
            seed=2,
            drop_rate=0.15,
            corrupt_rate=0.12,
            duplicate_rate=0.1,
            delay_rate=0.1,
            crashes={1: 2},
        )
        legacy = run_outputs("legacy", plan, rounds=6, n=6)
        fast = run_outputs("fast", plan, rounds=6, n=6)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        kinds = {e.kind for e in legacy.faults}
        assert kinds == set(FAULT_KINDS), f"workload never hit {set(FAULT_KINDS) - kinds}"

    def test_drop_trigger_removes_exactly_one_message(self):
        plan = FaultPlan(triggers={(2, 0, 3): "drop"})
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        assert faulty.faults == [FaultEvent(2, 0, 3, "drop", None)]
        # Round 2 at receiver 3 lost sender 0; everything else is intact.
        for node in range(5):
            for r in range(4):
                expect = clean.outputs[node][r]
                if node == 3 and r == 1:
                    expect = [kv for kv in expect if kv[0] != 0]
                assert faulty.outputs[node][r] == expect

    def test_corrupt_trigger_flips_one_deterministic_bit(self):
        plan = FaultPlan(seed=6, triggers={(1, 2, 0): "corrupt"})
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        (event,) = faulty.faults
        assert event.kind == "corrupt" and 0 <= event.detail < WIDTH
        clean_val = dict(clean.outputs[0][0])[2]
        faulty_val = dict(faulty.outputs[0][0])[2]
        assert faulty_val == clean_val ^ (1 << event.detail)

    def test_delay_moves_payload_to_later_round(self):
        plan = FaultPlan(triggers={(1, 4, 0): "delay"}, delay_rounds=2)
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        assert faulty.faults == [FaultEvent(1, 4, 0, "delay", 3)]
        assert dict(faulty.outputs[0][0]).get(4) is None
        # The stale round-1 payload does NOT displace round 3's fresh one.
        assert faulty.outputs[0][2] == clean.outputs[0][2]

    def test_duplicate_fills_empty_slot_only(self):
        # Duplicate of round 1's payload lands in round 2, where sender 4
        # is also dropped — the duplicate therefore resurfaces.
        plan = FaultPlan(
            triggers={(1, 4, 0): "duplicate", (2, 4, 0): "drop"}, delay_rounds=1
        )
        clean = run_outputs("legacy", None)
        faulty = run_outputs("legacy", plan)
        stale = dict(clean.outputs[0][0])[4]
        assert dict(faulty.outputs[0][1])[4] == stale

    def test_crash_omits_sends_from_crash_round(self):
        plan = FaultPlan(crashes={2: 3})
        faulty = run_outputs("legacy", plan, rounds=5, n=5)
        assert FaultEvent(3, 2, None, "crash", None) in faulty.faults
        assert len([e for e in faulty.faults if e.kind == "crash"]) == 1
        for node in range(5):
            if node == 2:
                continue
            for r in range(5):
                senders = [s for s, _ in faulty.outputs[node][r]]
                assert (2 in senders) == (r < 2), (node, r, senders)
        # The crashed node still hears everyone (receive stays up).
        assert all(len(box) == 4 for box in faulty.outputs[2])

    def test_broadcast_fault_hits_all_receivers_identically(self):
        plan = FaultPlan(seed=9, corrupt_rate=0.2, drop_rate=0.1)
        legacy = run_outputs("legacy", plan, mode=Mode.BROADCAST, n=6)
        fast = run_outputs("fast", plan, mode=Mode.BROADCAST, n=6)
        assert legacy.outputs == fast.outputs
        assert legacy.faults == fast.faults
        assert legacy.faults and all(e.dst is None for e in legacy.faults)
        for r in range(4):
            for src in range(6):
                seen = {
                    dict(legacy.outputs[v][r]).get(src)
                    for v in range(6)
                    if v != src
                }
                assert len(seen) == 1, "receivers diverged on one broadcast word"


class TestKernelFaults:
    def test_kernel_corrupt_parity_with_generator_twin(self):
        n, payload_width = 6, 11
        plan = FaultPlan(seed=13, corrupt_rate=0.25)
        payloads = [Bits((v * 2654435761) & 0x7FF, payload_width) for v in range(n)]
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_broadcast(
                ctx, payloads[ctx.node_id], payload_width
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def run(engine, prog, inputs):
            network = Network(
                n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine=engine,
                fault_plan=plan,
            )
            return network.run(prog, inputs=inputs)

        kern = run("kernel", program, payloads)
        gen = run("legacy", generator, None)
        assert [
            sorted((s, p.to_uint()) for s, p in out.items())
            for out in kern.outputs
        ] == gen.outputs
        assert kern.faults == gen.faults
        assert any(e.kind == "corrupt" for e in kern.faults)

    def test_kernel_unicast_corrupt_parity(self):
        n, payload_width = 5, 9
        plan = FaultPlan(seed=21, corrupt_rate=0.3)
        links = [(s, d) for s in range(n) for d in range(n) if s != d]
        payload_maps = {
            (s, d): Bits((s * 131 + d * 17) & 0x1FF, payload_width) for s, d in links
        }
        program = transmit_unicast_kernel_program(
            n, WIDTH, links, max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_unicast(
                ctx,
                {d: payload_maps[(ctx.node_id, d)] for s, d in links if s == ctx.node_id},
                payload_width,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        node_inputs = [
            {d: payload_maps[(v, d)] for d in range(n) if d != v}
            for v in range(n)
        ]

        def outcome(engine, prog, inputs, normalize):
            # A corrupted length header is *supposed* to explode during
            # reassembly (DecodeError is detection, not breakage); the
            # parity contract is that both engines either produce the
            # same outputs or die the same way.
            try:
                result = Network(
                    n=n, bandwidth=WIDTH, engine=engine, fault_plan=plan
                ).run(prog, inputs=inputs)
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))
            return ("ok", normalize(result.outputs), result.faults)

        kern = outcome(
            "kernel",
            program,
            node_inputs,
            lambda outs: [
                sorted((s, p.to_uint()) for s, p in out.items()) for out in outs
            ],
        )
        gen = outcome("legacy", generator, None, lambda outs: outs)
        assert kern == gen

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("faults", PRESENCE_FAULTS, ids=PRESENCE_FAULT_IDS)
    def test_kernel_broadcast_missing_frames_parity(self, faults, seed):
        # Four rounds per phase at b=4, so a sender can miss one frame of
        # its stream; the generator then leaves it out of what it heard.
        n, bandwidth, payload_width = 6, 4, 11
        plan = FaultPlan(seed=seed, **faults)
        payloads = [Bits((v * 2654435761) & 0x7FF, payload_width) for v in range(n)]
        program = transmit_broadcast_kernel_program(
            n, bandwidth, list(range(n)), max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_broadcast(
                ctx, payloads[ctx.node_id], payload_width
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def outcome(engine, prog, inputs, normalize):
            try:
                result = Network(
                    n=n, bandwidth=bandwidth, mode=Mode.BROADCAST,
                    engine=engine, fault_plan=plan,
                ).run(prog, inputs=inputs)
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))
            return ("ok", normalize(result.outputs), result.faults)

        kern = outcome(
            "kernel", program, payloads,
            lambda outs: [sorted((s, p.to_uint()) for s, p in o.items()) for o in outs],
        )
        gen = outcome("legacy", generator, None, lambda outs: outs)
        assert kern == gen
        assert kern[0] == "ok" and kern[2]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("faults", PRESENCE_FAULTS, ids=PRESENCE_FAULT_IDS)
    def test_kernel_unicast_missing_frames_parity(self, faults, seed):
        n, bandwidth, payload_width = 5, 4, 9
        plan = FaultPlan(seed=seed, **faults)
        links = [(s, d) for s in range(n) for d in range(n) if s != d]
        payload_maps = {
            (s, d): Bits((s * 131 + d * 17) & 0x1FF, payload_width) for s, d in links
        }
        program = transmit_unicast_kernel_program(
            n, bandwidth, links, max_bits=payload_width
        )

        def generator(ctx):
            got = yield from transmit_unicast(
                ctx,
                {d: payload_maps[(ctx.node_id, d)] for s, d in links if s == ctx.node_id},
                payload_width,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        node_inputs = [
            {d: payload_maps[(v, d)] for d in range(n) if d != v}
            for v in range(n)
        ]

        def outcome(engine, prog, inputs, normalize):
            try:
                result = Network(
                    n=n, bandwidth=bandwidth, engine=engine, fault_plan=plan
                ).run(prog, inputs=inputs)
            except ReproError as exc:
                return ("err", type(exc).__name__, str(exc))
            return ("ok", normalize(result.outputs), result.faults)

        kern = outcome(
            "kernel", program, node_inputs,
            lambda outs: [sorted((s, p.to_uint()) for s, p in o.items()) for o in outs],
        )
        gen = outcome("legacy", generator, None, lambda outs: outs)
        assert kern == gen
        assert kern[0] == "ok" and kern[2]

    def test_kernel_run_many_shares_schedule(self):
        n, payload_width = 4, 7
        plan = FaultPlan(seed=8, corrupt_rate=0.3)
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )
        inputs = [
            [Bits((v * 37 + k) & 0x7F, payload_width) for v in range(n)]
            for k in range(3)
        ]
        network = Network(
            n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="kernel",
            fault_plan=plan,
        )
        results = network.run_many(program, inputs)
        singles = [
            Network(
                n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="kernel",
                fault_plan=plan,
            ).run(program, inputs=inp)
            for inp in inputs
        ]
        for got, want in zip(results, singles):
            assert got.outputs == want.outputs
            assert got.faults == want.faults


class TestZeroOverheadPath:
    def test_no_plan_means_no_fault_machinery(self):
        network = Network(n=4, bandwidth=WIDTH)
        assert network.fault_plan is None
        assert network._fault_session() is None
        result = network.run(chatter_program(2))
        assert result.faults is None

    def test_inactive_plan_is_a_noop(self):
        idle = FaultPlan(seed=42)
        clean = run_outputs("fast", None)
        carried = run_outputs("fast", idle)
        assert carried.outputs == clean.outputs
        assert carried.faults is None
        network = Network(n=4, bandwidth=WIDTH, fault_plan=idle)
        assert network._fault_session() is None

    def test_fast_engine_keeps_lanes_and_compilation_without_plan(self):
        # Under an active plan the fast engine must abandon compiled
        # replay (record/replay does not re-deliver, so faults would be
        # baked in); without one, compilation behaves as before.
        from repro.core.compiled import mark_oblivious

        @mark_oblivious
        def oblivious(ctx):
            yield Outbox.fixed_width(
                [v for v in range(ctx.n) if v != ctx.node_id], [1, 1, 1], 2
            )
            return ctx.node_id

        clean = Network(n=4, bandwidth=WIDTH)
        clean.run(oblivious)
        clean.run(oblivious)
        assert clean.schedule_stats["replayed"] >= 1
        chaotic = Network(
            n=4, bandwidth=WIDTH, fault_plan=FaultPlan(seed=1, drop_rate=0.3)
        )
        chaotic.run(oblivious)
        chaotic.run(oblivious)
        assert chaotic.schedule_stats["compiled"] == 0
        assert chaotic.schedule_stats["replayed"] == 0

    def test_faulty_delivery_backend_applies_session(self):
        plan = FaultPlan(triggers={(1, 0, 1): "drop"})
        session = FaultSession(plan, 3, False)
        backend = FaultyDeliveryBackend(3, session)
        backend.inbox_dicts[1][0] = Bits(5, 4)
        backend.inbox_dicts[1][2] = Bits(6, 4)
        backend.apply_round(1)
        assert 0 not in backend.inbox_dicts[1]
        assert backend.inbox_dicts[1][2] == Bits(6, 4)
        assert session.events == [FaultEvent(1, 0, 1, "drop", None)]

    def test_lane_delivered_copy_is_detached(self):
        import numpy as np

        from repro.core.compiled import LaneStructure
        from repro.core.fastlane import BatchLane

        struct = LaneStructure(4, [(0, np.array([1], dtype=np.intp))])
        lane = BatchLane(3, 1)
        lane.deliver_kernel(struct, np.array([[3]], dtype=np.uint64))
        values, present = lane.delivered_copy()
        values[:, 0, 1] = 9
        present[0, 1] = False
        live_values, live_present = lane.delivered()
        assert live_values[0, 0, 1] == 3 and live_present[0, 1]


class TestRoundLimitWatchdog:
    def chatty(self, rounds):
        return chatter_program(rounds)

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_watchdog_trips_with_context(self, engine):
        network = Network(n=4, bandwidth=WIDTH, engine=engine, round_limit=3)
        with pytest.raises(RoundLimitExceeded, match=r"watchdog.*after 3 rounds.*round_limit 3"):
            network.run(self.chatty(10))

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_under_limit_passes(self, engine):
        network = Network(n=4, bandwidth=WIDTH, engine=engine, round_limit=3)
        result = network.run(self.chatty(3))
        assert result.rounds == 3

    def test_watchdog_is_a_max_rounds_error(self):
        network = Network(n=4, bandwidth=WIDTH, round_limit=2)
        with pytest.raises(MaxRoundsExceededError):
            network.run(self.chatty(5))

    def test_max_rounds_still_raises_base_error(self):
        network = Network(n=4, bandwidth=WIDTH, max_rounds=2)
        try:
            network.run(self.chatty(5))
        except RoundLimitExceeded:  # pragma: no cover - would be a bug
            pytest.fail("max_rounds must not masquerade as the watchdog")
        except MaxRoundsExceededError:
            pass

    def test_compiled_replay_respects_round_limit(self):
        from repro.core.compiled import mark_oblivious

        @mark_oblivious
        def oblivious(ctx):
            for _ in range(5):
                yield Outbox.fixed_width(
                    [v for v in range(ctx.n) if v != ctx.node_id],
                    [1] * (ctx.n - 1),
                    2,
                )
            return None

        warm = Network(n=4, bandwidth=WIDTH)
        warm.run(oblivious)
        warm.run(oblivious)  # replay path
        assert warm.schedule_stats["replayed"] >= 1
        capped = Network(n=4, bandwidth=WIDTH, round_limit=3)
        with pytest.raises(RoundLimitExceeded):
            capped.run(oblivious)

    def test_kernel_declared_rounds_checked_upfront(self):
        n, payload_width = 4, 20
        program = transmit_broadcast_kernel_program(
            n, WIDTH, list(range(n)), max_bits=payload_width
        )
        network = Network(
            n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, round_limit=1
        )
        with pytest.raises(RoundLimitExceeded, match="round_limit 1"):
            network.run(program, inputs=[Bits(0, payload_width)] * n)

    def test_round_limit_validation(self):
        with pytest.raises(ValueError):
            Network(n=4, bandwidth=WIDTH, round_limit=0)


class BrokenFast(FastEngine):
    """A fast engine that dies mid-run with an infrastructure error."""

    name = "broken-fast"

    def _run(self, network, program, inputs):
        raise RuntimeError("simulated engine crash")

    def _run_many(self, network, program, inputs_list):
        raise RuntimeError("simulated engine crash")


class BrokenEverything(BrokenFast):
    name = "broken-everything"

    @property
    def supports_kernel_programs(self):
        return True


class TestDegradationChain:
    def test_chain_order_and_flavour_filter(self):
        from repro.core.engine.planner import DEFAULT_PLANNER

        chain = DEFAULT_PLANNER.fallback_chain(chatter_program(1), KERNEL_ENGINE)
        assert chain == [FAST_ENGINE, LEGACY_ENGINE]
        chain = DEFAULT_PLANNER.fallback_chain(chatter_program(1), FAST_ENGINE)
        assert chain == [LEGACY_ENGINE]

    def test_broken_engine_falls_back_byte_identically(self):
        reference = Network(n=5, bandwidth=WIDTH, engine="fast").run(
            chatter_program(3)
        )
        network = Network(n=5, bandwidth=WIDTH, engine=BrokenFast())
        result = network.run(chatter_program(3))
        assert result.outputs == reference.outputs
        assert result.total_bits == reference.total_bits
        assert result.fallback == {
            "from": "broken-fast",
            "to": "fast",
            "error": "RuntimeError: simulated engine crash",
        }
        assert reference.fallback is None

    def test_run_many_attaches_fallback_to_every_result(self):
        network = Network(n=4, bandwidth=WIDTH, engine=BrokenFast())
        results = network.run_many(chatter_program(2), [None, None])
        assert len(results) == 2
        assert all(r.fallback is not None for r in results)
        assert all(r.fallback["from"] == "broken-fast" for r in results)

    def test_degrade_false_propagates(self):
        network = Network(n=4, bandwidth=WIDTH, engine=BrokenFast(), degrade=False)
        with pytest.raises(RuntimeError, match="simulated engine crash"):
            network.run(chatter_program(2))

    def test_protocol_errors_never_degrade(self):
        def too_wide(ctx):
            yield Outbox.broadcast_uint(0xFFFF, 16)

        network = Network(n=4, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="fast")
        with pytest.raises(ReproError):
            network.run(too_wide)

    def test_program_bugs_resolve_on_legacy_reference(self):
        # A user exception inside the program is not an engine failure:
        # the chain re-runs it, legacy reproduces it, and it propagates
        # as the program's own truth.
        def buggy(ctx):
            yield Outbox.broadcast_uint(ctx.node_id, WIDTH)
            raise KeyError("program bug")

        network = Network(n=4, bandwidth=WIDTH, mode=Mode.BROADCAST)
        with pytest.raises(KeyError):
            network.run(buggy)

    def test_exhausted_chain_raises_engine_fallback_error(self):
        # Only a kernel program can exhaust the chain without reaching
        # the legacy reference (whose failure propagates as truth): its
        # chain from a broken kernel-capable engine is [kernel] alone.
        from repro.core.engine.planner import ExecutionPlanner

        planner = ExecutionPlanner()
        program = transmit_broadcast_kernel_program(4, WIDTH, [0, 1, 2, 3], max_bits=4)
        network = Network(
            n=4, bandwidth=WIDTH, mode=Mode.BROADCAST, engine=BrokenEverything()
        )
        calls = []

        def call(engine):
            calls.append(engine.name)
            raise OSError(f"{engine.name} down")

        with pytest.raises(EngineFallbackError, match="degradation chain failed"):
            planner._degrade(network, program, call)
        assert calls == ["broken-everything", "kernel"]

    def test_legacy_failure_is_truth(self):
        from repro.core.engine.planner import DEFAULT_PLANNER

        network = Network(n=4, bandwidth=WIDTH, engine=BrokenFast())

        def call(engine):
            raise OSError(f"{engine.name} infra down")

        with pytest.raises(OSError, match="legacy infra down"):
            DEFAULT_PLANNER._degrade(network, chatter_program(1), call)

    def test_planned_legacy_failure_never_degrades(self):
        # A run planned on the reference engine never falls back to a
        # faster one: legacy's own exception propagates unchanged.
        def buggy(ctx):
            yield Outbox.broadcast_uint(ctx.node_id, WIDTH)
            raise KeyError("program bug")

        network = Network(n=4, bandwidth=WIDTH, mode=Mode.BROADCAST, engine="legacy")
        with pytest.raises(KeyError, match="program bug"):
            network.run(buggy)

        from repro.core.engine.planner import DEFAULT_PLANNER

        calls = []

        def call(engine):
            calls.append(engine.name)
            raise OSError(f"{engine.name} infra down")

        with pytest.raises(OSError, match="legacy infra down"):
            DEFAULT_PLANNER._degrade(network, chatter_program(1), call)
        assert calls == ["legacy"]


class TestResilientPhases:
    def drop_plan(self):
        return FaultPlan(seed=19, drop_rate=0.15)

    def test_acked_retransmit_recovers_drops(self):
        n, payload_width = 6, 10

        def plain(ctx):
            got = yield from transmit_unicast(
                ctx,
                {d: Bits((ctx.node_id * 57 + d) & 0x3FF, payload_width)
                 for d in range(n) if d != ctx.node_id},
                payload_width,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def acked(ctx):
            got = yield from transmit_unicast_acked(
                ctx,
                {d: Bits((ctx.node_id * 57 + d) & 0x3FF, payload_width)
                 for d in range(n) if d != ctx.node_id},
                payload_width,
                attempts=3,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        plan = self.drop_plan()
        lossy_plain = Network(n=n, bandwidth=WIDTH, fault_plan=plan).run(plain)
        lossy_acked = Network(n=n, bandwidth=WIDTH, fault_plan=plan).run(acked)
        def missing(res):
            return sum(n - 1 - len(out) for out in res.outputs)

        assert missing(lossy_acked) < missing(lossy_plain)
        # Clean runs: identical payloads, bounded extra cost, engine parity.
        clean_plain = Network(n=n, bandwidth=WIDTH).run(plain)
        clean_acked = Network(n=n, bandwidth=WIDTH).run(acked)
        assert clean_acked.outputs == clean_plain.outputs
        assert clean_acked.rounds == 3 * (phase_length(payload_width, WIDTH) + 1)
        fast = Network(n=n, bandwidth=WIDTH, engine="fast", fault_plan=plan).run(acked)
        legacy = Network(n=n, bandwidth=WIDTH, engine="legacy", fault_plan=plan).run(acked)
        assert fast.outputs == legacy.outputs

    def test_acked_requires_positive_attempts(self):
        def program(ctx):
            yield from transmit_unicast_acked(ctx, {}, 4, attempts=0)

        with pytest.raises(ValueError, match="attempts"):
            Network(n=3, bandwidth=WIDTH).run(program)

    def test_redundant_broadcast_outvotes_corruption(self):
        n, payload_width = 5, 9
        plan = FaultPlan(seed=23, corrupt_rate=0.12)
        truth = {v: (v * 191) & 0x1FF for v in range(n)}

        def plain(ctx):
            got = yield from transmit_broadcast(
                ctx, Bits(truth[ctx.node_id], payload_width), payload_width
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def redundant(ctx):
            got = yield from transmit_broadcast_redundant(
                ctx, Bits(truth[ctx.node_id], payload_width), payload_width,
                copies=3,
            )
            return sorted((s, p.to_uint()) for s, p in got.items())

        def wrong(result):
            return sum(
                1
                for out in result.outputs
                for s, value in out
                if value != truth[s]
            )

        kwargs = dict(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST, fault_plan=plan)
        assert wrong(Network(**kwargs).run(plain)) > 0, "plan never corrupted — retune"
        assert wrong(Network(**kwargs).run(redundant)) == 0
        clean = Network(n=n, bandwidth=WIDTH, mode=Mode.BROADCAST).run(redundant)
        assert wrong(clean) == 0
        assert clean.rounds == 3 * phase_length(payload_width, WIDTH)

    def test_redundant_requires_positive_copies(self):
        def program(ctx):
            yield from transmit_broadcast_redundant(ctx, None, 4, copies=0)

        with pytest.raises(ValueError, match="copies"):
            Network(n=3, bandwidth=WIDTH, mode=Mode.BROADCAST).run(program)


class TestDeliveryErrorContext:
    def test_bandwidth_error_names_round_and_link(self):
        def program(ctx):
            # Dict outbox with heterogeneous widths: the fully
            # validating scalar delivery path on every engine.
            yield Outbox.silent()
            yield Outbox.unicast(
                {(ctx.node_id + 1) % ctx.n: Bits(0xFFFF, 16)}
            )

        from repro.core.errors import BandwidthExceededError

        for engine in ("legacy", "fast"):
            network = Network(n=3, bandwidth=WIDTH, engine=engine)
            with pytest.raises(BandwidthExceededError, match="in round 2"):
                network.run(program)


class TestSelfCheckingMatrix:
    def test_verify_mode_validation(self):
        from repro.scenarios.matrix import ScenarioMatrix

        with pytest.raises(ValueError, match="verify"):
            ScenarioMatrix(["routing"], ["gnp"], [6], verify="paranoid")

    def test_chaos_sweep_detects_every_injection(self):
        from repro.scenarios.matrix import ScenarioMatrix

        plan = FaultPlan(seed=11, corrupt_rate=0.08, drop_rate=0.05)
        matrix = ScenarioMatrix(
            ["routing"], ["gnp"], [6, 8],
            engines=["legacy", "fast"], seed=3,
            fault_plan=plan, verify="cross-engine",
        )
        result = matrix.run()
        injected = result.injected_cells()
        assert injected, "plan injected nothing — retune the sweep"
        assert result.silent_passes() == []
        assert result.fault_reports()
        assert result.meta["fault_plan"]["seed"] == 11
        for cell in injected:
            assert cell.clean_digest is not None
            assert cell.detected is True

    def test_cross_engine_verify_green_on_clean_runs(self):
        from repro.scenarios.matrix import ScenarioMatrix

        matrix = ScenarioMatrix(
            ["routing"], ["gnp"], [6], engines=["fast"], seed=3,
            verify="cross-engine",
        )
        result = matrix.run()
        (cell,) = result.cells
        assert cell.verify_engine == "legacy"
        assert cell.verify_match is True
        assert result.mismatches() == []

    def test_failed_cells_persist_forensics(self):
        from repro.scenarios.matrix import ScenarioMatrix

        # Crash node 0 from round 1: routing loses frames and the cell
        # must land as failed-or-detected with a persisted error type.
        plan = FaultPlan(crashes={0: 1})
        matrix = ScenarioMatrix(
            ["circuit_simulation"], ["gnp"], [6], engines=["legacy"], seed=3,
            fault_plan=plan,
        )
        result = matrix.run()
        (cell,) = result.cells
        assert cell.detected is True
        if cell.status == "failed":
            assert cell.error_type
            assert cell.traceback_digest
            record = cell.to_dict()
            assert record["error_type"] == cell.error_type
            assert record["traceback_digest"] == cell.traceback_digest


class TestFaultPlanSerialization:
    """JSON round-trip: chaos plans must cross process boundaries (the
    sharded sweep pool ships them to workers) without changing a single
    coin of the schedule."""

    GRID = [
        (r, s, d)
        for r in range(1, 6)
        for s in range(5)
        for d in [None, *range(5)]
    ]

    def _schedule(self, plan, nodes=5):
        return (
            [plan.fault_for(*coord) for coord in self.GRID],
            [plan.crash_round(node) for node in range(nodes)],
            [
                plan.corrupt_bit(r, s, d, WIDTH)
                for (r, s, d) in self.GRID
                if plan.fault_for(r, s, d) == "corrupt"
            ],
        )

    def test_round_trip_identity(self):
        restored = FaultPlan.from_json(CHAOS.to_json())
        assert restored.to_dict() == CHAOS.to_dict()
        assert restored.to_json() == CHAOS.to_json()

    def test_round_trip_schedule_equality(self):
        plan = FaultPlan(
            seed=11,
            drop_rate=0.2,
            corrupt_rate=0.15,
            duplicate_rate=0.1,
            delay_rate=0.1,
            crash_rate=0.3,
            crash_horizon=8,
            crashes={2: 4},
            triggers={(1, 0, 3): "drop", (2, 1, None): "corrupt"},
            from_round=1,
            until_round=5,
            delay_rounds=2,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert self._schedule(restored) == self._schedule(plan)
        # Native key types survived: int node keys, tuple triggers with
        # None for the broadcast wildcard.
        assert restored.crashes == {2: 4}
        assert restored.triggers[(2, 1, None)] == "corrupt"

    def test_default_plan_round_trips(self):
        plan = FaultPlan()
        assert FaultPlan.from_json(plan.to_json()).to_dict() == plan.to_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json("not json {")
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_json("[1, 2, 3]")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"seed": 1, "warp_rate": 0.5})

    def test_from_dict_rejects_malformed_triggers(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"triggers": {"1-0-2": "drop"}})
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"crashes": {"node three": 1}})

    def test_invalid_values_still_fail_validation(self):
        # from_dict goes through __init__, so semantic validation (not
        # just shape validation) applies to deserialized plans too.
        with pytest.raises(FaultInjectionError):
            FaultPlan.from_dict({"drop_rate": 1.5})

    def test_faulted_run_identical_under_round_trip(self):
        restored = FaultPlan.from_json(CHAOS.to_json())
        original = run_outputs("legacy", CHAOS)
        replayed = run_outputs("legacy", restored)
        assert original.outputs == replayed.outputs
        assert [e.to_dict() for e in original.faults] == [
            e.to_dict() for e in replayed.faults
        ]
