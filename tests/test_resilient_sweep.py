"""The resilient sharded sweep executor: worker pool, journal, resume.

The hard invariant under test is determinism — `MatrixResult` digests
byte-identical across worker counts, scheduling orders, injected worker
kills and kill-then-resume boundaries — plus the supervision semantics:
per-cell deadlines, crash retry with backoff, poison quarantine, and
graceful degradation to the serial runner.

The chaos-protocol prepare hooks below are module-level on purpose:
specs pickle across the spawn boundary by reference, so the worker
children import this module to run them.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.core.errors import (
    CellTimeoutError,
    ReproError,
    SweepExecutionError,
    SweepResumeError,
    WorkerCrashError,
)
from repro.core.network import Mode, Outbox
from repro.scenarios import (
    PROTOCOLS,
    PreparedScenario,
    ProtocolSpec,
    ScenarioMatrix,
    get_protocol,
    register_protocol,
)
from repro.scenarios.matrix import DEFAULT_CELL_ROUND_LIMIT
from repro.scenarios.sweep import SweepJournal, sweep_fingerprint

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def cell_views(result):
    """The determinism fingerprint of a sweep: every per-cell field that
    must be byte-identical across execution shapes (notably excluding
    timings and attempt counts, which legitimately vary)."""
    return [
        (
            c.protocol, c.family, c.n, c.engine, c.status, c.digest,
            c.rounds, c.total_bits, c.max_round_bits, c.validated,
            c.matches_reference, c.verify_match, c.detected,
        )
        for c in result.cells
    ]


# -- module-level chaos protocols (picklable by reference) ----------------


def _prepare_const(n, graph, rng):
    rounds = 2

    def program(ctx):
        heard = []
        for r in range(rounds):
            inbox = yield Outbox.broadcast_uint((ctx.node_id + r) & 0xF, 4)
            heard.append(tuple(sorted(inbox.uint_items())))
        return tuple(heard)

    def summarize(result):
        return tuple(result.outputs)

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=summarize,
        validate=None,
    )


def _prepare_livelock(n, graph, rng):
    def program(ctx):
        while True:
            yield Outbox.broadcast_uint(1, 4)

    return PreparedScenario(
        network_kwargs=dict(n=n, bandwidth=4, mode=Mode.BROADCAST),
        programs={"generator": program},
        inputs=None,
        summarize=lambda result: (),
        validate=None,
    )


def _prepare_flaky(n, graph, rng):
    # SIGKILL our own worker process on the first attempt of any cell;
    # succeed on retries.  Exercises crash detection + respawn + retry.
    from repro.scenarios.sweep import worker

    task = worker.CURRENT_TASK
    if task is not None and task[1] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return _prepare_const(n, graph, rng)


def _prepare_poison(n, graph, rng):
    # SIGKILL on every attempt: this cell can never complete and must
    # land in the quarantine, never hang or vanish.
    from repro.scenarios.sweep import worker

    if worker.CURRENT_TASK is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _prepare_const(n, graph, rng)


def _prepare_sleepy(n, graph, rng):
    # Hang *outside* the round loop, where Network(round_limit=) cannot
    # see it — only the supervisor's wall-clock deadline can.
    from repro.scenarios.sweep import worker

    if worker.CURRENT_TASK is not None:
        time.sleep(300)
    return _prepare_const(n, graph, rng)


CONST = ProtocolSpec(
    name="sweeptest_const",
    description="two-round broadcast gossip, deterministic",
    mode=Mode.BROADCAST,
    engines=("legacy", "fast"),
    prepare=_prepare_const,
)
LIVELOCK = ProtocolSpec(
    name="sweeptest_livelock",
    description="never terminates; exists to trip the round watchdog",
    mode=Mode.BROADCAST,
    engines=("legacy",),
    prepare=_prepare_livelock,
)
FLAKY = ProtocolSpec(
    name="sweeptest_flaky",
    description="kills its worker on attempt 1, succeeds on attempt 2",
    mode=Mode.BROADCAST,
    engines=("legacy",),
    prepare=_prepare_flaky,
)
POISON = ProtocolSpec(
    name="sweeptest_poison",
    description="kills its worker on every attempt",
    mode=Mode.BROADCAST,
    engines=("legacy",),
    prepare=_prepare_poison,
)
SLEEPY = ProtocolSpec(
    name="sweeptest_sleepy",
    description="hangs in prepare, outside the round loop",
    mode=Mode.BROADCAST,
    engines=("legacy",),
    prepare=_prepare_sleepy,
)


@pytest.fixture
def temp_protocols():
    registered = []

    def _register(*specs):
        for spec in specs:
            register_protocol(spec)
            registered.append(spec.name)

    yield _register
    for name in registered:
        PROTOCOLS.pop(name, None)


class TestErrorTaxonomy:
    def test_coordinate_and_attempts_carried(self):
        err = WorkerCrashError(
            "worker died", coordinate="0:routing:gnp:8:legacy",
            attempts=2, traceback_digest="abc123def456",
        )
        assert err.coordinate == "0:routing:gnp:8:legacy"
        assert err.attempts == 2
        assert err.traceback_digest == "abc123def456"
        assert "[cell 0:routing:gnp:8:legacy, attempt 2]" in str(err)

    def test_hierarchy(self):
        for cls in (WorkerCrashError, CellTimeoutError, SweepResumeError):
            assert issubclass(cls, SweepExecutionError)
            assert issubclass(cls, ReproError)

    def test_coordinate_optional(self):
        err = SweepResumeError("journal is empty")
        assert err.coordinate is None
        assert "[cell" not in str(err)


class TestJournal:
    def _meta(self, seed=0):
        return ScenarioMatrix(["routing"], ["gnp"], [8], seed=seed)._meta()

    def test_refuses_to_clobber_existing_journal(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open():
            pass
        with pytest.raises(SweepResumeError, match="already exists"):
            SweepJournal(path, self._meta()).open()

    def test_fingerprint_binds_journal_to_sweep(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta(seed=0)).open():
            pass
        with pytest.raises(SweepResumeError, match="different sweep"):
            SweepJournal.load(path, expected_meta=self._meta(seed=1))
        loaded = SweepJournal.load(path, expected_meta=self._meta(seed=0))
        assert loaded.fingerprint == sweep_fingerprint(self._meta(seed=0))

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
        with open(path, "a") as fh:
            fh.write('{"kind": "cell", "key": "k2", "ce')  # torn mid-append
        loaded = SweepJournal.load(path)
        assert set(loaded.cells) == {"k1"}

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_cell("k1", {"digest": "aa"})
        lines = open(path).read().splitlines()
        lines[1] = "garbage"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n" + '{"kind": "cell"}\n')
        with pytest.raises(SweepResumeError, match="corrupt"):
            SweepJournal.load(path)

    def test_attempt_history_is_durable(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        with SweepJournal(path, self._meta()).open() as journal:
            journal.record_attempt("k1", 1, "WorkerCrashError", "boom", "aa")
            journal.record_cell("k1", {"digest": "aa"}, attempt=2)
        loaded = SweepJournal.load(path)
        assert [a["attempt"] for a in loaded.attempts["k1"]] == [1]
        assert loaded.attempts["k1"][0]["error_type"] == "WorkerCrashError"
        assert loaded.duplicate_keys() == []


class TestWatchdog:
    def test_livelocked_protocol_becomes_structured_timeout_cell(
        self, temp_protocols
    ):
        temp_protocols(LIVELOCK, CONST)
        matrix = ScenarioMatrix(
            ["sweeptest_livelock", "sweeptest_const"], ["gnp"], [6],
            engines=["legacy"], cell_round_limit=30,
        )
        result = matrix.run()
        by_protocol = {c.protocol: c for c in result.cells}
        hung = by_protocol["sweeptest_livelock"]
        assert hung.status == "failed"
        assert hung.error_type == "RoundLimitExceeded"
        # The sweep survived the hang and ran the other cells.
        assert by_protocol["sweeptest_const"].status == "ok"
        assert hung in result.mismatches()

    def test_watchdog_is_on_by_default(self):
        matrix = ScenarioMatrix(["routing"], ["gnp"], [8])
        assert matrix.cell_round_limit == DEFAULT_CELL_ROUND_LIMIT
        assert matrix._meta()["cell_round_limit"] == DEFAULT_CELL_ROUND_LIMIT

    def test_watchdog_does_not_break_real_protocols(self):
        result = ScenarioMatrix(
            ["routing"], ["gnp"], [8], engines=["legacy"], cell_round_limit=200
        ).run()
        assert all(c.status == "ok" for c in result.cells)


class TestSpecPickling:
    def test_builtin_spec_restores_to_registry_identity(self):
        spec = get_protocol("routing")
        assert pickle.loads(pickle.dumps(spec)) is spec

    def test_adhoc_spec_reregisters_in_a_fresh_registry(self, temp_protocols):
        temp_protocols(CONST)
        blob = pickle.dumps(get_protocol("sweeptest_const"))
        PROTOCOLS.pop("sweeptest_const")
        restored = pickle.loads(blob)
        assert restored.name == "sweeptest_const"
        assert PROTOCOLS["sweeptest_const"] is restored
        assert restored.prepare is _prepare_const

    def test_unpicklable_spec_degrades_pool_to_serial(self, temp_protocols):
        temp_protocols(
            ProtocolSpec(
                name="sweeptest_lambda",
                description="prepare is a lambda: cannot cross processes",
                mode=Mode.BROADCAST,
                engines=("legacy",),
                prepare=lambda n, graph, rng: _prepare_const(n, graph, rng),
            )
        )
        matrix = ScenarioMatrix(
            ["sweeptest_lambda"], ["gnp"], [6], engines=["legacy"]
        )
        serial = matrix.run()
        pooled = matrix.run(workers=2)
        pool = pooled.meta["pool"]
        assert pool["executor"] == "serial-fallback"
        assert "not picklable" in pool["fallback_reason"]
        assert cell_views(pooled) == cell_views(serial)


class TestPoolDeterminism:
    PROTOS = ["routing", "mst"]

    def test_digests_identical_across_worker_counts(self):
        def sweep():
            return ScenarioMatrix(
                self.PROTOS, ["gnp"], [8], engines=["legacy", "fast"]
            )

        serial = sweep().run()
        assert serial.mismatches() == []
        for workers in (1, 2, 4):
            pooled = sweep().run(workers=workers)
            assert pooled.meta["pool"]["executor"] == "pool"
            assert cell_views(pooled) == cell_views(serial), (
                f"digests diverged at W={workers}"
            )
        stats = pooled.meta["pool"]["worker_stats"]
        assert sum(s["cells"] for s in stats.values()) == len(serial.cells)

    def test_clean_teardown_leaves_no_queue_feeder_running(self):
        # A live feeder thread holds its queue's named semaphores in
        # /dev/shm; after a clean sweep every one has been joined.
        import threading

        pooled = ScenarioMatrix(self.PROTOS, ["gnp"], [8]).run(workers=2)
        assert pooled.meta["pool"]["executor"] == "pool"
        assert not [
            t for t in threading.enumerate() if t.name == "QueueFeederThread"
        ]

    def test_chaos_worker_kills_do_not_change_digests(self, temp_protocols):
        temp_protocols(CONST)
        def sweep():
            return ScenarioMatrix(
                ["sweeptest_const"], ["gnp", "cycle"], [6, 8],
                engines=["legacy", "fast"],
            )

        serial = sweep().run()
        pooled = sweep().run(workers=2, chaos_kills=[1, 3])
        pool = pooled.meta["pool"]
        assert pool["respawns"] >= 1
        assert cell_views(pooled) == cell_views(serial)
        assert pooled.quarantined() == []


class TestSupervision:
    def test_crashed_cell_retries_and_succeeds(self, temp_protocols):
        temp_protocols(FLAKY)
        matrix = ScenarioMatrix(
            ["sweeptest_flaky"], ["gnp"], [6], engines=["legacy"]
        )
        result = matrix.run(workers=1)
        (cell,) = result.cells
        assert cell.status == "ok"
        assert cell.attempts == 2
        assert not cell.quarantined
        assert result.meta["pool"]["respawns"] >= 1

    def test_poison_cell_lands_in_quarantine(self, temp_protocols, tmp_path):
        temp_protocols(POISON, CONST)
        journal = str(tmp_path / "sweep.jsonl")
        matrix = ScenarioMatrix(
            ["sweeptest_poison", "sweeptest_const"], ["gnp"], [6],
            engines=["legacy"],
        )
        result = matrix.run(workers=1, max_attempts=2, journal=journal)
        by_protocol = {c.protocol: c for c in result.cells}
        poison = by_protocol["sweeptest_poison"]
        assert poison.status == "failed"
        assert poison.quarantined is True
        assert poison.attempts == 2
        assert poison.error_type == "WorkerCrashError"
        assert by_protocol["sweeptest_const"].status == "ok"
        # Never silently dropped: quarantine shows up in every report
        # surface and in the durable journal.
        assert result.quarantined() == [poison]
        assert poison in result.mismatches()
        assert any(
            "quarantined" in r["flags"] for r in result.fault_reports()
        )
        loaded = SweepJournal.load(journal)
        key = poison.key(matrix.seed)
        assert loaded.cells[key]["quarantined"] is True
        assert [a["attempt"] for a in loaded.attempts[key]] == [1, 2]

    def test_wall_clock_deadline_catches_hang_outside_rounds(
        self, temp_protocols
    ):
        temp_protocols(SLEEPY)
        matrix = ScenarioMatrix(
            ["sweeptest_sleepy"], ["gnp"], [6], engines=["legacy"]
        )
        result = matrix.run(workers=1, cell_timeout=1.5, max_attempts=1)
        (cell,) = result.cells
        assert cell.status == "failed"
        assert cell.quarantined is True
        assert cell.error_type == "CellTimeoutError"
        assert "deadline" in cell.error


class TestJournaledRuns:
    def sweep(self):
        return ScenarioMatrix(
            ["routing", "mst"], ["gnp"], [8], engines=["legacy", "fast"]
        )

    def test_serial_journal_then_full_replay(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        first = self.sweep().run(journal=journal)
        loaded = SweepJournal.load(journal)
        assert len(loaded.cells) == len(first.cells)
        replayed = self.sweep().run(journal=journal, resume_from=journal)
        assert replayed.meta["replayed_cells"] == len(first.cells)
        assert cell_views(replayed) == cell_views(first)
        # Zero re-execution: the journal still holds exactly one record
        # per cell after the replay run.
        assert SweepJournal.load(journal).duplicate_keys() == []

    def test_interruption_drill_then_pooled_resume(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        serial = self.sweep().run()
        partial = self.sweep().run(
            workers=2, journal=journal, stop_after_cells=2
        )
        assert partial.meta["pool"]["interrupted"] is True
        done_before = set(SweepJournal.load(journal).cells)
        assert len(done_before) >= 2
        resumed = self.sweep().run(workers=2, resume_from=journal)
        assert resumed.meta["pool"]["interrupted"] is False
        assert resumed.meta["pool"]["replayed"] == len(done_before)
        assert cell_views(resumed) == cell_views(serial)
        loaded = SweepJournal.load(journal)
        assert loaded.duplicate_keys() == []
        assert set(loaded.cells) == {
            c.key(0) for c in serial.cells
        }

    def test_resume_refuses_mismatched_journal_path_pair(self, tmp_path):
        with pytest.raises(SweepResumeError, match="different files"):
            self.sweep().run(
                workers=1,
                journal=str(tmp_path / "a.jsonl"),
                resume_from=str(tmp_path / "b.jsonl"),
            )


class TestKillAndResume:
    """The headline drill: SIGKILL the whole pool mid-sweep, resume from
    the journal, digests byte-identical to an uninterrupted serial run
    and zero completed cells re-executed."""

    CHILD = """
import sys
from repro.scenarios import ScenarioMatrix
matrix = ScenarioMatrix(
    ["routing", "mst"], ["gnp", "cycle"], [8, 10], engines=["legacy", "fast"]
)
matrix.run(workers=2, journal=sys.argv[1])
"""

    def test_sigkill_mid_sweep_then_resume(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        child = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, journal],
            env=env, cwd=REPO,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            completed_before = {}
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    raise AssertionError(
                        "child sweep finished before it could be killed; "
                        "grow the sweep"
                    )
                try:
                    completed_before = SweepJournal.load(journal).cells
                except (SweepResumeError, OSError):
                    completed_before = {}
                if len(completed_before) >= 2:
                    break
                time.sleep(0.05)
            assert len(completed_before) >= 2, "journal never accumulated cells"
        finally:
            if child.poll() is None:
                child.kill()
            child.wait(timeout=30)

        matrix = ScenarioMatrix(
            ["routing", "mst"], ["gnp", "cycle"], [8, 10],
            engines=["legacy", "fast"],
        )
        uninterrupted = ScenarioMatrix(
            ["routing", "mst"], ["gnp", "cycle"], [8, 10],
            engines=["legacy", "fast"],
        ).run()
        resumed = matrix.run(resume_from=journal)
        assert resumed.meta["replayed_cells"] == len(
            {k for k in completed_before if k in set(matrix.cell_keys())}
        )
        assert cell_views(resumed) == cell_views(uninterrupted)
        # Journal-verified zero re-runs: every cell recorded exactly
        # once, including the ones completed before the kill.
        loaded = SweepJournal.load(journal)
        assert loaded.duplicate_keys() == []
        for key in completed_before:
            assert loaded.cell_lines[key] == 1


class TestCLI:
    def test_cli_serial_and_resume(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO, "src")
        journal = str(tmp_path / "sweep.jsonl")
        out = str(tmp_path / "sweep.json")
        base = [
            sys.executable, "-m", "repro.scenarios",
            "--protocols", "routing", "--families", "gnp", "--sizes", "8",
            "--engines", "legacy", "fast", "--journal", journal, "--out", out,
        ]
        first = subprocess.run(
            base, env=env, cwd=REPO, capture_output=True, text=True
        )
        assert first.returncode == 0, first.stderr
        assert "cells: 2" in first.stdout
        resumed = subprocess.run(
            base + ["--resume"], env=env, cwd=REPO,
            capture_output=True, text=True,
        )
        assert resumed.returncode == 0, resumed.stderr
        payload = json.load(open(out))
        assert len(payload["cells"]) == 2
        assert payload["meta"]["replayed_cells"] == 2
