"""End-to-end cell and sweep benchmark for the congested-clique library.

Run from the repository root::

    python3 cellbench/run.py --workload tmm64 --seed 1 --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``tmm64`` -- one ``triangle_mm`` cell, gnp family, n=64;
* ``bcast256`` -- ``mst`` and ``subgraph_detection`` x {gnp, sparse},
  n=256;
* ``sweep128`` -- a 120-cell ``ScenarioMatrix`` over five protocols,
  four families and n in {64, 128} on the worker pool (2 workers).

Every job runs in a fresh interpreter (``job.py``) with ``TMPDIR``,
``HOME``, the bytecode cache and the sweep journal under a new
directory in ``.cellbench_work/``, which is deleted afterwards.  A run
makes one job per ``JOB_SECONDS`` of ``--seconds`` (at least one) and
reports the medians.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
ten fresh interpreters importing the library and its registries,
half of them before the timed jobs and half after),
``wall_s``, ``cpu_s`` and ``peak_rss_mb`` of the timed section.
``--trace 1`` prints the per-layer split instead: it runs the workload
once untraced, then once with span recorders wrapped around the
library's functions (``tracing.py``) and reports each layer's time and
call count, the unattributed share and the tracing overhead.  For the
sweep, pool metrics come from the pooled run and the in-cell layers
from a traced serial pass over the same cells.

Every run validates every cell, checks digests against ``digests.json``
(the full-size cells when ``--seed`` is the default seed 0, and a tiny
canary of the same workload at seed 0 in every run), and counts a
digest mismatch, an engine fallback (a run the planner degraded to
another engine), a pool fallback to serial or a leaked ``/dev/shm``
entry as a failure.  A traced run also checks that the traced cells'
digests equal the untraced ones.  The last line of output is one JSON
object; the exit code is 0 only when every check passed.

``--scale tiny`` exists for the self-test (``test_cellbench.py``).
``pin_digests.py`` regenerates the pins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

#: A run must end within this many seconds (runs are killed at 180).
RUN_BUDGET_S = 170.0
SETUP_SAMPLES = 10
#: ``--seconds`` per timed job.  One job at full scale takes about 15 s
#: (tmm64), 7.5 s (bcast256) and 10 s (sweep128) on a quiet 2-core host
#: and up to three times that on a contended one; one job per run at
#: ``--seconds 10`` keeps a measurement of every workload inside its
#: time budget at that speed.
JOB_SECONDS = 10.0
CALIB_SAMPLES = 3

#: A fresh interpreter that imports what a run needs, then prints the
#: system-wide monotonic clock (comparable across processes on Linux).
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {here!r}); import workloads; "
    "workloads.import_all(); print(time.monotonic())"
)

#: Layer metric name -> (tracer layer, "seconds" | "calls").
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("graphs.build_s", "graphs.build", "seconds"),
    ("prepare_s", "prepare", "seconds"),
    ("circuits.build_s", "circuits.build", "seconds"),
    ("simulation.plan_s", "simulation.plan", "seconds"),
    ("program.build_s", "program.build", "seconds"),
    ("routing.schedule_s", "routing.schedule", "seconds"),
    ("oracle_s", "oracle", "seconds"),
    ("network.init_s", "network.init", "seconds"),
    ("network.run_s", "network.run", "seconds"),
    ("node.compute_s", "node.compute", "seconds"),
    ("simulation.eval_s", "simulation.eval", "seconds"),
    ("simulation.eval_calls", "simulation.eval", "calls"),
    ("engine.deliver_s", "engine.deliver", "seconds"),
    ("engine.deliver_calls", "engine.deliver", "calls"),
    ("bits.decode_s", "bits.decode", "seconds"),
    ("bits.decode_calls", "bits.decode", "calls"),
    ("bits.encode_s", "bits.encode", "seconds"),
    ("bits.encode_calls", "bits.encode", "calls"),
    ("graphs.add_edge_s", "graphs.add_edge", "seconds"),
    ("graphs.add_edge_calls", "graphs.add_edge", "calls"),
    ("summarize_s", "summarize", "seconds"),
    ("validate_s", "validate", "seconds"),
    ("digest_s", "digest", "seconds"),
]

#: The call-site layers that partition a cell's wall time.
TOP_LAYERS = [
    "graphs.build", "prepare", "network.init", "network.run",
    "summarize", "validate", "digest",
]


class JobError(RuntimeError):
    pass


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def calibrate() -> float:
    """A fixed pure-Python loop: host speed at the time of the run."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i & 0xFF
    return time.perf_counter() - start


def source_digest(root: str) -> str:
    """Digest of the library source, identifying the code measured even
    where no git metadata is available."""
    paths = sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(os.path.join(root, "src"))
        for name in names
        if name.endswith(".py")
    )
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode() + b"\0")
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def provenance(root: str) -> Dict[str, Any]:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=root, capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            commit = "uncommitted" if dirty else head
        except (OSError, subprocess.SubprocessError):
            commit = "unknown: git failed"
    return {
        "commit": commit,
        "source_sha256": source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _group_gone(pgid: int, timeout: float) -> bool:
    """Poll until no process of group ``pgid`` is left."""
    end = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > end:
            return False
        time.sleep(0.05)


class Runner:
    """One benchmark run: its work directory, child environment and
    time budget."""

    def __init__(self, root: str, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        base = os.path.join(root, ".cellbench_work")
        self.traces = os.path.join(base, "traces")
        os.makedirs(self.traces, exist_ok=True)
        self.work = os.path.join(
            base, f"run-{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
        )
        os.makedirs(self.work)
        self.jobs = 0
        self.setup_warm = False

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def env(self, scratch: str) -> Dict[str, str]:
        """Child environment: the library from ``src/``, and every
        per-user or temporary location inside ``scratch``."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for name in ("tmp", "home"):
            os.makedirs(os.path.join(scratch, name), exist_ok=True)
        env["TMPDIR"] = os.path.join(scratch, "tmp")
        env["HOME"] = os.path.join(scratch, "home")
        env["PYTHONPYCACHEPREFIX"] = os.path.join(self.work, "pycache")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _spawn(self, argv: List[str], env: Dict[str, str], log: str):
        with open(log, "wb") as out:
            return subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=out, start_new_session=True,
            )

    def _reap(self, proc, timeout: float) -> bytes:
        """Wait for ``proc``, then for everything it started (its
        session's process group), killing what is left after a grace
        period."""
        try:
            out, _ = proc.communicate(timeout=max(1.0, timeout))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise JobError(f"{proc.args[1]} timed out") from None
        finally:
            if not _group_gone(proc.pid, 5.0):
                os.killpg(proc.pid, signal.SIGKILL)
                _group_gone(proc.pid, 5.0)
        return out

    def setup_samples(self, count: int) -> List[float]:
        """``count`` timed fresh interpreters; the run's first call adds
        one untimed import first, to fill the fresh bytecode cache."""
        scratch = os.path.join(self.work, "setup")
        env = self.env(scratch)
        code = SETUP_CODE.format(here=HERE)
        samples = []
        while len(samples) < count:
            log = os.path.join(scratch, "setup.log")
            start = time.monotonic()
            proc = self._spawn([sys.executable, "-c", code], env, log)
            out = self._reap(proc, self.remaining())
            if proc.returncode != 0:
                raise JobError("setup import failed: " + self._log_tail(log))
            if self.setup_warm:
                samples.append(float(out) - start)
            self.setup_warm = True
        return samples

    @staticmethod
    def _log_tail(path: str) -> str:
        try:
            with open(path, "rb") as fh:
                return fh.read()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def job(self, kind: str, scale: str, seed: int, trace: bool) -> Dict[str, Any]:
        """Run one job in a fresh interpreter with a fresh scratch tree.
        Jobs share the run's bytecode cache, which the setup samples
        filled, so a job pays module execution but not compilation."""
        self.jobs += 1
        scratch = os.path.join(self.work, f"job{self.jobs}")
        env = self.env(scratch)
        spec = {
            "job": kind,
            "workload": self.args.workload,
            "scale": scale,
            "seed": seed,
            "trace": trace,
            "out": os.path.join(scratch, "result.json"),
            "journal": os.path.join(scratch, "tmp", "sweep.journal"),
            "trace_out": os.path.join(
                self.traces, f"{self.args.workload}-seed{seed}-{kind}.json"
            ),
        }
        path = os.path.join(scratch, "job.json")
        with open(path, "w") as fh:
            json.dump(spec, fh)
        log = os.path.join(scratch, "job.log")
        proc = self._spawn(
            [sys.executable, os.path.join(HERE, "job.py"), path], env, log
        )
        self._reap(proc, self.remaining())
        if proc.returncode != 0:
            raise JobError(f"{kind} job exited {proc.returncode}: {self._log_tail(log)}")
        with open(spec["out"]) as fh:
            result = json.load(fh)
        shutil.rmtree(scratch, ignore_errors=True)
        return result

    def repeat(self, kind: str, scale: str, seed: int) -> List[Dict[str, Any]]:
        """One untraced job per ``JOB_SECONDS`` of ``--seconds`` (at
        least one).  The count depends only on the arguments, so two
        versions of the library do the same work; a job that would
        overrun the run's time budget is skipped."""
        count = max(1, round(self.args.seconds / JOB_SECONDS))
        results: List[Dict[str, Any]] = []
        while True:
            started = time.monotonic()
            results.append(self.job(kind, scale, seed, trace=False))
            cost = time.monotonic() - started
            if len(results) >= count or self.remaining() < 2 * cost:
                return results


class Checks:
    """Correctness bookkeeping for one run.  Attempts and failures are
    keyed by the cell they concern (failures also by the run-level
    check), so a cell run by several jobs or failing several checks
    counts once."""

    def __init__(self, workload: str, pinned: Dict[str, Any]) -> None:
        self.workload = workload
        self.pinned = pinned
        self.attempted: set = set()
        self.failures: Dict[str, str] = {}

    def fail(self, key: str, message: str) -> None:
        self.failures.setdefault(key, message)

    def _pins(self, scale: str, seed: int) -> Optional[Dict[str, str]]:
        if seed != workloads.DEFAULT_SEED:
            return None
        pins = self.pinned.get(scale, {}).get(self.workload)
        if pins is None:
            self.fail(f"pins:{scale}", f"no pinned digests for {self.workload} at scale {scale}")
        return pins

    def _pinned_set(self, pins, digests: Dict[str, str], what: str) -> None:
        if pins is None:
            return
        for key, digest in sorted(digests.items()):
            if pins.get(key) != digest:
                self.fail(
                    f"{what}:{key}", f"{what} {key}: digest {digest} != pinned {pins.get(key)}"
                )
        for key in sorted(set(pins) - set(digests)):
            self.fail(f"{what}:{key}", f"{what} {key}: pinned cell did not run")

    def records(self, records, scale: str, seed: int, what: str) -> Dict[str, str]:
        digests = {}
        for record in records:
            self.attempted.add(f"{what}:{record['key']}")
            if "error" in record:
                self.fail(f"{what}:{record['key']}", f"{what} {record['key']}: {record['error']}")
            elif "digest" in record:
                digests[record["key"]] = record["digest"]
        self._pinned_set(self._pins(scale, seed), digests, what)
        return digests

    def job(self, result: Dict[str, Any], scale: str, seed: int) -> Dict[str, str]:
        """Check one job's cells and its canary; returns the cell digests."""
        self.records(result["canary"], "tiny", workloads.DEFAULT_SEED, "canary")
        if result["job"] != "sweep_pool":
            return self.records(result["records"], scale, seed, "cell")
        digests = {}
        expected = set(result["expected"])
        seen = set()
        for cell in result["cells"]:
            key = workloads.cell_key(cell["protocol"], cell["family"], cell["n"], cell["engine"])
            seen.add(key)
            if cell["status"] == "unsupported":
                continue
            self.attempted.add(f"cell:{key}")
            if (
                cell["status"] != "ok"
                or cell.get("validated") is False
                or cell.get("matches_reference") is False
                or cell.get("engine_fallback") is not None
            ):
                self.fail(
                    f"cell:{key}",
                    f"sweep {key}: status {cell['status']}, validated "
                    f"{cell.get('validated')}, matches_reference "
                    f"{cell.get('matches_reference')}, engine_fallback "
                    f"{cell.get('engine_fallback')}, error {cell.get('error')}"
                )
            else:
                digests[key] = cell["digest"]
        for key in sorted(expected - seen):
            self.fail(f"cell:{key}", f"sweep {key}: cell missing from the result")
        pool = result["pool"]
        if pool.get("executor") != "pool" or pool.get("interrupted"):
            self.fail(
                "pool", f"pool degraded: executor {pool.get('executor')}, reason "
                f"{pool.get('fallback_reason')}"
            )
        for name in result["leaked_shm"]:
            self.fail(f"shm:{name}", f"leaked /dev/shm entry {name}")
        self._pinned_set(self._pins(scale, seed), digests, "cell")
        return digests

    def same(self, digests: Dict[str, str], reference: Dict[str, str], what: str) -> None:
        """Fail every cell whose digest differs from ``reference``'s."""
        for key in sorted(set(digests) | set(reference)):
            if digests.get(key) != reference.get(key):
                self.fail(
                    f"cell:{key}",
                    f"{key}: {what} digest {digests.get(key)} != {reference.get(key)}",
                )


def end_to_end(runner: Runner, checks: Checks, scale: str, seed: int) -> Dict[str, Any]:
    # Setup samples on both sides of the jobs, so that a burst of host
    # contention in one stretch of the run does not set the median.
    samples = runner.setup_samples(SETUP_SAMPLES // 2)
    kind = "sweep_pool" if workloads.WORKLOADS[checks.workload]["kind"] == "sweep" else "cells"
    results = runner.repeat(kind, scale, seed)
    samples += runner.setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    for result in results:
        checks.job(result, scale, seed)
    print(f"# {len(results)} timed job(s), setup samples {samples}")
    return {
        "setup_s": (median(samples), "s"),
        "wall_s": (median([r["wall_s"] for r in results]), "s"),
        "cpu_s": (median([r["cpu_s"] for r in results]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in results]), "MB"),
    }


def _cell_metrics(runs: List[float], ok: int, total: int) -> Dict[str, Any]:
    return {
        "sweep.cell_run_s": (sum(runs), "s"),
        "sweep.cell_max_s": (max(runs, default=0.0), "s"),
        "sweep.cells_ok": (ok, "count"),
        "sweep.cells_total": (total, "count"),
    }


def _pool_metrics(pooled: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Pool, journal and shm metrics of the pooled sweep (zero when the
    workload has no pool)."""
    if pooled is None:
        zero = {
            name: (0, unit) for name, unit in [
                ("pool.busy_s", "s"), ("pool.idle_s", "s"),
                ("pool.utilization", "frac"), ("pool.non_run_s", "s"),
                ("pool.respawns", "count"), ("pool.retries", "count"),
                ("pool.fallback", "count"), ("journal.records", "count"),
                ("journal.bytes", "bytes"), ("shm.leaked_segments", "count"),
            ]
        }
        return zero
    pool = pooled["pool"]
    workers = pool.get("workers") or workloads.SWEEP_WORKERS
    busy = sum(st.get("seconds", 0.0) for st in pool.get("worker_stats", {}).values())
    cells = [c for c in pooled["cells"] if c["status"] != "unsupported"]
    runs = [c.get("seconds") or 0.0 for c in cells]
    capacity = workers * pooled["wall_s"]
    metrics = {
        "pool.busy_s": (busy, "s"),
        "pool.idle_s": (capacity - busy, "s"),
        "pool.utilization": (busy / capacity if capacity else 0.0, "frac"),
        "pool.non_run_s": (busy - sum(runs), "s"),
        "pool.respawns": (pool.get("respawns", 0), "count"),
        "pool.retries": (sum(max(0, (c.get("attempts") or 1) - 1) for c in cells), "count"),
        "pool.fallback": (0 if pool.get("executor") == "pool" else 1, "count"),
        "journal.records": (pooled["journal_records"], "count"),
        "journal.bytes": (pooled["journal_bytes"], "bytes"),
        "shm.leaked_segments": (len(pooled["leaked_shm"]), "count"),
    }
    metrics.update(_cell_metrics(
        runs, sum(1 for c in cells if c["status"] == "ok"), len(cells)
    ))
    return metrics


def per_layer(runner: Runner, checks: Checks, scale: str, seed: int) -> Dict[str, Any]:
    sweep = workloads.WORKLOADS[checks.workload]["kind"] == "sweep"
    pooled = None
    if sweep:
        pooled = runner.job("sweep_pool", scale, seed, trace=False)
        pool_digests = checks.job(pooled, scale, seed)
        base = runner.job("sweep_serial", scale, seed, trace=False)
    else:
        base = runner.job("cells", scale, seed, trace=False)
    base_digests = checks.job(base, scale, seed)
    if sweep:
        checks.same(base_digests, pool_digests, "serial vs pooled")
    traced = runner.job(base["job"], scale, seed, trace=True)
    checks.same(checks.job(traced, scale, seed), base_digests, "traced vs untraced")
    layers = traced["layers"]
    metrics: Dict[str, Any] = {}
    for name, layer, field in LAYER_METRICS:
        value = layers.get(layer, {}).get(field, 0)
        metrics[name] = (value, "s" if field == "seconds" else "count")
    records = [r for r in traced["records"] if "error" not in r]
    metrics["network.rounds"] = (sum(r["rounds"] for r in records), "count")
    metrics["network.bits"] = (sum(r["bits"] for r in records), "bits")
    covered = sum(layers.get(name, {}).get("seconds", 0.0) for name in TOP_LAYERS)
    metrics["unattributed_frac"] = (1.0 - covered / traced["wall_s"], "frac")
    metrics["trace.overhead_frac"] = (traced["wall_s"] / base["wall_s"] - 1.0, "frac")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics.update(_pool_metrics(pooled))
    if pooled is None:
        plain = [r for r in base["records"] if "error" not in r]
        metrics.update(_cell_metrics(
            [r["run_s"] for r in plain],
            sum(1 for r in plain if r.get("validated")),
            len(base["records"]),
        ))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            f"cellbench: no library source at {root}/src/repro; run from the "
            "repository root", file=sys.stderr,
        )
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        pinned = json.load(fh)

    calib = median([calibrate() for _ in range(CALIB_SAMPLES)])
    info = provenance(root)
    info.update(workload=args.workload, seed=args.seed, scale=args.scale, calib_s=calib)
    print("# provenance " + json.dumps(info, sort_keys=True))

    checks = Checks(args.workload, pinned)
    runner = Runner(root, args)
    try:
        if args.trace:
            metrics = per_layer(runner, checks, args.scale, args.seed)
            metrics["host.calib_s"] = (calib, "s")
            metrics["host.nproc"] = (os.cpu_count() or 0, "count")
        else:
            metrics = end_to_end(runner, checks, args.scale, args.seed)
    except JobError as exc:
        checks.fail("job", str(exc))
        metrics = {}
    finally:
        runner.close()
    # Host speed again after the work: a drift during the run shows as a
    # difference from the provenance line's calib_s.
    print(f"# host calib_end_s {median([calibrate() for _ in range(CALIB_SAMPLES)])}")
    attempted = max(1, len(checks.attempted))
    failed = len(checks.failures)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "frac")
    for message in checks.failures.values():
        print(f"# FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:>16.6g} {unit}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
