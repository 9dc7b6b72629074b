"""Self-test of the benchmark at tiny n.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest cellbench -q

It drives ``run.py`` through its command line, as measurement does, at
``--scale tiny``, and checks that every metric ``BENCHMARK.json``
declares is printed with its unit, that a wrong pinned digest and a
degraded engine each fail the run, that the cell runner computes
ScenarioMatrix's digests, and that the benchmark refuses to run without
the library source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


#: Loaded first by every interpreter the benchmark starts (its own, the
#: jobs and the pool workers): makes the fast engine fail, so the
#: planner degrades each run to the legacy engine.
BREAK_FAST_ENGINE = """
try:
    from repro.core.engine.fast import FastEngine
except ImportError:
    pass
else:
    def _broken(self, *args, **kwargs):
        raise RuntimeError("injected fast-engine failure")

    FastEngine.run = FastEngine.run_many = _broken
"""


def _run(workload: str, trace: int, bench: str = HERE, env=None):
    proc = subprocess.run(
        [
            sys.executable, os.path.join(bench, "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def test_benchmark_json_names_the_workloads_and_metrics():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == ["tmm64", "bcast256", "sweep128"]
    assert set(names) == set(workloads.WORKLOADS)
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert names == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["tmm64", "bcast256", "sweep128"])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert result["metrics"]["unattributed_frac"]["value"] < 0.05


def test_injected_wrong_digest_fails_the_run(tmp_path):
    bench = str(tmp_path / "cellbench")
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    path = os.path.join(bench, "digests.json")
    with open(path) as fh:
        pins = json.load(fh)
    key = next(iter(pins["tiny"]["tmm64"]))
    pins["tiny"]["tmm64"][key] = "0" * 16
    with open(path, "w") as fh:
        json.dump(pins, fh)
    proc, result = _run("tmm64", 0, bench=bench)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "digest" in proc.stdout


@pytest.mark.parametrize("workload", ["bcast256", "sweep128"])
def test_engine_fallback_fails_the_run(tmp_path, workload):
    (tmp_path / "sitecustomize.py").write_text(BREAK_FAST_ENGINE)
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    proc, result = _run(workload, 0, env=env)
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert "fast->legacy" in proc.stdout


def test_cell_runner_digests_equal_scenario_matrix():
    from repro.scenarios import ScenarioMatrix

    workload = "sweep128"
    grid = workloads.WORKLOADS[workload]["tiny"]
    seed = workloads.DEFAULT_SEED
    matrix = ScenarioMatrix(grid["protocols"], grid["families"], grid["sizes"], seed=seed)
    by_coord = {}
    for cell in matrix.run().cells:
        if cell.status == "ok":
            by_coord.setdefault((cell.protocol, cell.family, cell.n), {})[cell.engine] = cell.digest
    records = workloads.run_cells(workload, "tiny", seed)
    assert records and all("error" not in r for r in records)
    for record in records:
        protocol, family, n, engine = record["key"].rsplit(":", 3)
        digests = by_coord[(protocol, family, int(n))]
        if engine == workloads.DEFAULT_ENGINE:
            assert set(digests.values()) == {record["digest"]}
        else:
            assert digests[engine] == record["digest"]


def test_refuses_to_run_without_the_library():
    bare = os.path.join(ROOT, ".cellbench_work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "cellbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "cellbench/run.py", "--workload", "tmm64",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
