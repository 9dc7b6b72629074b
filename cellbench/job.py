"""One timed job of a benchmark run, in a fresh interpreter.

Usage: ``python3 cellbench/job.py JOB.json`` where the JSON names
``job`` (``cells``, ``sweep_pool`` or ``sweep_serial``), ``workload``,
``scale``, ``seed``, ``trace`` and the ``out`` path the result is
written to (plus ``journal`` for the pool and ``trace_out`` for the
span file of a traced job).  The entry point (``run.py``) starts one of
these per job with ``TMPDIR``/``HOME`` pointing at a fresh directory,
so nothing on disk carries over between runs.

The timed section covers only the workload; the pinned-digest canary
(the workload's tiny cells at the default seed) runs after it.  The
``__main__`` guard matters: the sweep's spawn-context workers import
this file as their main module.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads


def _usage() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    # Linux reports ru_maxrss in KiB; for RUSAGE_CHILDREN it is the
    # largest reaped child (the biggest pool worker).
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _journal_size(path: str) -> tuple:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return 0, 0
    return sum(1 for line in data.splitlines() if line.strip()), len(data)


def main(path: str) -> None:
    with open(path) as fh:
        job = json.load(fh)
    workload, scale, seed = job["workload"], job["scale"], job["seed"]
    workloads.import_all()
    tracer = stats = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        stats = workloads.CellStats()
    result = {"job": job["job"]}
    shm_before = _shm_entries()
    cpu0, _ = _usage()
    start = time.perf_counter()
    if job["job"] == "sweep_pool":
        matrix = workloads.run_sweep_pool(workload, scale, seed, job["journal"])
    else:
        records = workloads.run_cells(workload, scale, seed, tracer, stats)
    wall = time.perf_counter() - start
    cpu1, rss = _usage()
    result.update(wall_s=wall, cpu_s=cpu1 - cpu0, peak_rss_mb=rss)
    if job["job"] == "sweep_pool":
        result["cells"] = [cell.to_dict() for cell in matrix.cells]
        result["expected"] = [
            workloads.cell_key(protocol, family, n, engine)
            for protocol, family, n in workloads.coordinates(workload, scale)
            for engine in workloads.sweep_engines()
        ]
        result["pool"] = matrix.meta.get("pool", {})
        result["journal_records"], result["journal_bytes"] = _journal_size(job["journal"])
        result["leaked_shm"] = sorted(_shm_entries() - shm_before)
    else:
        result["records"] = records
    if tracer is not None:
        trace = tracer.dump()
        for layer, seconds in (
            ("node.compute", stats.compute_s), ("engine.deliver", stats.deliver_s)
        ):
            trace["layers"].setdefault(layer, {"calls": 0})["seconds"] = seconds
        result["layers"] = trace["layers"]
        with open(job["trace_out"], "w") as fh:
            json.dump(trace, fh)
    result["canary"] = workloads.run_cells(workload, "tiny", workloads.DEFAULT_SEED)
    with open(job["out"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
