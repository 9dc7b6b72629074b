"""Regenerate ``digests.json``: every workload's cell digests at the
default seed, at full and tiny scale.

Run from the repository root after a change that is meant to alter
what a protocol computes (takes about a minute)::

    PYTHONPATH=src python3 cellbench/pin_digests.py

Review the diff of ``digests.json`` before committing it: an unexpected
change there is a correctness regression, not a new baseline.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> None:
    pins = {}
    for scale in ("full", "tiny"):
        pins[scale] = {}
        for workload in sorted(workloads.WORKLOADS):
            records = workloads.run_cells(workload, scale, workloads.DEFAULT_SEED)
            failed = [r for r in records if "error" in r]
            if failed:
                raise SystemExit(f"{workload} {scale}: cells failed: {failed}")
            pins[scale][workload] = {r["key"]: r["digest"] for r in records}
            print(f"{scale} {workload}: {len(records)} cells", flush=True)
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
