"""Gate-to-player assignment for Theorem 2's circuit simulation.

The paper sets s = wires/n², calls a gate *heavy* when its weight
w(G) = |in(G)| + |out(G)| is large, assigns each heavy gate to a unique
player, and packs light gates so no player carries more than O(n·s)
weight.  We use threshold 2·n·s for heaviness (so at most n gates are
heavy, since total weight is exactly 2·wires ≤ 2·n²·s) and capacity
4·n·s for light packing, which the same counting argument shows is
always feasible (see DESIGN.md §4 — the constants differ from the
paper's prose, which double-counts wires, but the O(·) behaviour is
identical).

Constant gates are special: their values are public, so they are
excluded from all communication and carry no weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

import numpy as np

from repro.circuits.circuit import Circuit

__all__ = ["GateAssignment", "assign_gates"]


@dataclass
class GateAssignment:
    """Mapping I : gates -> players plus the parameters that shaped it."""

    owner: List[int]
    heavy: Set[int]
    s_param: int
    heavy_threshold: int
    capacity: int
    light_load: List[int] = field(default_factory=list)

    def is_heavy(self, gate_id: int) -> bool:
        return gate_id in self.heavy

    def owned_by(self, player: int) -> List[int]:
        return [gid for gid, p in enumerate(self.owner) if p == player]


def _min_load_first(
    load: np.ndarray, weight: int, count: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The players a min-load-first heap of ``(load, player)`` entries
    hands the next ``count`` gates of one ``weight``, in order, and the
    load each pick reaches.  Every pick adds the same weight, so the picks
    are the ``count`` smallest pairs ``(load[p] + k·weight, p)``, k ≥ 0:
    a binary search finds the largest value taken, and one lexsort
    orders the picks below it."""

    def picks_upto(value: int) -> np.ndarray:
        return np.maximum((value - load) // weight + 1, 0)

    lo = int(load.min())
    hi = lo + (count - 1) * weight
    while lo < hi:
        mid = (lo + hi) // 2
        if picks_upto(mid).sum() >= count:
            hi = mid
        else:
            lo = mid + 1
    picks = picks_upto(lo - 1)
    # Ties at the last value go to the lowest player ids.
    at_last = np.flatnonzero((load <= lo) & ((lo - load) % weight == 0))
    picks[at_last[: count - int(picks.sum())]] += 1
    players = np.repeat(np.arange(load.size), picks)
    steps = np.arange(count) - np.repeat(np.cumsum(picks) - picks, picks)
    reached = np.repeat(load, picks) + (steps + 1) * weight
    order = np.lexsort((players, reached))
    return players[order], reached[order]


def assign_gates(circuit: Circuit, n: int) -> GateAssignment:
    """Construct the assignment I of Theorem 2's proof."""
    if n < 1:
        raise ValueError("need at least one player")
    table = circuit.table()
    wires = int(table.flat.size)
    s_param = max(1, -(-wires // (n * n)))
    heavy_threshold = 2 * n * s_param
    capacity = 4 * n * s_param

    weights = table.fan_in + table.fan_out
    const_ids, _ = circuit.constants()
    weights[const_ids] = 0

    heavy_ids = np.flatnonzero(weights >= heavy_threshold)
    if heavy_ids.size > n:
        raise AssertionError(
            f"{heavy_ids.size} heavy gates exceed n={n}; "
            "the counting bound guarantees this cannot happen"
        )
    owner = np.zeros(len(circuit), dtype=np.int64)
    owner[heavy_ids] = np.arange(heavy_ids.size)

    # Pack light gates minimum-load-first, heaviest first (ties by id);
    # weightless gates stay with player 0.  The counting argument in the
    # proof of Theorem 2 shows capacity 4·n·s never overflows.
    light = np.ones(len(circuit), dtype=bool)
    light[heavy_ids] = False
    light_ids = np.flatnonzero(light & (weights > 0))
    light_ids = light_ids[np.argsort(-weights[light_ids], kind="stable")]
    light_weights = weights[light_ids]
    bounds = (np.flatnonzero(np.diff(light_weights)) + 1).tolist()
    load = np.zeros(n, dtype=np.int64)
    runs = zip([0, *bounds], [*bounds, light_ids.size]) if light_ids.size else ()
    for lo, hi in runs:
        weight = int(light_weights[lo])
        players, reached = _min_load_first(load, weight, hi - lo)
        if reached[-1] > capacity:
            raise AssertionError(
                "light-gate packing overflowed its capacity; "
                "this contradicts the counting bound of Theorem 2"
            )
        owner[light_ids[lo:hi]] = players
        load += np.bincount(players, minlength=n) * weight

    return GateAssignment(
        owner=owner.tolist(),
        heavy=set(heavy_ids.tolist()),
        s_param=s_param,
        heavy_threshold=heavy_threshold,
        capacity=capacity,
        light_load=load.tolist(),
    )
