"""Deterministic routing schedules for balanced demands.

This is the library's stand-in for Lenzen's O(1)-round routing [28]
(DESIGN.md substitution #1).  In every use inside the paper the demand
pattern is public (derivable from the circuit structure and the gate
assignment), so all nodes can compute the same schedule locally:

1. The demand is expressed in *frames* (each at most the bandwidth, so
   one frame = one link per round).
2. Frames are viewed as edges of a bipartite multigraph (sources ×
   destinations) and properly edge-coloured greedily (≤ 2Δ−1 colours
   where Δ is the max number of frames at any node).
3. Colour class c travels via intermediate node c mod n: phase 1 sends
   each frame source → intermediate in round ⌊c/n⌋, phase 2 forwards
   intermediate → destination in round ⌊c/n⌋ of the second phase.

Within one colour class each node is the source of at most one frame and
the destination of at most one frame, and each (phase, round-slot,
residue) triple selects a unique colour — so every link carries at most
one frame per round.  Total rounds: 2·⌈C/n⌉ ≤ 2·⌈(2Δ−1)/n⌉, which is
O(1) whenever every node sends and receives O(n) frames — exactly the
"balanced demand" regime of [28] that Theorem 2 consumes.

A direct schedule (round t ships the t-th frame of every pair) is used
instead whenever it is at least as fast (max per-pair multiplicity ≤
two-phase rounds).

The degree bound usually decides that without colouring anything: a
proper colouring puts the Δ frames of the busiest node in Δ distinct
classes, so C ≥ Δ and the two-phase schedule needs at least 2·⌈Δ/n⌉
rounds.  When the max multiplicity is at most 2·⌈Δ/n⌉, the direct
schedule is certain and the greedy colouring is skipped.

A schedule is stored as arrays: the frame table (source, destination,
index, sorted) and one row per hop (round, frame, sender, recipient,
final), sorted by (round, frame).  The per-round dict views
``send_plan`` / ``recv_plan`` that generator programs read are built
from those rows on first read.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

import numpy as np

__all__ = ["FrameRef", "RoutingSchedule", "build_schedule", "demand_arrays"]

# A frame is identified by (source, destination, index within the pair).
FrameRef = Tuple[int, int, int]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.flags.writeable = False
_NONE_FINAL = np.empty(0, dtype=bool)
_NONE_FINAL.flags.writeable = False


class RoutingSchedule:
    """A fully deterministic, globally known frame-by-frame timetable.

    ``frame_src`` / ``frame_dst`` / ``frame_idx`` list every frame,
    sorted; hop ``h`` moves frame ``hop_frame[h]`` from ``hop_sender[h]``
    to ``hop_recipient[h]`` in round ``hop_round[h]``, and
    ``hop_final[h]`` says whether it lands on the frame's destination.
    Hops are sorted by (round, frame).

    The dict views are built on first read: ``send_plan[r][node]``
    lists ``(recipient, frame)`` pairs node must transmit in round r;
    ``recv_plan[r][(sender, receiver)]`` names the frame that hop
    carries and whether the hop is final.  Pickling drops the views, so
    a schedule digests the same whether or not they were read.
    """

    def __init__(
        self,
        n: int,
        num_rounds: int,
        frames: Tuple[np.ndarray, np.ndarray, np.ndarray] = (_EMPTY, _EMPTY, _EMPTY),
        hops: Tuple[np.ndarray, ...] = (_EMPTY, _EMPTY, _EMPTY, _EMPTY, _NONE_FINAL),
    ) -> None:
        self.n = n
        self.num_rounds = num_rounds
        self.frame_src, self.frame_dst, self.frame_idx = frames
        (
            self.hop_round,
            self.hop_frame,
            self.hop_sender,
            self.hop_recipient,
            self.hop_final,
        ) = hops

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_plan_views", None)
        return state

    def _views(self):
        views = self.__dict__.get("_plan_views")
        if views is None:
            send_plan: List[Dict[int, List[Tuple[int, FrameRef]]]] = [
                {} for _ in range(self.num_rounds)
            ]
            recv_plan: List[Dict[Tuple[int, int], Tuple[FrameRef, bool]]] = [
                {} for _ in range(self.num_rounds)
            ]
            refs = list(
                zip(
                    self.frame_src.tolist(),
                    self.frame_dst.tolist(),
                    self.frame_idx.tolist(),
                )
            )
            for r, f, sender, recipient, final in zip(
                self.hop_round.tolist(),
                self.hop_frame.tolist(),
                self.hop_sender.tolist(),
                self.hop_recipient.tolist(),
                self.hop_final.tolist(),
            ):
                frame = refs[f]
                send_plan[r].setdefault(sender, []).append((recipient, frame))
                recv_plan[r][(sender, recipient)] = (frame, final)
            views = self.__dict__["_plan_views"] = (send_plan, recv_plan)
        return views

    @property
    def send_plan(self) -> List[Dict[int, List[Tuple[int, FrameRef]]]]:
        return self._views()[0]

    @property
    def recv_plan(self) -> List[Dict[Tuple[int, int], Tuple[FrameRef, bool]]]:
        return self._views()[1]

    def describe(self) -> str:
        return f"RoutingSchedule(rounds={self.num_rounds}, hops={self.hop_round.size})"


def _greedy_edge_coloring(frames: List[FrameRef]) -> Tuple[List[int], int]:
    """Proper edge colouring of the frame multigraph: no two frames with
    the same source or same destination share a colour.  Greedy uses at
    most deg(src)+deg(dst)-1 ≤ 2Δ-1 colours."""
    used_as_source: Dict[int, set] = {}
    used_as_dest: Dict[int, set] = {}
    colors: List[int] = []
    max_color = -1
    for src, dst, _ in frames:
        src_used = used_as_source.setdefault(src, set())
        dst_used = used_as_dest.setdefault(dst, set())
        color = 0
        while color in src_used or color in dst_used:
            color += 1
        colors.append(color)
        src_used.add(color)
        dst_used.add(color)
        max_color = max(max_color, color)
    return colors, max_color + 1


def demand_arrays(demand: Any) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(src, dst, count)`` int64 columns of a demand, sorted by pair.

    ``demand`` maps ``(src, dst)`` to a count, or is a ``(src, dst,
    count)`` triple of equal-length integer arrays naming each pair at
    most once."""
    if isinstance(demand, Mapping):
        keys = np.array(list(demand.keys()), dtype=np.int64).reshape(-1, 2)
        src, dst = keys[:, 0], keys[:, 1]
        count = np.fromiter(demand.values(), dtype=np.int64, count=len(demand))
    else:
        src, dst, count = (np.asarray(col, dtype=np.int64).reshape(-1) for col in demand)
        if not src.size == dst.size == count.size:
            raise ValueError("demand columns differ in length")
    order = np.lexsort((dst, src))
    src, dst, count = src[order], dst[order], count[order]
    if src.size > 1:
        same = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        if same.any():
            i = int(np.flatnonzero(same)[0])
            raise ValueError(f"demand names pair ({src[i]},{dst[i]}) twice")
    return src, dst, count


def build_schedule(demand: Any, n: int) -> RoutingSchedule:
    """Build the routing timetable for ``demand[(src, dst)] = #frames``
    (a mapping, or ``(src, dst, count)`` arrays — see
    :func:`demand_arrays`).

    Self-pairs are rejected (local data needs no routing); zero-count
    pairs are ignored.
    """
    src, dst, count = demand_arrays(demand)
    keep = count > 0
    src, dst, count = src[keep], dst[keep], count[keep]
    bad = (src == dst) | (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        if src[i] == dst[i]:
            raise ValueError("demand may not contain self-pairs")
        raise ValueError(f"demand pair ({src[i]},{dst[i]}) out of range")
    if not src.size:
        return RoutingSchedule(n=n, num_rounds=0)

    # The frame table, sorted by (src, dst, idx).
    total = int(count.sum())
    starts = np.zeros(count.size, dtype=np.int64)
    np.cumsum(count[:-1], out=starts[1:])
    frames = (
        np.repeat(src, count),
        np.repeat(dst, count),
        np.arange(total, dtype=np.int64) - np.repeat(starts, count),
    )
    max_multiplicity = int(count.max())
    # C ≥ Δ for every proper colouring, so two-phase takes at least
    # 2·⌈Δ/n⌉ rounds: within that, direct is certain (module docstring).
    degree = max(
        int(np.bincount(src, weights=count, minlength=n).max()),
        int(np.bincount(dst, weights=count, minlength=n).max()),
    )
    if max_multiplicity <= 2 * -(-degree // n) or n == 1:
        return _direct_schedule(frames, n, max_multiplicity)

    frame_list = list(zip(*(col.tolist() for col in frames)))
    colors, num_colors = _greedy_edge_coloring(frame_list)
    slots = -(-num_colors // n)  # ⌈C/n⌉
    if max_multiplicity <= 2 * slots:
        return _direct_schedule(frames, n, max_multiplicity)
    return _two_phase_schedule(frames, np.asarray(colors, dtype=np.int64), slots, n)


def _direct_schedule(frames, n: int, rounds: int) -> RoutingSchedule:
    """Round t ships frame t of every pair, straight to its destination."""
    src, dst, idx = frames
    order = np.argsort(idx, kind="stable")
    hops = (
        idx[order],
        order.astype(np.int64),
        src[order],
        dst[order],
        np.ones(order.size, dtype=bool),
    )
    return RoutingSchedule(n=n, num_rounds=rounds, frames=frames, hops=hops)


def _two_phase_schedule(frames, colors: np.ndarray, slots: int, n: int) -> RoutingSchedule:
    """Colour class c relays via node c mod n in slot ⌊c/n⌋ of each
    phase; a hop whose two ends coincide is skipped."""
    src, dst, _ = frames
    frame = np.arange(src.size, dtype=np.int64)
    middle = colors % n
    slot = colors // n
    first = middle != src
    second = middle != dst
    hop_round = np.concatenate((slot[first], slots + slot[second]))
    hop_frame = np.concatenate((frame[first], frame[second]))
    order = np.lexsort((hop_frame, hop_round))
    hops = (
        hop_round[order],
        hop_frame[order],
        np.concatenate((src[first], middle[second]))[order],
        np.concatenate((middle[first], dst[second]))[order],
        np.concatenate((middle[first] == dst[first], np.ones(int(second.sum()), dtype=bool)))[order],
    )
    return RoutingSchedule(n=n, num_rounds=2 * slots, frames=frames, hops=hops)
