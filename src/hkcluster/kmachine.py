"""Round-cost estimates for running a message-passing protocol on k
interconnected machines instead of one machine per node.

Given a protocol's measured message complexity M, communication degree
complexity C, and round count T, the conversion bound (polylog factors
dropped, as noted in every report) is

    rounds(k) = M / k**2 + T * C / k,   k >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .congest import RoundStats

__all__ = ["CostMeasurement", "kmachine_round_bound", "kmachine_table"]


@dataclass(frozen=True)
class CostMeasurement:
    total_messages: int
    max_node_messages: int
    rounds: int

    def __post_init__(self):
        if min(self.total_messages, self.max_node_messages, self.rounds) < 0:
            raise ValueError("complexities must be nonnegative")
        if self.max_node_messages > self.total_messages:
            raise ValueError("per-node message count cannot exceed the total")

    @staticmethod
    def from_stats(stats: RoundStats) -> "CostMeasurement":
        return CostMeasurement(
            total_messages=stats.total_messages,
            max_node_messages=stats.max_node_messages,
            rounds=stats.rounds,
        )


def kmachine_round_bound(meas: CostMeasurement, k: int) -> float:
    """M/k^2 + T*C/k; strictly decreasing in k for a fixed measurement."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return meas.total_messages / k**2 + meas.rounds * meas.max_node_messages / k


def kmachine_table(
    meas: CostMeasurement, k_grid: list[int]
) -> list[tuple[int, float, str]]:
    """(k, bound, dominating term) rows over the given machine counts."""
    if any(k < 2 for k in k_grid):
        raise ValueError("k must be at least 2")
    rows = []
    for k in k_grid:
        message_term = meas.total_messages / k**2
        degree_term = meas.rounds * meas.max_node_messages / k
        if message_term > degree_term:
            dominant = "message-volume"
        elif degree_term > message_term:
            dominant = "rounds-x-degree"
        else:
            dominant = "balanced"
        rows.append((k, message_term + degree_term, dominant))
    return rows
