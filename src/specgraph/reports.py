"""Uniform pass/fail records for numerical verification checks."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .graph import WeightedGraph, _integer, graph_to_json

__all__ = ["CheckReport", "graph_fingerprint"]


def graph_fingerprint(graph: WeightedGraph, seed: int | None = None) -> str:
    """Short stable identifier of a graph (plus the integer seed that made it)."""
    digest = hashlib.md5(graph_to_json(graph).encode()).hexdigest()[:12]
    return digest if seed is None else f"{digest}:{_integer(seed, 'seed')}"


@dataclass(frozen=True)
class CheckReport:
    """One verified relation: ``passed`` iff ``slack >= -tolerance``.

    For a one-sided relation ``lhs <= rhs`` the slack is ``rhs - lhs``; for a
    two-sided identity it is ``-|lhs - rhs|``.  Either way a failure is a
    negative slack beyond the stated tolerance.
    """

    check_id: str
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool
    fingerprint: str

    @classmethod
    def inequality(
        cls, check_id: str, lhs: float, rhs: float, tolerance: float, fingerprint: str
    ) -> "CheckReport":
        slack = rhs - lhs
        return cls(check_id, lhs, rhs, slack, tolerance, slack >= -tolerance, fingerprint)

    @classmethod
    def identity(
        cls, check_id: str, lhs: float, rhs: float, tolerance: float, fingerprint: str
    ) -> "CheckReport":
        slack = -abs(lhs - rhs)
        return cls(check_id, lhs, rhs, slack, tolerance, slack >= -tolerance, fingerprint)

    def to_payload(self) -> dict:
        return {
            "check": self.check_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "fingerprint": self.fingerprint,
        }
