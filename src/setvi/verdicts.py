"""Tri-state verdicts with resolution stamps.

Sampled checks cannot certify statements about continua, so every verdict
records the resolution it was computed at (grids, radii, sample sizes) and
borderline comparisons inside the strictness band come out UNDETERMINED
rather than being rounded to a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Verdict(Enum):
    HOLDS = "HOLDS"
    FAILS = "FAILS"
    UNDETERMINED = "UNDETERMINED"


_RANK = {Verdict.HOLDS: 0, Verdict.UNDETERMINED: 1, Verdict.FAILS: 2}


def worst(*verdicts: Verdict) -> Verdict:
    """FAILS dominates UNDETERMINED dominates HOLDS; ties keep the first."""
    return max(verdicts, key=_RANK.__getitem__)


@dataclass(eq=False)
class CheckResult:
    verdict: Verdict
    witness: dict | None = None
    resolution: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"verdict": self.verdict.value, "resolution": self.resolution}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out
