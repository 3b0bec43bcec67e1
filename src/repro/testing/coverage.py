"""Fault-coverage accounting helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class CoverageSummary:
    """Coverage numbers for one fault population."""

    total: int
    detected: int

    @property
    def fraction(self) -> float:
        """Detected fraction in [0, 1]; NaN for an empty population."""
        if self.total == 0:
            return float("nan")
        return self.detected / self.total

    @property
    def percent(self) -> float:
        """Detected fraction as a percentage."""
        return 100.0 * self.fraction

    def __str__(self) -> str:
        return f"{self.detected}/{self.total} ({self.percent:.1f} %)"


def coverage(outcomes: Iterable[bool]) -> CoverageSummary:
    """Summarise an iterable of detected flags."""
    outcomes = list(outcomes)
    return CoverageSummary(total=len(outcomes), detected=sum(outcomes))

