"""Sample statistics and operation outcomes for the benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
PERCENTILES = (0.5, 0.9, 0.99, 0.999)


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return math.ceil(round(q * n, 9))  # round first: 0.9 * 100 must give 90, not 91


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of `samples`.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond it, so
    p90 needs at least 100 samples and p50 at least 20.
    """
    n = len(samples)
    rank = _rank(q, n)
    if n == 0 or n - rank < MIN_BEYOND:
        needed = math.ceil(round(MIN_BEYOND / (1.0 - q), 9))
        raise ValueError(f"p{q * 100:g} needs at least {needed} samples, got {n}")
    return sorted(samples)[rank - 1]


def highest_percentile(samples) -> float | None:
    """The highest of PERCENTILES with MIN_BEYOND samples beyond it, or None."""
    n = len(samples)
    supported = [q for q in PERCENTILES if n - _rank(q, n) >= MIN_BEYOND]
    return supported[-1] if supported else None


@dataclass
class Outcomes:
    """Operations attempted and failed.

    An operation fails when it raises or returns exit code 2. Exit code 1
    is the legibility gate, a valid outcome, and is not a failure.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def call(self, op, *args) -> int | None:
        self.attempted += 1
        try:
            code = op(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        if code == 2:
            self.failed += 1
            self.errors.append("exit code 2")
        return code

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
