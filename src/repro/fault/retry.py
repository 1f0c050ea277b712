"""Retry policy for transient I/O: bounded attempts, exponential backoff.

All waiting happens on the **virtual clock** (``clock.advance_wall``), so
backoff is visible to the progress indicator exactly the way a stalled
disk would be: the speed monitor records the dip, the estimate adjusts,
and nothing reads the host's wall clock (lint rule REPRO110).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FaultConfigError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient storage faults.

    ``max_attempts`` counts *total* tries of one operation, the original
    attempt included: with the default of 4, a transient fault is retried
    up to 3 times before the disk gives up and lets the error propagate.
    """

    #: Total attempts per operation, the first one included.
    max_attempts: int = 4
    #: Virtual seconds waited before the first retry.
    backoff_base: float = 0.05
    #: Multiplier applied to the wait per additional retry.
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultConfigError("max_attempts must be at least 1")
        if self.backoff_base < 0:
            raise FaultConfigError("backoff_base must be non-negative")
        if self.backoff_factor < 1.0:
            raise FaultConfigError("backoff_factor must be >= 1")

    def backoff(self, retry_number: int) -> float:
        """Virtual seconds to wait before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise FaultConfigError("retry_number is 1-based")
        return self.backoff_base * self.backoff_factor ** (retry_number - 1)

    @property
    def max_retries(self) -> int:
        """Retries available after the original attempt."""
        return self.max_attempts - 1
