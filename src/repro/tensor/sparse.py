"""No-op names kept for ``benchmarks/e2e`` until ROADMAP 1(a).

The benchmark's configuration ladder publishes dead-channel sets before its
``sparse`` rung and clears them afterwards.  PruneTrain removes zeroed
channels by reconfiguring the model into a smaller dense one (Sec. 4.2), so
nothing consumes the sets: both calls do nothing.
"""

from __future__ import annotations


def publish(entries) -> None:
    """Kept for benchmarks/e2e until ROADMAP 1(a): does nothing."""


def clear() -> None:
    """Kept for benchmarks/e2e until ROADMAP 1(a): does nothing."""
