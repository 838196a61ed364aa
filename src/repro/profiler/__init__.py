"""Op-level profiler for the NumPy training engine.

Records per-op wall time, call counts, and bytes allocated, with near-zero
cost when disabled (a single attribute check per instrumented op).  The
functional layer (``repro.tensor.functional``) and the optimizer instrument
themselves; the trainer exposes a ``profile`` config flag that snapshots the
counters into every epoch's log record.

Usage::

    from repro.profiler import PROFILER

    PROFILER.enable()
    ...train...
    print(PROFILER.report())

or scoped::

    with PROFILER.session():
        ...train...

The ``bytes`` column counts the output arrays each op materializes; together
with the workspace-pool hit/miss statistics (merged into :meth:`summary`)
it shows how much of the engine's traffic the buffer pool absorbs.

Engine counters
---------------
Each engine module keeps one process-wide :class:`Counters` dataclass and
hands it to :func:`register` at import under its summary key
(``_workspace``, ``_plans``, ``_memplan``, ``_parallel``, ``_comm``,
``_sparse``); :meth:`OpProfiler.summary` reports every registered set beside
the op rows.
:meth:`OpProfiler.reset` clears the op rows only — the counters are
run-cumulative until their own ``reset()``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional, TypeVar

__all__ = ["OpProfiler", "OpStat", "PROFILER", "Counters", "COUNTERS",
           "register"]


class Counters:
    """Mixin for a ``@dataclass`` of engine counters: the fields *are* the
    counters.  :meth:`reset` puts every field back to its declared default;
    :meth:`as_dict` reports the fields merged with :meth:`derived`."""

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, f.default if f.default_factory is MISSING
                    else f.default_factory())

    def derived(self) -> Dict[str, object]:
        """Computed entries :meth:`as_dict` adds to (or puts over) the
        fields; none by default."""
        return {}

    def as_dict(self) -> Dict[str, object]:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(self.derived())
        return out


#: Summary key -> the process-wide counter set reported under it.
COUNTERS: Dict[str, Counters] = {}

_C = TypeVar("_C", bound=Counters)


def register(key: str, counters: _C) -> _C:
    """Report ``counters`` as ``PROFILER.summary()[key]``; returns it."""
    COUNTERS[key] = counters
    return counters


@dataclass
class OpStat(Counters):
    """Accumulated statistics for one op name."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0


class OpProfiler:
    """Aggregating wall-time / bytes profiler with a context-manager API.

    Disabled by default; every instrumentation site guards on
    ``PROFILER.enabled`` so the disabled cost is one attribute lookup.
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self._stats: Dict[str, OpStat] = {}

    # -- switches ----------------------------------------------------------
    def enable(self, reset: bool = True) -> None:
        if reset:
            self.reset()
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._stats = {}

    @contextmanager
    def session(self, reset: bool = True):
        """Enable for the duration of a ``with`` block."""
        prev = self.enabled
        self.enable(reset=reset)
        try:
            yield self
        finally:
            self.enabled = prev

    # -- recording ---------------------------------------------------------
    def add(self, name: str, seconds: float, nbytes: int = 0) -> None:
        """Record one completed op invocation (call under an enabled guard)."""
        st = self._stats.get(name)
        if st is None:
            st = self._stats[name] = OpStat()
        st.calls += 1
        st.seconds += seconds
        st.bytes += nbytes

    # -- reporting ---------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-op stats plus every registered engine counter set."""
        out = {name: st.as_dict() for name, st in self._stats.items()}
        out.update((key, c.as_dict()) for key, c in COUNTERS.items())
        return out

    def total_seconds(self) -> float:
        return sum(st.seconds for st in self._stats.values())

    def report(self, top: Optional[int] = None) -> str:
        """Human-readable table sorted by total time."""
        rows = sorted(self._stats.items(), key=lambda kv: -kv[1].seconds)
        if top is not None:
            rows = rows[:top]
        lines = [f"{'op':<24}{'calls':>8}{'total ms':>12}"
                 f"{'ms/call':>10}{'MB':>10}"]
        for name, st in rows:
            per = st.seconds / st.calls * 1e3 if st.calls else 0.0
            lines.append(f"{name:<24}{st.calls:>8}{st.seconds * 1e3:>12.2f}"
                         f"{per:>10.3f}{st.bytes / 1e6:>10.1f}")
        return "\n".join(lines)


#: Process-wide profiler instance used by all instrumentation sites.
PROFILER = OpProfiler()
