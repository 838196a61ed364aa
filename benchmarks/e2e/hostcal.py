"""Host-speed calibration: gated times are wall-clock *relative to a probe*.

This host is a shared VM whose effective CPU speed moves by 15-40 % from one
minute to the next: ten runs of *identical* work (the dense ResNet-32 leg,
the serving bursts) spread by 0.14 and 0.38 of their median in raw seconds,
which no bound the benchmark may declare would hold.  What does repeat is a
measured interval divided by the duration of a fixed pure-NumPy kernel
sampled *during* that interval: the probe runs no ``repro`` code, so no
change to the program under test can move it, and it shares the interval's
core, cache and frequency state, so host speed cancels to first order.

That ratio is all that is gated.  It is printed in **calibrated seconds**,
``raw seconds / probe seconds * CAL_PROBE_S``, only so that the numbers read
like seconds.  Nothing else is taken out of a raw interval: kernel time and
page faults stay in, under the default allocator.  Raw seconds and the
measured probe are printed next to every calibrated number.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Definition of the unit, not a measurement: a calibrated second is the
#: time the probe takes to run 250 times.  Changing it would rescale every
#: gated metric, so it never changes.  (On the host of
#: ``baseline/BASELINE.json`` see ``host.probe_ms`` for how long the probe
#: really took, i.e. how many raw seconds a calibrated second was there.)
CAL_PROBE_S = 1.0 / 250


class HostClock:
    """Samples the probe and converts raw intervals to calibrated seconds.

    The probe mixes the two regimes the workloads live in: many small
    dispatch-bound NumPy calls (ResNet-32 at QUICK width) and one
    cache-resident GEMM (the wide VGG kernels).
    """

    #: back-to-back probes per sample (their median is the sample)
    PROBES_PER_TICK = 3
    #: a measured leg is sampled about this often (:meth:`due`): 3 probes of
    #: about 4 ms every 0.5 s add 2-3 % to a leg's run time, none to its wall
    PERIOD_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(12345)  # fixed: the probe is not an input
        self._a = rng.standard_normal((32, 6, 12, 12), dtype=np.float32)
        self._b = self._a.copy()
        self._w = rng.standard_normal((6, 6), dtype=np.float32)
        self._out = np.empty_like(self._a)
        self._g1 = rng.standard_normal((256, 576), dtype=np.float32)
        self._g2 = rng.standard_normal((576, 256), dtype=np.float32)
        #: one value per tick: median seconds of its back-to-back probes
        self.samples: List[float] = []
        #: total wall time spent inside :meth:`tick` (taken out of legs)
        self.overhead = 0.0
        self._last_tick = 0.0

    def _probe(self) -> float:
        a, b, out = self._a, self._b, self._out
        t0 = time.perf_counter()
        for _ in range(40):
            np.multiply(a, b, out=out)
            np.add(out, a, out=out)
            out.sum(axis=(0, 2, 3))
            np.maximum(out, 0, out=out)
            np.einsum("nchw,kc->nkhw", a, self._w)
        self._g1 @ self._g2
        return time.perf_counter() - t0

    def tick(self) -> float:
        """Take one calibration sample."""
        t0 = time.perf_counter()
        value = statistics.median(
            self._probe() for _ in range(self.PROBES_PER_TICK))
        t1 = time.perf_counter()
        self.samples.append(value)
        self.overhead += t1 - t0
        self._last_tick = t1
        return value

    def due(self) -> bool:
        """Whether the last sample is older than ``PERIOD_S``.  Asked after
        every training step, it spreads samples evenly over a leg's wall."""
        return time.perf_counter() - self._last_tick >= self.PERIOD_S


class Timed:
    """One measured interval: raw seconds, the probe during it, their ratio
    in calibrated seconds."""

    __slots__ = ("raw_s", "probe_s", "cal_s")

    def __init__(self, raw_s: float, probes: List[float]):
        self.raw_s = raw_s
        # Median, not mean: the probe's small calls are more sensitive to
        # sub-second bursts than the measured legs are.
        self.probe_s = statistics.median(probes)
        self.cal_s = raw_s / self.probe_s * CAL_PROBE_S


def timed(clock: HostClock, fn: Callable[[], object]) -> Tuple[object, Timed]:
    """Run ``fn()`` bracketed by calibration samples.

    The calibration uses the bracketing samples plus every sample that fired
    *inside* ``fn``; the time those inner probes took is the only thing
    taken out of the raw interval.
    """
    first = len(clock.samples)
    clock.tick()
    o0 = clock.overhead
    t0 = time.perf_counter()
    result = fn()
    raw = (time.perf_counter() - t0) - (clock.overhead - o0)
    clock.tick()
    return result, Timed(raw, clock.samples[first:])
