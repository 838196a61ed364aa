"""Shared plumbing of the end-to-end benchmark: run context, seeds, gates."""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from contextlib import contextmanager
from typing import Dict, Iterable, List, Tuple

import numpy as np

from hostcal import HostClock

Metric = Tuple[float, str]


class Ctx:
    """Everything one workload run needs; created once per process."""

    def __init__(self, seed: int, seconds: float, smoke: bool, traced: bool,
                 scratch: str):
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.traced = traced
        self.scratch = scratch
        self.clock = HostClock()
        #: every metric this run produced: name -> (value, unit)
        self.metrics: Dict[str, Metric] = {}
        #: correctness gates: name -> passed
        self.gates: Dict[str, bool] = {}
        #: operations attempted / failed (steps, requests)
        self.attempted = 0
        self.failed = 0
        #: bit-exactness digests of the legs: label -> sha256 hex
        self.digests: Dict[str, str] = {}
        #: Chrome-trace payloads of the traced legs: label -> dict
        self.traces: Dict[str, dict] = {}
        self._dirs = 0

    def subseed(self, label: str) -> int:
        """Independent 31-bit seed for one input stream of this run."""
        ss = np.random.SeedSequence([self.seed, zlib.crc32(label.encode())])
        return int(ss.generate_state(1)[0] & 0x7FFFFFFF)

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.scratch, f"{self._dirs:03d}-{label}")
        os.makedirs(path)
        return path

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def gate(self, name: str, passed: bool) -> None:
        self.gates[name] = bool(passed) and self.gates.get(name, True)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


@contextmanager
def env(name: str, value: str):
    """Temporarily set one of the program's public ``REPRO_*`` switches."""
    saved = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if saved is None:
            del os.environ[name]
        else:
            os.environ[name] = saved


def sparsify(model, frac: float, seed: int) -> None:
    """Push a seeded random ``frac`` of every prunable channel space below
    the pruning threshold (the surgery idiom of ``tests/``: a genuinely
    prunable model without training)."""
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < frac
        kill[0] = False
        for node in g.writers(sid):
            node.conv.weight.data[kill] *= 1e-9
        for node in g.readers(sid):
            node.conv.weight.data[:, kill] *= 1e-9


def run_digest(losses: Iterable[float], state: Dict[str, np.ndarray]) -> str:
    """Digest of per-epoch losses + final parameters/buffers (bit-exact)."""
    h = hashlib.sha256()
    for loss in losses:
        h.update(struct.pack("<d", float(loss)))
    for key in sorted(state):
        h.update(key.encode())
        h.update(np.ascontiguousarray(state[key]).tobytes())
    return h.hexdigest()


def states_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and np.array_equal(a[k], b[k]) for k in a)


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
