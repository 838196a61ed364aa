"""The arena solver against a frozen reference copy of its decision rule.

``_reference_solve`` is the best-fit loop exactly as it stood before the
solver kept sizes as plain ints and placed slabs as tuples, over slabs that
size themselves with ``np.prod`` on every read as that version's did.  It
is the oracle: :meth:`MemPlanner.solve` must reproduce every offset, the
arena and peak bytes and the alias count on generated slab sets, tie order
included, which the pinned arena layouts of real models cannot reach.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.memplan import ALIGN, MemPlanner


def _align(n: int) -> int:
    return (n + ALIGN - 1) // ALIGN * ALIGN


@dataclass
class _RefSlab:
    shape: tuple
    dtype: np.dtype
    start: int
    end: int
    alias_of: Optional["_RefSlab"] = None
    offset: int = -1

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * self.dtype.itemsize

    def root(self) -> "_RefSlab":
        s = self
        while s.alias_of is not None:
            s = s.alias_of
        return s


def _reference_slabs(requests) -> List[_RefSlab]:
    """The requests as ``MemPlanner.alloc`` records them (every slab is its
    own slot; an alias is honored onto a slab of identical shape/dtype)."""
    slabs: List[_RefSlab] = []
    for shape, dtype, start, end, alias in requests:
        slab = _RefSlab(tuple(shape), np.dtype(dtype), start, end)
        if alias is not None:
            target = slabs[alias]
            if target.shape == slab.shape and target.dtype == slab.dtype:
                slab.alias_of = target.root()
        slabs.append(slab)
    return slabs


def _reference_solve(slabs: List[_RefSlab]):
    """-> (arena_bytes, peak_bytes, alias_buffers); sets every offset."""
    alias_buffers = 0
    roots: List[_RefSlab] = []
    for s in slabs:
        if s.alias_of is not None:
            r = s.root()
            r.start = min(r.start, s.start)
            r.end = max(r.end, s.end)
            alias_buffers += 1
        else:
            roots.append(s)
    order = sorted(roots, key=lambda s: (-s.nbytes, s.start))
    placed: List[_RefSlab] = []
    arena_end = 0
    for s in order:
        if s.nbytes == 0:
            s.offset = 0
            continue
        need = _align(s.nbytes)
        live = sorted((p for p in placed
                       if p.start <= s.end and s.start <= p.end),
                      key=lambda p: p.offset)
        best = None      # (gap_slack, offset)
        cursor = 0
        for p in live:
            if p.offset > cursor:
                gap = p.offset - cursor
                if gap >= need and (best is None or gap - need < best[0]):
                    best = (gap - need, cursor)
            cursor = max(cursor, p.offset + _align(p.nbytes))
        s.offset = best[1] if best is not None else cursor
        placed.append(s)
        arena_end = max(arena_end, s.offset + _align(s.nbytes))
    return arena_end, _reference_peak(roots), alias_buffers


def _reference_peak(roots: List[_RefSlab]) -> int:
    events: Dict[int, int] = {}
    for s in roots:
        if s.nbytes == 0:
            continue
        events[s.start] = events.get(s.start, 0) + s.nbytes
        events[s.end + 1] = events.get(s.end + 1, 0) - s.nbytes
    peak = cur = 0
    for t in sorted(events):
        cur += events[t]
        peak = max(peak, cur)
    return peak


DTYPES = (np.float32, np.float64, np.uint8)


@st.composite
def slab_sets(draw):
    """``(shape, dtype, start, end, alias target or None)`` request lists.

    Few distinct shapes over a short timeline make equal sizes with equal
    starts common (the tie order); zero-element shapes, alias chains (mostly
    onto the previous request, some refused for a shape mismatch) and slabs
    alive over the whole timeline are drawn at chosen rates."""
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 200),
                       st.integers(400, 600)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    horizon = draw(st.integers(1, 2 * n + 2))
    n_shapes = draw(st.sampled_from([1, 3, 8, 64]))
    p_zero = draw(st.sampled_from([0.0, 0.05, 0.3]))
    p_alias = draw(st.sampled_from([0.0, 0.1, 0.4]))
    p_whole = draw(st.sampled_from([0.0, 0.05, 0.3]))
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(d) for d in rng.integers(1, 40,
                                                 size=rng.integers(1, 4)))
              for _ in range(n_shapes)]
    requests = []
    for i in range(n):
        start = int(rng.integers(0, horizon))
        end = start + int(rng.integers(0, horizon - start))
        if rng.random() < p_whole:
            start, end = 0, horizon - 1
        alias = None
        if i and rng.random() < p_alias:
            alias = i - 1 if rng.random() < 0.6 else int(rng.integers(0, i))
            shape, dtype = requests[alias][:2]
            if rng.random() < 0.1:          # refused: shape mismatch
                shape = shape + (2,)
        else:
            shape = shapes[int(rng.integers(0, n_shapes))]
            dtype = DTYPES[int(rng.integers(0, len(DTYPES)))]
            if rng.random() < p_zero:
                shape = shape[:-1] + (0,)
        requests.append((shape, dtype, start, end, alias))
    return requests


@settings(max_examples=40, deadline=None)
@given(slab_sets())
def test_solve_matches_the_reference_rule(requests):
    ref = _reference_slabs(requests)
    ref_arena, ref_peak, ref_aliases = _reference_solve(ref)

    mem = MemPlanner()
    for i, (shape, dtype, start, end, alias) in enumerate(requests):
        mem.alloc(shape, dtype, start, end, out_slot=i, alias_slot=alias)
    arena = mem.solve()

    assert [s.offset for s in mem.slabs] == [s.offset for s in ref]
    assert [s.alias_of is None for s in mem.slabs] == \
        [s.alias_of is None for s in ref]
    assert (arena, mem.arena_bytes, mem.peak_bytes, mem.alias_buffers) == \
        (ref_arena, ref_arena, ref_peak, ref_aliases)

    roots = [s for s in mem.slabs if s.alias_of is None and s.nbytes]
    for s in roots:
        assert s.offset % ALIGN == 0
        assert s.offset + s.nbytes <= arena
    for i, a in enumerate(roots):
        for b in roots[i + 1:]:
            if a.start <= b.end and b.start <= a.end:
                assert (a.offset + a.nbytes <= b.offset
                        or b.offset + b.nbytes <= a.offset), (a, b)
