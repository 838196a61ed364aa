"""Multi-model serving registry: checkpoints in, hot forward plans out.

A :class:`ModelRegistry` owns every served model.  Each registered model
gets a :class:`ServedModel` wrapper holding its own forward-plan cache —
a ``PlanCache`` over that model, which follows the compiled-step protocol
of docs/ARCHITECTURE.md ("Trainer wiring") — and one memplan arena per
cached plan shape.  Plan validity is per model, so loading or
reconfiguring model B never touches model A's hot plans.  A served model
is frozen after registration; a weight change goes through
re-registration, which builds a fresh wrapper (and cache) and releases
the old one.

The served model is **folded**: registration folds every evaluation-mode
batch-norm into the conv in front of it, once
(:func:`repro.nn.bn_utils.fold_batchnorm`), so no request pays for BN.
:meth:`ModelRegistry.register` folds the model it loaded from the
checkpoint; :meth:`ModelRegistry.register_model` folds a copy and leaves
the caller's model untouched.  :attr:`ServedModel.model` is that folded
model — the subject of the serving contract below.  Its logits equal the
unfolded model's up to float32 rounding of the fold, not bitwise.

Request path (:meth:`ServedModel.forward`), in preference order: an
**exact** cached plan replays; else the group is zero-**padded**
(``BatchPadder``) up to the smallest cached batch ``B >= n`` no larger
than ``_PAD_MAX_RATIO · n`` and the first ``n`` rows are returned; else the
protocol's miss captures a row-stable **tail** plan for this shape, or its
sealed failure runs **eager rows** (one batch-1 forward per sample).

Every path preserves the serving invariant: each request's logits are
bit-identical to a batch-1 eager forward of that request alone through the
served (folded) model, because serve plans use the row-stable Linear
lowering (see ``Tape.finalize``) and all remaining ops are
per-sample stable.

Eviction is lease-counted: ``run`` holds a lease around the forward, and
an evicted entry's plan buffers and arenas are released by whichever of
``evict``/lease-drain runs last — deterministic (refcount, not GC), so
``memplan.live_arena_count()`` drops the moment the last in-flight batch
completes.
"""
from __future__ import annotations

import copy
import threading
from typing import Callable, Dict, List, Optional

import numpy as np

from ..io.checkpoint import load_checkpoint
from ..nn.bn_utils import fold_batchnorm
from ..tensor.compile import PlanCache, capture_forward
from ..tensor.tensor import Tensor, no_grad

__all__ = ["RegistryError", "ServedModel", "ModelRegistry"]

#: Largest cached batch a request group of ``n`` is padded up to, over ``n``.
_PAD_MAX_RATIO = 4.0


class RegistryError(RuntimeError):
    """Registration or dispatch failure (unknown model, bad checkpoint)."""


class BatchPadder:
    """Reusable zero-padded staging buffer for one (batch, sample) shape.

    A served model replays a cached plan of batch ``B`` on ``n <= B``
    requests by staging them into this buffer; rows ``[n:B)`` are zeros.
    Under the row-stable plan contract pad rows cannot perturb real rows,
    but they are still re-zeroed after a larger previous stage so replay
    inputs are a pure function of the current request group.
    """

    def __init__(self, batch: int, sample_shape: tuple, dtype):
        self.batch = int(batch)
        self.sample_shape = tuple(sample_shape)
        self.buf = np.zeros((self.batch,) + self.sample_shape,
                            dtype=np.dtype(dtype))
        self._dirty = 0

    def stage(self, x: np.ndarray) -> np.ndarray:
        """Copy ``x`` (``n <= batch`` samples) in; return the full buffer."""
        n = x.shape[0]
        if n > self.batch:
            raise ValueError(f"group of {n} exceeds padder batch {self.batch}")
        if tuple(x.shape[1:]) != self.sample_shape:
            raise ValueError(f"sample shape {x.shape[1:]} != "
                             f"{self.sample_shape}")
        self.buf[:n] = x
        if self._dirty > n:
            self.buf[n:self._dirty] = 0
        self._dirty = n
        return self.buf


class ServedModel:
    """One frozen model plus its plan cache and batch padders.

    Takes ``model`` over: puts it in evaluation mode and folds its
    batch-norms into their convs, in place.
    """

    def __init__(self, name: str, model):
        model.eval()
        fold_batchnorm(model)
        self.name = name
        self.model = model
        self.plans = PlanCache(model)
        self._padders: Dict[tuple, BatchPadder] = {}
        self._lock = threading.RLock()
        self.exact_replays = 0
        self.padded_replays = 0
        self.captures = 0
        self.capture_failures = 0
        self.eager_rows = 0
        self.padded_rows = 0

    # -- forward -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Serve one request group ``x`` of shape ``(n, *sample)``.

        Returns an ``(n, classes)`` logits array owned by the caller.
        """
        if x.ndim < 2:
            raise ValueError("forward expects a batched input (n, *sample)")
        n = x.shape[0]
        sshape = tuple(x.shape[1:])
        dstr = x.dtype.str
        with self._lock:
            key = (n, sshape, dstr)
            plan = self.plans.lookup(key)
            if plan is not None:
                self.exact_replays += 1
                return np.array(plan.run_forward(x), copy=True)
            if self.plans.sealed(key):
                return self._eager_rows(x)
            padded = self._forward_padded(x, n, sshape, dstr)
            if padded is not None:
                return padded
            return self._forward_capture(x, key)

    def _forward_padded(self, x: np.ndarray, n: int, sshape: tuple,
                        dstr: str) -> Optional[np.ndarray]:
        """Replay the smallest cached larger-batch plan over a padded view."""
        best: Optional[tuple] = None
        limit = max(n, 1) * _PAD_MAX_RATIO
        for bkey in self.plans.keys():
            b, ss, ds = bkey
            if ss != sshape or ds != dstr or b < n or b > limit:
                continue
            if best is not None and b >= best[0]:
                continue
            plan = self.plans.lookup(bkey)
            if plan is not None:
                best = (b, plan)
        if best is None:
            return None
        b, plan = best
        pkey = (b, sshape, dstr)
        padder = self._padders.get(pkey)
        if padder is None:
            padder = self._padders[pkey] = BatchPadder(b, sshape, x.dtype)
        out = plan.run_forward(padder.stage(x))
        self.padded_replays += 1
        self.padded_rows += b - n
        return np.array(out[:n], copy=True)

    def _forward_capture(self, x: np.ndarray, key: tuple) -> np.ndarray:
        """Compile a tail-shape plan on demand (or seal the failure)."""
        plan, _, reason = capture_forward(self.model, x, row_stable=True)
        self.plans.store(key, plan, reason)
        if plan is None:
            self.capture_failures += 1
            return self._eager_rows(x)
        self.captures += 1
        # The capture pass's own logits use the standard batched lowering;
        # replay through the row-stable thunks for the serving contract.
        return np.array(plan.run_forward(x), copy=True)

    def _eager_rows(self, x: np.ndarray) -> np.ndarray:
        """Contract-preserving fallback: one eager batch-1 forward per row."""
        rows: List[np.ndarray] = []
        with no_grad():
            for i in range(x.shape[0]):
                rows.append(np.array(self.model(Tensor(x[i:i + 1])).data[0],
                                     copy=True))
        self.eager_rows += x.shape[0]
        return np.stack(rows)

    # -- lifecycle ---------------------------------------------------------
    def warm(self, batch: int, sample_shape: tuple,
             dtype=np.float32) -> bool:
        """Pre-compile the plan for one batch shape (zeros input); returns
        whether a plan is now cached for it."""
        x = np.zeros((batch,) + tuple(sample_shape), dtype=np.dtype(dtype))
        with self._lock:
            key = (batch, tuple(sample_shape), x.dtype.str)
            if self.plans.lookup(key) is None:
                self._forward_capture(x, key)
            return self.plans.lookup(key) is not None

    def release(self) -> None:
        """Free every cached plan's buffers and arenas (evict path)."""
        with self._lock:
            self.plans.clear()
            self._padders.clear()

    def stats(self) -> Dict[str, int]:
        return {"exact_replays": self.exact_replays,
                "padded_replays": self.padded_replays,
                "captures": self.captures,
                "capture_failures": self.capture_failures,
                "eager_rows": self.eager_rows,
                "padded_rows": self.padded_rows,
                "cached_plans": len(self.plans)}


class _Entry:
    __slots__ = ("name", "served", "path", "leases", "evicted")

    def __init__(self, name: str, served: ServedModel, path: Optional[str]):
        self.name = name
        self.served = served
        self.path = path
        self.leases = 0
        self.evicted = False


class ModelRegistry:
    """LRU-bounded set of served models keyed by name."""

    def __init__(self, max_models: int = 4):
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self.max_models = max_models
        #: insertion order == LRU order (dict preserves it; run() refreshes)
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self.evictions = 0

    # -- registration ------------------------------------------------------
    def register(self, name: str, path: str,
                 model_factory: Callable[[], object]) -> ServedModel:
        """Load a checkpoint and serve it as ``name``.

        The checkpoint is fully loaded *before* the registry mutates: a
        corrupt or truncated file raises :class:`RegistryError` and leaves
        the registry exactly as it was (no partial registration).
        """
        try:
            model, _, _ = load_checkpoint(path, model_factory,
                                          with_optimizer=False)
        except Exception as e:
            raise RegistryError(
                f"failed to load checkpoint {path!r} for model "
                f"{name!r}: {e}") from e
        return self._install(name, model, path=path)

    def register_model(self, name: str, model) -> ServedModel:
        """Serve a folded copy of an already-constructed model.

        The caller's ``model`` is left untouched (weights, statistics,
        mode), so it can keep training or be evaluated; the registry serves
        ``served(name).model``, a deep copy with its batch-norms folded.
        """
        return self._install(name, copy.deepcopy(model), path=None)

    def _install(self, name: str, model, path: Optional[str]) -> ServedModel:
        with self._lock:
            if name in self._entries:
                self.evict(name)
            served = ServedModel(name, model)
            self._entries[name] = _Entry(name, served, path)
            while len(self._entries) > self.max_models:
                coldest = next(k for k in self._entries if k != name)
                self.evict(coldest)
                self.evictions += 1
            return served

    # -- dispatch ----------------------------------------------------------
    def run(self, name: str, x: np.ndarray) -> np.ndarray:
        """Forward one request group through model ``name``.

        Holds an eviction lease for the duration: evicting ``name`` while
        a batch is in flight defers the buffer release until this call
        returns, then frees deterministically.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise RegistryError(f"unknown model {name!r}")
            # refresh LRU position
            self._entries.pop(name)
            self._entries[name] = entry
            entry.leases += 1
        try:
            return entry.served.forward(x)
        finally:
            with self._lock:
                entry.leases -= 1
                if entry.evicted and entry.leases == 0:
                    entry.served.release()

    def served(self, name: str) -> ServedModel:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise RegistryError(f"unknown model {name!r}")
            return entry.served

    def models(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    # -- eviction ----------------------------------------------------------
    def evict(self, name: str) -> None:
        """Remove ``name``; buffers free once in-flight batches drain."""
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                raise RegistryError(f"unknown model {name!r}")
            entry.evicted = True
            if entry.leases == 0:
                entry.served.release()

    def clear(self) -> None:
        with self._lock:
            for name in list(self._entries):
                self.evict(name)
