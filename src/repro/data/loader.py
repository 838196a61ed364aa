"""Mini-batch loader with deterministic shuffling and on-the-fly batch resize.

The loader's batch size is *mutable between epochs* — this is the hook
PruneTrain's dynamic mini-batch adjustment (Sec. 4.3) uses: after a pruning
reconfiguration frees training memory, ``set_batch_size`` grows the batch
(and the trainer rescales the learning rate by the same ratio).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from .augment import Augmenter
from .synthetic import Dataset


class DataLoader:
    """Iterates ``(x, y)`` mini-batches over a :class:`Dataset`; the last
    batch of an epoch holds the remainder."""

    def __init__(self, dataset: Dataset, batch_size: int,
                 shuffle: bool = True, seed: int = 0,
                 augment: Optional[Augmenter] = None):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.augment = augment
        self._rng = np.random.default_rng(seed)
        self._epoch = 0

    def set_batch_size(self, batch_size: int) -> None:
        """Change the mini-batch size (takes effect next epoch iteration)."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = int(batch_size)

    # -- exact-resume state (checkpoint format v2) -------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the loader's mutable run state.

        Captures the batch size, the epoch counter, and the **full RNG
        stream state** (``bit_generator.state``).  The same generator drives
        both shuffling and the :class:`~repro.data.augment.Augmenter`, so
        restoring it makes a resumed run consume the identical
        shuffle/augmentation stream an uninterrupted run would have.
        """
        return {"batch_size": self.batch_size,
                "epoch": self._epoch,
                "rng_state": self._rng.bit_generator.state}

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self.set_batch_size(int(state["batch_size"]))
        self._epoch = int(state["epoch"])
        self._rng.bit_generator.state = state["rng_state"]

    def batches_per_epoch(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __len__(self) -> int:
        return self.batches_per_epoch()

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        idx = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(idx)
        self._epoch += 1
        for start in range(0, n, self.batch_size):
            sel = idx[start:start + self.batch_size]
            xb = self.dataset.x[sel]
            yb = self.dataset.y[sel]
            if self.augment is not None:
                xb = self.augment(xb, self._rng)
            yield xb, yb
