"""Cheap vectorized data augmentation (flip + shift, the CIFAR standard)."""

from __future__ import annotations

import numpy as np


class Augmenter:
    """Random horizontal flip and random shift.

    Fully vectorized: the flip is a masked slice-reverse; the shift applies a
    single ``np.roll`` per sampled offset group.  Each call draws
    ``rng.random(n)`` for the flip, then ``rng.integers(..., size=(n, 2))``
    for the shift, so a resumed loader replays the same stream.
    """

    def __init__(self, flip: bool = True, max_shift: int = 2):
        self.flip = flip
        self.max_shift = max_shift

    def __call__(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        x = x.copy()
        n = x.shape[0]
        if self.flip:
            mask = rng.random(n) < 0.5
            x[mask] = x[mask, :, :, ::-1]
        if self.max_shift > 0:
            shifts = rng.integers(-self.max_shift, self.max_shift + 1,
                                  size=(n, 2))
            # group samples by identical shift so each group is one roll
            for (dy, dx) in np.unique(shifts, axis=0):
                if dy == 0 and dx == 0:
                    continue
                sel = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
                x[sel] = np.roll(x[sel], (int(dy), int(dx)), axis=(2, 3))
        return x
