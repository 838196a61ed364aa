"""Per-replay call counts of compiled plans: the fixed work a step pays
whatever its batch.

    PYTHONPATH=src python tests/floor.py

prints one line per case::

    <case> python=<calls> c=<calls>

counted over one replay after a warm one: Python-level function calls and
C-level (builtin and NumPy) calls as ``sys.setprofile`` reports them.
Cases:

``train/r32-n{1,32}``
    the QUICK ResNet-32 training plan (``StepPlan.run``) at N = 1 and 32.
``train/vgg11-w0.25-n32``
    the QUICK VGG-11 at width 0.25 training plan at N = 32.
``serve/r32-folded-n{1,8}``
    the row-stable forward plan (``StepPlan.run_forward``) of the QUICK
    ResNet-32 in evaluation mode with batch-norm folded into its convs, as
    the serving registry captures it, at N = 1 and 8.

Counts depend on the code, not on the host or the timing, so a diff between
two trees is a change in per-step dispatch.  Only surfaces that outlive a
refactor are used, so this copy runs against any tree:
``PYTHONPATH=<tree>/src python tests/floor.py``.
"""

import sys
from dataclasses import replace

import numpy as np

from repro.experiments.configs import QUICK, make_model
from repro.nn.bn_utils import fold_batchnorm
from repro.tensor import compile as C
from repro.tensor import workspace


def count(replay, prepare=lambda: None):
    """``(python, c)`` calls of one ``replay()`` after a warm one, each after
    an uncounted ``prepare()``."""
    prepare()
    replay()
    prepare()
    counts = [0, 0]

    def profile(frame, event, arg):
        if event == "call":
            counts[0] += 1
        elif event == "c_call":
            counts[1] += 1

    sys.setprofile(profile)
    try:
        replay()
    finally:
        sys.setprofile(None)
    return tuple(counts)


def _batch(n, hw=QUICK.hw):
    rng = np.random.default_rng(0)
    return (rng.standard_normal((n, 3, hw, hw)).astype(np.float32),
            rng.integers(0, 10, size=n))


def _train(model, n):
    x, y = _batch(n)
    plan, loss, _, reason = C.capture_training_step(model, x, y)
    if plan is None:
        raise RuntimeError(f"capture failed: {reason}")
    loss.backward()
    return lambda: plan.run(x, y), model.zero_grad


def _serve(model, n):
    x, _ = _batch(n)
    plan, _, reason = C.capture_forward(model, x, row_stable=True)
    if plan is None:
        raise RuntimeError(f"capture failed: {reason}")
    return (lambda: plan.run_forward(x),)


def _folded_r32():
    model = make_model("resnet32", "cifar10s", QUICK, seed=0)
    model.eval()
    fold_batchnorm(model)
    return model


CASES = {
    "train/r32-n1": lambda: _train(
        make_model("resnet32", "cifar10s", QUICK, seed=0), 1),
    "train/r32-n32": lambda: _train(
        make_model("resnet32", "cifar10s", QUICK, seed=0), 32),
    "train/vgg11-w0.25-n32": lambda: _train(make_model(
        "vgg11", "cifar10s", replace(QUICK, width_mult=0.25), seed=0), 32),
    "serve/r32-folded-n1": lambda: _serve(_folded_r32(), 1),
    "serve/r32-folded-n8": lambda: _serve(_folded_r32(), 8),
}


def lines(cases=tuple(CASES)):
    """``(case, python calls, C calls)`` per named case, in order."""
    for name in cases:
        workspace.invalidate()
        yield (name, *count(*CASES[name]()))


if __name__ == "__main__":
    for name, py, c in lines(sys.argv[1:] or tuple(CASES)):
        print(f"{name} python={py} c={c}")
