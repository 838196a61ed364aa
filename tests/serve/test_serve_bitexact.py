"""Differential tests: served logits vs eager forward vs eval plan.

The serving contract (row-stable forward plans, see
``Tape.finalize``) guarantees every served request's logits are
**bit-identical** to a batch-1 eager forward of that request alone —
single request, padded batch, and on-demand tail-shape batch alike, for
dense and pruned checkpoints, at every CPU-tractable Scale.

Against ``evaluate()``'s compiled forward plan (``forward_step`` over the
trainer's eval plans, standard batched GEMM lowering) the comparison is
bitwise at batch 1 and allclose + identical argmax at larger batches:
2-D GEMM *rows* are not bit-stable across the batch dimension (BLAS
blocks/kernels change with M), which is exactly why serve plans lower the
final Linear per sample.  Demanding bitwise equality between the two
lowerings at batch > 1 would pin a property BLAS does not provide.
"""

import numpy as np
import pytest

from repro.data import make_synthetic
from repro.experiments.configs import QUICK, SMOKE, make_model
from repro.io import save_checkpoint
from repro.nn.resnet import ResNet
from repro.prune import prune_and_reconfigure
from repro.serve import InferenceServer, ModelRegistry
from repro.tensor import Tensor, no_grad
from repro.tensor.compile import StepPlan, capture_forward, forward_step
from repro.train import Trainer, TrainerConfig

from ..conftest import UNRECORDED, sparsify_space, uncapturable

#: PAPER is excluded by repo convention (documented GPU-scale; see configs).
SCALES = [pytest.param(SMOKE, id="smoke"), pytest.param(QUICK, id="quick")]
VARIANTS = ["dense", "pruned"]


def _sparsify(model, frac=0.5, seed=0):
    rng = np.random.default_rng(seed)
    g = model.graph
    for sid, sp in g.spaces.items():
        if sp.frozen:
            continue
        kill = rng.random(sp.size) < frac
        kill[0] = False
        sparsify_space(g, sid, kill)


def _checkpointed_model(scale, variant, tmp_path, wrap=lambda m: m):
    """Build (and for 'pruned': surgically compress) a model, round-trip it
    through the repro.io checkpoint format, and register it for serving —
    the one the registry builds passed through ``wrap``."""
    m = make_model("resnet32", "cifar10s", scale, seed=3)
    if variant == "pruned":
        _sparsify(m)
        prune_and_reconfigure(m)
    path = str(tmp_path / f"{variant}.npz")
    save_checkpoint(path, m)
    registry = ModelRegistry(max_models=2)
    registry.register(variant, path, lambda: wrap(
        make_model("resnet32", "cifar10s", scale, seed=3)))
    return registry, registry.served(variant).model


def _eager_rows(model, x):
    """Reference: one eager batch-1 forward per sample."""
    rows = []
    with no_grad():
        for i in range(x.shape[0]):
            rows.append(np.array(model(Tensor(x[i:i + 1])).data[0], copy=True))
    return np.stack(rows)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("variant", VARIANTS)
class TestServedBitExact:
    def _setup(self, scale, variant, tmp_path):
        registry, model = _checkpointed_model(scale, variant, tmp_path)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(9, 3, scale.hw, scale.hw)).astype(np.float32)
        return registry, model, x

    def test_single_request(self, scale, variant, tmp_path):
        registry, model, x = self._setup(scale, variant, tmp_path)
        out = registry.run(variant, x[:1])
        ref = _eager_rows(model, x[:1])
        assert np.array_equal(out, ref)
        served = registry.served(variant)
        assert served.captures == 1 and served.eager_rows == 0
        # second request replays the cached plan, still bit-identical
        out2 = registry.run(variant, x[:1])
        assert np.array_equal(out2, ref)
        assert served.exact_replays == 1

    def test_padded_batch(self, scale, variant, tmp_path):
        registry, model, x = self._setup(scale, variant, tmp_path)
        served = registry.served(variant)
        assert served.warm(6, x.shape[1:])
        out = registry.run(variant, x[:4])  # 4 rows padded up to the 6-plan
        assert served.padded_replays == 1 and served.padded_rows == 2
        assert out.shape[0] == 4
        assert np.array_equal(out, _eager_rows(model, x[:4]))

    def test_tail_shape_batch(self, scale, variant, tmp_path):
        registry, model, x = self._setup(scale, variant, tmp_path)
        served = registry.served(variant)
        assert served.warm(6, x.shape[1:])
        out = registry.run(variant, x[:8])  # 8 > 6: tail plan on demand
        assert served.captures == 2 and served.padded_replays == 0
        assert np.array_equal(out, _eager_rows(model, x[:8]))
        # tail plan is now cached; next group of 8 is an exact replay
        out2 = registry.run(variant, x[1:9])
        assert served.exact_replays == 1
        assert np.array_equal(out2, _eager_rows(model, x[1:9]))

    def test_vs_evaluate_forward_plan(self, scale, variant, tmp_path):
        registry, model, x = self._setup(scale, variant, tmp_path)
        data = make_synthetic(10, 32, hw=scale.hw, noise=0.8, seed=0,
                              name="serve-diff")
        trainer = Trainer(model, data, data,
                          TrainerConfig(epochs=1, bn_recal_batches=0))
        model.eval()
        # batch 1: the standard and row-stable lowerings coincide bitwise
        served_1 = registry.run(variant, x[:1])
        eval_1, _ = forward_step(model, x[:1], trainer._eval_plans)
        assert np.array_equal(served_1, eval_1)
        # the eval path must have gone through a compiled plan, not eager
        key = (x[:1].shape, x.dtype.str)
        assert isinstance(trainer._eval_plans.lookup(key), StepPlan)
        # batch > 1: allclose + identical argmax across lowerings
        served_n = registry.run(variant, x)
        eval_n, _ = forward_step(model, x, trainer._eval_plans)
        # (they sum in different orders, so they agree to a few ulps of the
        # largest logit -- ~100 on these untrained models -- not of each one)
        tol = dict(rtol=0, atol=8 * np.finfo(np.float32).eps
                   * float(np.abs(served_n).max()))
        np.testing.assert_allclose(served_n, eval_n, **tol)
        assert np.array_equal(served_n.argmax(axis=1), eval_n.argmax(axis=1))
        with no_grad():
            eager_n = model(Tensor(x)).data
        np.testing.assert_allclose(served_n, eager_n, **tol)


def test_padding_level_never_changes_logits(tmp_path):
    """The same request group padded to different plan batches yields
    byte-identical responses (padding rows are inert, not just small)."""
    registry, model, x = (None, None, None)
    registry, model = _checkpointed_model(SMOKE, "dense", tmp_path)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3, SMOKE.hw, SMOKE.hw)).astype(np.float32)
    served = registry.served("dense")
    assert served.warm(4, x.shape[1:])
    out_pad4 = registry.run("dense", x)
    served.plans.clear()
    assert served.warm(8, x.shape[1:])
    out_pad8 = registry.run("dense", x)
    assert np.array_equal(out_pad4, out_pad8)
    assert np.array_equal(out_pad4, _eager_rows(model, x))


def test_one_channel_sample_keeps_its_channel_axis():
    """For a 1-channel model a ``(1, H, W)`` sample is one image, not a
    batch of one: the server strips the leading 1 only from a 4-D
    ``(1, C, H, W)`` sample, and both forms serve the served model's
    batch-1 eager row."""
    model = ResNet([1, 1, 1], [8, 8, 8], False, 10, input_hw=SMOKE.hw,
                   in_channels=1, seed=3)
    registry = ModelRegistry(max_models=1)
    model = registry.register_model("gray", model).model
    rng = np.random.default_rng(2)
    x = rng.normal(size=(3, 1, SMOKE.hw, SMOKE.hw)).astype(np.float32)
    with InferenceServer(registry, max_batch=4,
                         latency_budget=0.002) as server:
        futures = [server.submit("gray", x[i]) for i in range(3)]
        futures.append(server.submit("gray", x[:1]))
        results = [f.result(timeout=30) for f in futures]
    ref = _eager_rows(model, x)
    for i in range(3):
        assert np.array_equal(results[i], ref[i]), i
    assert np.array_equal(results[3], ref[0])


def test_a_malformed_request_fails_only_its_own_group():
    """One batch holding a good float32 request, a wrong-channel request, a
    request of another size and a float64 request runs one registry call
    per ``(shape, dtype)`` group: the bad request raises alone, and every
    other comes back in its own dtype as the served model's batch-1 eager
    row."""
    model = make_model("resnet32", "cifar10s", SMOKE, seed=3)
    registry = ModelRegistry(max_models=1)
    model = registry.register_model("m", model).model
    rng = np.random.default_rng(4)
    hw = SMOKE.hw
    good = rng.normal(size=(2, 3, hw, hw)).astype(np.float32)
    bad = rng.normal(size=(4, hw, hw)).astype(np.float32)
    other = rng.normal(size=(3, hw + 1, hw + 1)).astype(np.float32)
    wide = rng.normal(size=(3, hw, hw))
    # submitted under the server's (re-entrant) lock, so the worker can
    # take nothing before all five are queued: it takes them as one batch
    with InferenceServer(registry, max_batch=8) as server:
        with server._cond:
            futures = [server.submit("m", s)
                       for s in (good[0], bad, other, wide, good[1])]
    with pytest.raises(ValueError):
        futures[1].result(timeout=30)
    results = [futures[i].result(timeout=30) for i in (0, 4, 2, 3)]
    refs = [_eager_rows(model, x)[0] for x in
            (good[:1], good[1:], other[None], wide[None])]
    for got, ref in zip(results, refs):
        assert got.dtype == ref.dtype
        assert np.array_equal(got, ref)
    assert results[0].dtype == np.float32 and results[3].dtype == np.float64
    stats = server.stats()
    assert stats["errors"] == 1
    assert stats["batch_sizes"] == {1: 2, 2: 1}


def test_an_uncapturable_model_is_refused_and_served_row_by_row(tmp_path):
    """A model whose forward capture cannot record gets no serving plan:
    capture fails closed, the registry seals the failure and serves every
    request through its per-row eager fallback — the contract holds at
    every padding level instead of silently breaking."""
    registry, model = _checkpointed_model(SMOKE, "dense", tmp_path,
                                          uncapturable)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 3, SMOKE.hw, SMOKE.hw)).astype(np.float32)
    plan, _, reason = capture_forward(model, x, row_stable=True)
    assert plan is None
    assert reason == UNRECORDED
    served = registry.served("dense")
    ref = _eager_rows(model, x)
    for batch in (4, 8):
        assert not served.warm(batch, x.shape[1:])
        assert np.array_equal(registry.run("dense", x), ref)
    # warm(4), the 3-row group's own capture, warm(8); the second 3-row
    # group hits the sealed sentinel without another attempt
    assert served.capture_failures == 3
    assert served.captures == served.padded_replays == 0
    # the failed warm-ups went through the fallback as well
    assert served.eager_rows == 4 + 3 + 8 + 3


@pytest.mark.parametrize("hw", [1, 2, 3])
@pytest.mark.parametrize("batch", [4, 8, 16])
def test_unrolled_conv_serving_lowering_is_row_stable(hw,
                                                      batch):
    """SMOKE models end on a 2x2 stage and QUICK ones on a 3x3 stage, whose
    convs are one GEMM against the unrolled filter.  Folded over the batch
    that GEMM is not row-stable, so a serving plan asks ``ConvKernels`` for
    the per-sample product: every row equals the batch-1 eager forward of
    that sample alone, bit for bit, at each padded batch size."""
    _assert_rows_equal_batch1_eager("unrolled", batch, 24, 20, hw)


@pytest.mark.parametrize("c, k, hw", [(6, 6, 12), (12, 24, 6), (3, 16, 4)])
@pytest.mark.parametrize("batch", [4, 8, 16])
def test_span_conv_serving_lowering_is_row_stable(batch, c,
                                                  k, hw):
    """The span form multiplies one sample at a time (``N`` GEMMs of one
    shape on the padded-width grid), so it is row-stable as it stands."""
    _assert_rows_equal_batch1_eager("span", batch, c, k, hw)


def _assert_rows_equal_batch1_eager(form, batch, c, k, hw):
    from repro.tensor.ops import conv as conv_ops
    rng = np.random.default_rng(5)
    x = rng.standard_normal((batch, c, hw, hw)).astype(np.float32)
    w = (rng.standard_normal((k, c, 3, 3)) * 0.2).astype(np.float32)
    b = rng.standard_normal(k).astype(np.float32)
    ks = conv_ops.ConvKernels(
        x.shape, w, 1, 1, x.dtype, lambda shape, tag, phase:
        np.empty(shape, x.dtype), bias=b, backward=False, row_stable=True)
    assert ks.form == form and ks.dw is None
    ks.fwd(x)
    for i in range(batch):
        row, _ = conv_ops.conv2d_forward(x[i:i + 1], w, b, 1, 1)
        assert np.array_equal(ks.y4[i:i + 1], row), i
