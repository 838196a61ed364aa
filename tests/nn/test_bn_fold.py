"""Folding evaluation-mode batch-norm into the conv in front of it.

:func:`repro.nn.bn_utils.fold_batchnorm` rewrites each conv's weight and
bias from its BN's statistics.  Generated statistics — ``gamma`` zero and
negative, ``var`` near zero, convs that already carry a bias — on QUICK
VGG-11 (conv -> BN -> ReLU -> max-pool), a ResNet of basic blocks and one
of bottlenecks, each dense and pruned, check two things:

- the folded eager forward is the unfolded one up to float32 rounding:
  within ``16 * eps32 * max|logit|``, with the same argmax wherever the two
  largest logits are further apart than that;
- the serving registry's plans, which run the folded model, reply with the
  folded model's batch-1 eager rows bit for bit at N in {1, 3, 16}.

Between them the models run every conv form (pointwise, unrolled, span,
gather).  The guards that keep a folded model from training or being
checkpointed, and ``register_model``'s copy, are tested here too.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import QUICK, make_model
from repro.io import save_checkpoint
from repro.nn import ResNet
from repro.nn.bn_utils import fold_batchnorm, recalibrate_bn
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Parameter
from repro.prune import prune_and_reconfigure
from repro.serve import ModelRegistry
from repro.tensor import Tensor, no_grad

from ..conftest import sparsify_space

pytestmark = pytest.mark.usefixtures("optimized_engine")

EPS32 = float(np.finfo(np.float32).eps)
FORMS = {"pointwise", "unrolled", "span", "gather"}
N_MAX = 16


def _vgg11():
    return make_model("vgg11", "cifar10s", QUICK, seed=3)


def _basic():
    return ResNet([1, 1, 1], [16, 32, 64], False, 10, input_hw=QUICK.hw,
                  width_mult=QUICK.width_mult, seed=3)


def _bottleneck():
    return ResNet([1, 1, 1], [64, 128, 256], True, 10, input_hw=QUICK.hw,
                  width_mult=QUICK.width_mult, seed=3)


BUILDERS = {"vgg11": _vgg11, "basic": _basic, "bottleneck": _bottleneck}
_BASE = {}


def _base(kind, variant):
    """The unfolded model, built once per (kind, variant): ``pruned`` loses
    about half of every prunable channel space to surgery."""
    key = (kind, variant)
    if key not in _BASE:
        model = BUILDERS[kind]()
        if variant == "pruned":
            rng = np.random.default_rng(0)
            for sid, space in model.graph.spaces.items():
                if not space.frozen:
                    kill = rng.random(space.size) < 0.5
                    kill[0] = False
                    sparsify_space(model.graph, sid, kill)
            prune_and_reconfigure(model)
        _BASE[key] = model
    return _BASE[key]


def _randomize(model, seed, zero_gamma, neg_gamma, tiny_var, bias):
    """Give every BN generated statistics and, with ``bias``, about half of
    the convs a bias of their own."""
    rng = np.random.default_rng(seed)
    for node in model.graph.active_convs():
        bn = node.bn
        k = bn.num_features
        gamma = rng.uniform(0.5, 2.0, k)
        gamma[rng.random(k) < neg_gamma] *= -1.0
        gamma[rng.random(k) < zero_gamma] = 0.0
        var = rng.uniform(0.25, 4.0, k)
        tiny = rng.random(k) < tiny_var
        var[tiny] = rng.uniform(0.0, 1e-6, int(tiny.sum()))
        # keep the gain |gamma| / sqrt(var + eps) of a near-constant channel
        # in range: a chain of 300x gains only measures float32 overflow
        gamma[tiny] *= np.sqrt(var[tiny] + bn.eps)
        bn.weight.data = gamma.astype(np.float32)
        bn.bias.data = rng.normal(0.0, 0.5, k).astype(np.float32)
        bn.running_mean[:] = rng.normal(0.0, 0.5, k)
        bn.running_var[:] = var
        if bias and rng.random() < 0.5:
            node.conv.bias = Parameter(
                rng.normal(0.0, 0.5, k).astype(np.float32))
    model.eval()


def _eager(model, x):
    with no_grad():
        return np.array(model(Tensor(x)).data, copy=True)


def _eager_rows(model, x):
    return np.stack([_eager(model, x[i:i + 1])[0] for i in range(len(x))])


def _x(seed=0, n=N_MAX):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 3, QUICK.hw, QUICK.hw)).astype(np.float32)


@pytest.mark.parametrize("variant", ["dense", "pruned"])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       zero_gamma=st.sampled_from([0.0, 0.1, 0.5]),
       neg_gamma=st.sampled_from([0.0, 0.3, 1.0]),
       tiny_var=st.sampled_from([0.0, 0.1, 0.5]),
       bias=st.booleans())
def test_folded_model_is_the_model_up_to_rounding(kind, variant, seed,
                                                  zero_gamma, neg_gamma,
                                                  tiny_var, bias):
    model = copy.deepcopy(_base(kind, variant))
    _randomize(model, seed, zero_gamma, neg_gamma, tiny_var, bias)
    x = _x(seed % 1000)
    ref = _eager(model, x)

    registry = ModelRegistry(max_models=1)
    served = registry.register_model("m", model)
    folded = served.model
    assert all(bn.folded for bn in folded.modules()
               if isinstance(bn, BatchNorm2d))
    got = _eager(folded, x)
    atol = 16 * EPS32 * float(np.abs(ref).max())
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol)
    top2 = np.sort(ref, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 2 * atol
    assert np.array_equal(got.argmax(1)[clear], ref.argmax(1)[clear])

    rows = _eager_rows(folded, x)
    for n in (N_MAX, 3, 1):       # exact, then a tail capture, then padded
        assert np.array_equal(registry.run("m", x[:n]), rows[:n]), n
    assert served.eager_rows == 0 and served.padded_replays == 1
    registry.clear()


def test_the_models_run_every_conv_form():
    """The fold is checked under every conv lowering the serve plans pick."""
    seen = set()
    for kind in BUILDERS:
        for variant in ("dense", "pruned"):
            registry = ModelRegistry(max_models=1)
            served = registry.register_model("m", _base(kind, variant))
            assert served.warm(3, (3, QUICK.hw, QUICK.hw))
            plan = served.plans.lookup((3, (3, QUICK.hw, QUICK.hw),
                                        np.dtype(np.float32).str))
            seen |= {row[-1] for row in plan.conv_forms()}
            registry.clear()
    assert seen == FORMS


def test_folding_twice_is_a_no_op():
    model = copy.deepcopy(_base("basic", "dense"))
    _randomize(model, 1, 0.1, 0.3, 0.1, True)
    n_bn = sum(isinstance(m, BatchNorm2d) for m in model.modules())
    assert fold_batchnorm(model) == n_bn
    state = model.state_dict()
    assert fold_batchnorm(model) == 0
    again = model.state_dict()
    assert state.keys() == again.keys()
    assert all(np.array_equal(state[k], again[k]) for k in state)


def test_a_folded_model_refuses_training():
    served = ModelRegistry().register_model("m", _base("basic", "dense"))
    with pytest.raises(RuntimeError, match="folded"):
        recalibrate_bn(served.model, [_x(n=4)])
    served.model.train()
    with pytest.raises(RuntimeError, match="evaluation mode only"):
        served.model(Tensor(_x(n=2)))


def test_a_folded_model_refuses_to_checkpoint(tmp_path):
    served = ModelRegistry().register_model("m", _base("vgg11", "dense"))
    path = tmp_path / "folded.npz"
    with pytest.raises(ValueError, match=r"'features\.1'"):
        save_checkpoint(str(path), served.model)
    assert not path.exists()


def test_register_model_leaves_the_callers_model_untouched():
    model = copy.deepcopy(_base("bottleneck", "pruned"))
    _randomize(model, 2, 0.1, 0.3, 0.1, False)
    model.train()
    x = _x(n=4)
    state = model.state_dict()
    model.eval()
    logits = _eager(model, x)
    model.train()

    registry = ModelRegistry()
    served = registry.register_model("m", model)
    registry.run("m", x)
    assert served.model is not model
    assert model.training
    assert not any(bn.folded for bn in model.modules()
                   if isinstance(bn, BatchNorm2d))
    after = model.state_dict()
    assert state.keys() == after.keys()
    for key in state:
        assert state[key].tobytes() == after[key].tobytes(), key
    model.eval()
    assert _eager(model, x).tobytes() == logits.tobytes()
    registry.clear()
