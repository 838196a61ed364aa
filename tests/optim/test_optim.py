"""SGD and LR schedules."""

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import SGD, ConstantLR, StepLR, milestones_for


def make_param(val=1.0, n=4):
    return Parameter(np.full(n, val, dtype=np.float32))


class TestSGD:
    def test_plain_step(self):
        p = make_param(1.0)
        opt = SGD([p], lr=0.1, momentum=0.0)
        p.grad = np.full(4, 2.0, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, 0.8)

    def test_momentum_accumulates(self):
        p = make_param(0.0)
        opt = SGD([p], lr=1.0, momentum=0.5)
        for expect in [-1.0, -2.5, -4.25]:
            p.grad = np.ones(4, dtype=np.float32)
            opt.step()
            np.testing.assert_allclose(p.data, expect, rtol=1e-6)

    def test_weight_decay(self):
        p = make_param(1.0)
        opt = SGD([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        p.grad = np.zeros(4, dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, 1.0 - 0.1 * 0.5)

    def test_none_grad_skipped(self):
        p = make_param(1.0)
        opt = SGD([p], lr=0.1)
        opt.step()  # no grad set
        np.testing.assert_allclose(p.data, 1.0)

    def test_zero_grad(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        p.grad = np.ones(4, dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None

    def test_state_for_and_set_state_for(self):
        p = make_param()
        opt = SGD([p], lr=0.1, momentum=0.9)
        assert opt.state_for(p) is None
        p.grad = np.ones(4, dtype=np.float32)
        opt.step()
        buf = opt.state_for(p)
        assert buf is not None and buf.shape == (4,)
        opt.set_state_for(p, np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(opt.state_for(p), 0.0)

    def test_set_state_shape_mismatch_raises(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.set_state_for(p, np.zeros(7))

    def test_momentum_survives_param_data_swap(self):
        """The reconfiguration contract: momentum is keyed by parameter
        identity, so replacing ``.data`` keeps the buffer attached."""
        p = make_param(n=6)
        opt = SGD([p], lr=0.1, momentum=0.9)
        p.grad = np.ones(6, dtype=np.float32)
        opt.step()
        keep = np.array([True, False, True, True, False, True])
        p.data = p.data[keep]
        opt.set_state_for(p, opt.state_for(p)[keep])
        p.grad = np.ones(4, dtype=np.float32)
        opt.step()  # must not raise; shapes consistent

    def test_in_place_update_keeps_array_identity(self):
        p = make_param()
        arr_id = id(p.data)
        opt = SGD([p], lr=0.1)
        p.grad = np.ones(4, dtype=np.float32)
        opt.step()
        assert id(p.data) == arr_id  # in-place per the optimization guides

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_sync_params_purges_stale_state(self):
        """When a layer is removed its parameters leave the optimizer; the
        momentum/scratch entries keyed by their ids must go too, or a new
        parameter allocated at a recycled id inherits a foreign buffer."""
        keep, drop = make_param(n=4), make_param(n=4)
        opt = SGD([keep, drop], lr=1.0, momentum=0.9)
        for p in (keep, drop):
            p.grad = np.ones(4, dtype=np.float32)
        opt.step()
        assert opt.state_for(drop) is not None
        stale_buf = opt.state_for(drop).copy()

        opt.sync_params([keep])
        assert opt.params == [keep]
        assert opt.state_for(keep) is not None
        assert opt.state_for(drop) is None
        assert id(drop) not in opt._velocity
        assert id(drop) not in opt._scratch

        # a fresh param landing on the dropped id must start clean
        del drop
        fresh = make_param(0.0, n=4)
        opt.sync_params([keep, fresh])
        buf = opt.state_for(fresh)
        assert buf is None or not np.array_equal(buf, stale_buf)

    def test_sync_params_empty_raises(self):
        p = make_param()
        opt = SGD([p], lr=0.1)
        with pytest.raises(ValueError):
            opt.sync_params([])
        assert opt.params == [p]


class TestSchedules:
    def test_constant(self):
        s = ConstantLR(0.05)
        assert s.lr_at(0) == s.lr_at(100) == 0.05

    def test_step_decay(self):
        s = StepLR(0.1, milestones=[10, 20], gamma=0.1)
        assert s.lr_at(0) == pytest.approx(0.1)
        assert s.lr_at(9) == pytest.approx(0.1)
        assert s.lr_at(10) == pytest.approx(0.01)
        assert s.lr_at(20) == pytest.approx(0.001)

    def test_milestones_for(self):
        assert milestones_for(182, (0.5, 0.75)) == [91, 136]
        assert milestones_for(4) == [2, 3]
