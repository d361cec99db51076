"""Optimizers and the poly learning-rate policy."""

import numpy as np
import pytest

from bitcycle.models import transfer_weights
from bitcycle.optim import Adam, LrSchedule, OptimizerConfig, Sgd, lr_at, make_optimizer
from bitcycle.tensor import Tensor


def _param(value, grad=None):
    p = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    if grad is not None:
        p.grad = np.asarray(grad, dtype=np.float64)
    return p


class TestConfig:
    def test_defaults(self):
        cfg = OptimizerConfig()
        assert cfg.kind == "adam"
        assert cfg.lr_base == 0.001
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.weight_decay == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(kind="rmsprop")
        with pytest.raises(ValueError):
            OptimizerConfig(beta1=1.0)
        with pytest.raises(ValueError):
            OptimizerConfig(lr_base=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(weight_decay=-1e-4)


class TestSgd:
    def test_zero_lr_leaves_params(self):
        p = _param([1.0, 2.0], [5.0, -5.0])
        Sgd([("p", p)], OptimizerConfig(kind="sgd")).step(0.0)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_quadratic_step(self):
        # L(w) = w^2 at w=1 with lr=0.1: w' = 1 - 0.1 * 2 = 0.8
        p = _param([1.0], [2.0])
        Sgd([("p", p)], OptimizerConfig(kind="sgd")).step(0.1)
        np.testing.assert_allclose(p.data, [0.8])

    def test_constant_gradient_linearity(self):
        p1 = _param([0.0], [3.0])
        p2 = _param([0.0], [3.0])
        opt1 = Sgd([("p", p1)], OptimizerConfig(kind="sgd"))
        opt1.step(0.05)
        p1.grad = np.array([3.0])
        opt1.step(0.05)
        Sgd([("p", p2)], OptimizerConfig(kind="sgd")).step(0.1)
        np.testing.assert_allclose(p1.data, p2.data)

    def test_missing_gradient_names_param(self):
        p = _param([1.0])
        with pytest.raises(ValueError, match="fc.bias"):
            Sgd([("fc.bias", p)], OptimizerConfig(kind="sgd")).step(0.1)

    def test_weight_decay_enters_update(self):
        p = _param([2.0], [0.0])
        Sgd([("p", p)], OptimizerConfig(kind="sgd", weight_decay=0.5)).step(0.1)
        np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])

    def test_convex_quadratic_converges_monotonically(self):
        cfg = OptimizerConfig(kind="sgd")
        p = _param([4.0])
        opt = Sgd([("p", p)], cfg)
        dist = [abs(p.data[0])]
        for _ in range(30):
            p.grad = 2.0 * p.data  # L = w^2, minimum at 0, lr below 1/L_smooth
            opt.step(0.2)
            dist.append(abs(p.data[0]))
        assert all(b < a for a, b in zip(dist, dist[1:]))


class TestAdam:
    def test_zero_gradient_keeps_params_and_decays_moments(self):
        p = _param([1.0], [4.0])
        opt = Adam([("p", p)], OptimizerConfig())
        opt.step(0.001)
        m_after_first = opt.m["p"].copy()
        p.grad = np.array([0.0])
        before = p.data.copy()
        opt.step(0.001)
        delta = np.abs(p.data - before)[0]
        # the decayed first moment still moves the weight a little, but the
        # step shrinks and the moments decay geometrically
        assert abs(opt.m["p"][0]) < abs(m_after_first[0])
        assert delta <= 0.001 * 1.01

    def test_first_step_is_signed_lr(self):
        for g in (0.3, -2.0, 17.0):
            p = _param([0.0], [g])
            Adam([("p", p)], OptimizerConfig()).step(0.01)
            np.testing.assert_allclose(p.data, [-0.01 * np.sign(g)], rtol=1e-5)

    def test_step_magnitude_bounded_by_lr(self):
        rng = np.random.default_rng(0)
        p = _param(rng.standard_normal(100))
        opt = Adam([("p", p)], OptimizerConfig())
        for _ in range(50):
            before = p.data.copy()
            p.grad = rng.standard_normal(100) * 10.0
            opt.step(0.001)
            assert np.abs(p.data - before).max() <= 0.001 * (1.0 + 1e-6) * 3.0

    def test_constant_gradient_steady_state(self):
        p = _param([5.0], None)
        opt = Adam([("p", p)], OptimizerConfig())
        for _ in range(200):
            p.grad = np.array([2.5])
            before = p.data.copy()
            opt.step(0.001)
        step = np.abs(p.data - before)[0]
        assert step == pytest.approx(0.001, rel=1e-3)

    def test_state_roundtrip(self):
        rng = np.random.default_rng(1)
        p = _param(rng.standard_normal(8))
        opt = Adam([("p", p)], OptimizerConfig())
        for _ in range(3):
            p.grad = rng.standard_normal(8)
            opt.step(0.001)
        saved = {k: v.copy() for k, v in opt.state_tensors().items()}
        t = opt.step_count

        q = _param(p.data.copy())
        opt2 = Adam([("p", q)], OptimizerConfig())
        transfer_weights(saved, opt2.state_tensors())
        opt2.step_count = t
        g = rng.standard_normal(8)
        p.grad = g.copy()
        q.grad = g.copy()
        opt.step(0.0005)
        opt2.step(0.0005)
        np.testing.assert_array_equal(p.data, q.data)

    def test_factory(self):
        p = _param([1.0])
        assert isinstance(make_optimizer([("p", p)], OptimizerConfig(kind="sgd")), Sgd)
        assert isinstance(make_optimizer([("p", p)], OptimizerConfig()), Adam)


class TestLrSchedule:
    def test_poly_values(self):
        sched = LrSchedule("poly", 20)
        assert lr_at(sched, 0, 0.001) == 0.001
        assert lr_at(sched, 10, 0.001) == pytest.approx(0.0005)
        assert lr_at(sched, 20, 0.001) == 0.0

    def test_non_increasing(self):
        sched = LrSchedule("poly", 17)
        rates = [lr_at(sched, e, 0.001) for e in range(18)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_out_of_range(self):
        sched = LrSchedule("poly", 5)
        with pytest.raises(ValueError):
            lr_at(sched, 6, 0.001)
        with pytest.raises(ValueError):
            lr_at(sched, -1, 0.001)

    def test_constant_policy(self):
        sched = LrSchedule("constant", 10)
        assert lr_at(sched, 7, 0.003) == 0.003

    def test_validation(self):
        with pytest.raises(ValueError):
            LrSchedule("cosine", 10)
        with pytest.raises(ValueError):
            LrSchedule("poly", 0)
