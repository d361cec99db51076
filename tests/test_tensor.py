"""Core autodiff engine: graph recording, backward accumulation, basic ops."""

import numpy as np
import pytest

from bitcycle import tensor
from bitcycle.tensor import Tensor, add, clamp, matmul, mul, no_grad, reshape, tmean, tsum

from gradcheck import gradcheck


class TestBasics:
    def test_tensor_wraps_float32_by_default(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float32
        assert t.shape == (3,)

    def test_float64_preserved(self):
        t = Tensor(np.ones(4, dtype=np.float64))
        assert t.data.dtype == np.float64

    def test_add_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        out = add(a, np.zeros((2, 3)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_backward_on_nonscalar_requires_seed(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (a * 2.0).backward()

    def test_scalar_backward(self):
        a = Tensor(np.array([3.0]), requires_grad=True)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_diamond_graph_accumulates(self):
        # y = x*x + x, dy/dx = 2x + 1, with x reused on two paths
        x = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        y = mul(x, x) + x
        y.backward(np.ones(2))
        np.testing.assert_allclose(x.grad, [5.0, -1.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y._backward is None
        assert y._graph is None

    def test_zero_upstream_gives_zero_grads(self):
        x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
        y = (x * 3.0) + 1.0
        y.backward(np.zeros((3, 4)))
        np.testing.assert_array_equal(x.grad, np.zeros((3, 4)))

    def test_grad_shape_matches_data(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        tsum(x).backward()
        assert x.grad.shape == x.data.shape

    def test_repeated_backward_raises_and_keeps_one_pass(self):
        # backward consumes the graph: a second walk raises instead of
        # adding to the leaves, and so does a walk from another root that
        # reaches a node the first walk consumed
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = mul(x, x) * 3.0
        z = tsum(y + x)
        other = tsum(y * 2.0)
        z.backward()
        np.testing.assert_array_equal(x.grad, [7.0, -11.0])
        for root in (z, other):
            with pytest.raises(RuntimeError, match="already consumed"):
                root.backward()
        np.testing.assert_array_equal(x.grad, [7.0, -11.0])
        assert z.grad is None and y.grad is None
        assert y._graph.grad is None and z._graph.grad is None
        assert y._graph._parents == () and z._graph._parents == ()

    def test_leaf_grads_are_private_copies(self):
        # add hands one array to both parents and reshape hands up a view,
        # so a grad that kept the array it was given would alias another
        seed = np.arange(6.0).reshape(2, 3)
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        (x + x).backward(seed)
        np.testing.assert_array_equal(x.grad, 2 * seed)
        np.testing.assert_array_equal(seed, np.arange(6.0).reshape(2, 3))

        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        c = Tensor(np.ones(6), requires_grad=True)
        (a + b + reshape(reshape(c, 3, 2), 2, 3)).backward(seed)
        grads = [a.grad, b.grad, c.grad, seed]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, other) for other in grads[i + 1 :])
        a.grad += 100.0
        c.grad[0] = -1.0
        np.testing.assert_array_equal(b.grad, seed)
        np.testing.assert_array_equal(seed, np.arange(6.0).reshape(2, 3))


class TestMallocThresholds:
    def test_fixes_both_thresholds_through_mallopt(self, monkeypatch):
        calls = []

        class FakeLibc:
            def __init__(self, name):
                self.mallopt = lambda param, value: calls.append((name, param, value)) or 1

        monkeypatch.setattr(tensor.ctypes, "CDLL", FakeLibc)
        tensor._fix_malloc_thresholds()
        # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD is -1 in glibc's malloc.h
        assert calls == [("libc.so.6", -3, 32 << 20), ("libc.so.6", -1, 256 << 20)]

    def test_no_op_without_glibc(self, monkeypatch):
        def no_libc(name):
            raise OSError(f"{name}: cannot open shared object file")

        monkeypatch.setattr(tensor.ctypes, "CDLL", no_libc)
        assert tensor._fix_malloc_thresholds() is None


class TestBroadcasting:
    def test_bias_like_add_reduces_grad(self):
        x = Tensor(np.zeros((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).backward(np.ones((4, 3)))
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))

    def test_channel_broadcast_mul(self):
        x = Tensor(np.ones((2, 3, 2, 2)), requires_grad=True)
        s = Tensor(np.ones((1, 3, 1, 1)) * 2.0, requires_grad=True)
        (x * s).backward(np.ones((2, 3, 2, 2)))
        assert s.grad.shape == (1, 3, 1, 1)
        np.testing.assert_allclose(s.grad, np.full((1, 3, 1, 1), 8.0))


class TestClamp:
    def test_above_window(self):
        out = clamp(Tensor([1.7]), 0.0, 1.0)
        np.testing.assert_allclose(out.data, [1.0])

    def test_below_window_zero_grad(self):
        x = Tensor([-0.3], requires_grad=True)
        clamp(x, 0.0, 1.0).backward(np.array([5.0]))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_interior_passes_grad(self):
        x = Tensor([0.25, 0.75], requires_grad=True)
        clamp(x, 0.0, 1.0).backward(np.array([2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 3.0])


class TestMatmul:
    def test_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="inner dims"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    def test_forward(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, a @ b)


def test_forward_determinism():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8)).astype(np.float32)
    b = rng.standard_normal((8, 8)).astype(np.float32)
    r1 = matmul(Tensor(a), Tensor(b)).data
    r2 = matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_array_equal(r1, r2)


# ----------------------------------------------------------------------
# finite-difference spot checks (the exhaustive pass lives in the
# acceptance suite)

def test_gradcheck_elementwise_ops():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        gradcheck(lambda u, v: u * v + u, [a.copy(), b.copy()])


def test_gradcheck_reductions_and_reshape():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.standard_normal((2, 6))
        gradcheck(lambda t: reshape(tmean(t) * 3.0, (1,)), [a.copy()])
        gradcheck(lambda t: tsum(reshape(t, (3, 4))), [a.copy()])


def test_gradcheck_matmul():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        gradcheck(matmul, [a.copy(), b.copy()])


def test_gradcheck_clamp_away_from_edges():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.uniform(-2, 2, size=(4, 4))
        # keep samples off the clamp edges so finite differences are valid
        a[np.abs(a - 1.0) < 1e-3] += 0.01
        a[np.abs(a + 1.0) < 1e-3] += 0.01
        gradcheck(lambda t: clamp(t, -1.0, 1.0), [a.copy()])
