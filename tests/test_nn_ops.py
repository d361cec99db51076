"""Network ops: convolution, batch norm, pooling, cross-entropy."""

import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from bitcycle import nn
from bitcycle.nn import (
    avg_pool2d,
    batch_norm,
    conv2d,
    linear,
    max_pool2d,
    softmax_cross_entropy,
)
from bitcycle.tensor import Tensor

from gradcheck import gradcheck
from test_golden import blas_core


def _bn_buffers(c, dtype=np.float32):
    return (
        Tensor(np.zeros(c, dtype=dtype)),
        Tensor(np.ones(c, dtype=dtype)),
    )


class TestConv2d:
    def test_all_ones_sums_window(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_one_by_one_kernel_scales(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        w = Tensor(np.full((1, 1, 1, 1), 2.0))
        out = conv2d(x, w)
        np.testing.assert_allclose(out.data, x.data * 2.0)

    def test_output_shape_formula(self):
        x = Tensor(np.zeros((2, 3, 11, 9)))
        w = Tensor(np.zeros((5, 3, 3, 3)))
        out = conv2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 5, (11 + 2 - 3) // 2 + 1, (9 + 2 - 3) // 2 + 1)

    def test_channel_mismatch_names_shapes(self):
        with pytest.raises(ValueError) as err:
            conv2d(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((4, 2, 3, 3))))
        assert "(1, 3, 8, 8)" in str(err.value)
        assert "(4, 2, 3, 3)" in str(err.value)

    def test_kernel_must_fit(self):
        with pytest.raises(ValueError, match="does not fit"):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_matches_naive_convolution(self):
        # kernels, strides and paddings of the models, on odd sizes where
        # h + 2p is not a multiple of the stride
        rng = np.random.default_rng(11)
        for k in (1, 3, 7):
            for stride in (1, 2):
                for pad in (0, 1, 3):
                    for h, w in ((7, 7), (5, 6), (6, 5), (8, 8)):
                        if min(h, w) + 2 * pad < k:
                            continue
                        x = rng.standard_normal((2, 3, h, w))
                        wt = rng.standard_normal((4, 3, k, k))
                        out = conv2d(Tensor(x), Tensor(wt), stride=stride, padding=pad).data
                        np.testing.assert_allclose(out, _naive_conv(x, wt, stride, pad), rtol=1e-12,
                                                   err_msg=f"k={k} stride={stride} pad={pad} {h}x{w}")

    def test_channel_last_float32_input(self):
        # conv and BN outputs are float32 NCHW views of (h, w, n, c) memory;
        # such an input, or a channel-last one, must give the contiguous
        # input's results, in float32
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 7, 6)).astype(np.float32)
        x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        x_bi = np.ascontiguousarray(x.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        w = rng.standard_normal((4, 5, 3, 3)).astype(np.float32)
        for stride, pad in ((1, 1), (2, 1), (2, 0)):
            grads = []
            for xin in (x, x_cl, x_bi):
                xt, wt = Tensor(xin, requires_grad=True), Tensor(w, requires_grad=True)
                out = conv2d(xt, wt, stride=stride, padding=pad)
                out.backward(np.ones(out.shape))
                grads.append((out.data, xt.grad, wt.grad))
            for a, *others in zip(*grads):
                for b in others:
                    assert a.dtype == b.dtype == np.float32
                    np.testing.assert_array_equal(a, b)
            np.testing.assert_allclose(grads[0][0], _naive_conv(x, w, stride, pad), rtol=1e-4, atol=1e-4)

    def test_output_holds_no_larger_buffer(self):
        # a view into the padded working grid would keep that grid alive
        # for as long as the graph holds the output
        rng = np.random.default_rng(14)
        for k, stride, pad in ((3, 1, 1), (3, 2, 1), (1, 2, 0), (7, 2, 3)):
            out = conv2d(Tensor(rng.standard_normal((2, 3, 9, 8))), Tensor(rng.standard_normal((4, 3, k, k))),
                         stride=stride, padding=pad).data
            assert out.base is None or out.base.size == out.size

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        for k, stride, pad, size in [(3, 1, 0, 6), (3, 1, 1, 6), (3, 2, 1, 6), (1, 2, 0, 7), (3, 2, 1, 7)]:
            x = rng.standard_normal((2, 3, size, size))
            w = rng.standard_normal((4, 3, k, k))
            gradcheck(lambda a, b: conv2d(a, b, stride=stride, padding=pad), [x.copy(), w.copy()])

    @staticmethod
    def _assert_band_size_keeps_bits(monkeypatch, n, c, o, size, k, stride, pad, dtype, seed,
                                     pieces_exact=True):
        """Output, dx and dw at one-row bands, the shipped size and one band
        for the whole map must agree bit for bit, at each of three GEMM caps:
        no split, the shipped cap and half of it. Across the caps the output
        and dx must agree bit for bit too (to within a few ulps when
        pieces_exact is False); dw adds its rows in other pieces there, so
        it is not compared. size is the input's (height, width), or an int h
        for (h, h - 1). Returns the number of bands the shipped size cut the
        forward pass into."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, *(size if isinstance(size, tuple) else (size, size - 1)))).astype(dtype)
        w = rng.standard_normal((o, c, k, k)).astype(dtype)
        runs = {}  # output, dx and dw per (GEMM_ELEMS, BLOCK_ELEMS)
        one = 10**12  # no split, or one band for the whole map
        for cap in (one, nn.GEMM_ELEMS, nn.GEMM_ELEMS // 2):
            for elems in (1, nn.BLOCK_ELEMS, one):
                with monkeypatch.context() as m:
                    m.setattr(nn, "GEMM_ELEMS", cap)
                    m.setattr(nn, "BLOCK_ELEMS", elems)
                    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
                    out = conv2d(xt, wt, stride=stride, padding=pad)
                    out.backward(np.random.default_rng(16).standard_normal(out.shape).astype(dtype))
                runs[cap, elems] = (out.data, xt.grad, wt.grad)
        assert runs[one, 1][0].shape[2] >= 2  # one-row bands really split the map
        msg = f"n={n} {c}->{o} size={size} k={k} stride={stride} pad={pad} {dtype.__name__}"
        for (cap, elems), run in runs.items():
            for a, b in zip(run, runs[cap, one]):
                np.testing.assert_array_equal(a, b, err_msg=f"{msg} cap={cap} elems={elems}")
            for a, b in zip(run[:2], runs[one, one][:2]):
                if pieces_exact:
                    np.testing.assert_array_equal(a, b, err_msg=f"{msg} cap={cap}")
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-6 * np.abs(b).max(), err_msg=msg)
        oh, ow = runs[one, one][0].shape[2:]
        return -(-oh // max(1, nn.BLOCK_ELEMS // (ow * n * max(c, o))))

    # each stacked output row piece is its own GEMM, forward and dx add their
    # taps in tap order and dw adds its rows in (row, piece) order, so the band
    # size never changes a bit; the tests below check that over several groups
    # of shapes, at each GEMM cap

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_row_blocks_keep_every_sum(self, monkeypatch, dtype):
        # both kernels, strides and paddings of the models on an odd map
        for k, stride, pad in itertools.product((1, 3), (1, 2), (0, 1)):
            self._assert_band_size_keeps_bits(monkeypatch, 2, 8, 16, 33, k, stride, pad, dtype, seed=15)

    def test_shipped_block_size_is_exact_at_desk_widths(self, monkeypatch):
        # (batch, c, o, size, kernel, stride, padding) of desk-model convs at
        # a smaller batch; the shipped size cuts the 32x32 maps into bands
        bands = [self._assert_band_size_keeps_bits(monkeypatch, *shape, np.float32, seed=17)
                 for shape in ((8, 16, 16, 32, 3, 1, 1), (8, 16, 32, 32, 3, 2, 1),
                               (16, 128, 128, 4, 3, 1, 1), (16, 64, 128, 8, 1, 2, 0))]
        assert min(bands[:2]) >= 2, bands

    # (c, o, width) of the four desk stages' 3x3 convs at batch 128, and the
    # pieces the shipped cap cuts each output row's GEMM rows into. Every
    # output row makes the same GEMMs, so four rows of each map suffice.
    DESK_STAGES = ((16, 16, 32, 2), (32, 32, 16, 4), (64, 64, 8, 8), (128, 128, 4, 1))

    def test_gemm_pieces_keep_forward_and_dx_bits_at_desk_stages(self, monkeypatch):
        # SkylakeX kernels give a row of a small-matrix GEMM the same bits as
        # the same row of a larger one, so there only dw moves
        for c, o, width, pieces in self.DESK_STAGES:
            assert nn._gemm_pieces(width * 128, c, o) == pieces, (c, o)
            self._assert_band_size_keeps_bits(monkeypatch, 128, c, o, (4, width), 3, 1, 1, np.float32,
                                              seed=20, pieces_exact=blas_core() == "SkylakeX")

    def test_gemm_pieces_under_another_kernel(self):
        # Haswell kernels round a GEMM row by its place in the call, so there
        # the pieces move forward and dx within rounding, while the band size
        # still keeps every bit
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
               "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(nn.__file__)),
                                              os.path.dirname(os.path.abspath(__file__))])}
        code = ("import numpy as np, pytest\n"
                "from test_nn_ops import TestConv2d\n"
                "TestConv2d._assert_band_size_keeps_bits(pytest.MonkeyPatch(), 128, 16, 16, (4, 32), 3, 1, 1,"
                " np.float32, seed=20, pieces_exact=False)\n")
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)

    @pytest.mark.parametrize("c, o", [(2, 64), (4, 128)])
    def test_block_floor_is_exact(self, monkeypatch, c, o):
        # few input channels against many outputs: the old row-blocked conv
        # needed a floor on its block height here, because OpenBLAS's
        # small-matrix kernel rounded dx unlike one full-height GEMM. Bands
        # of whole output rows need none, down to one row per band.
        self._assert_band_size_keeps_bits(monkeypatch, 8, c, o, 16, 3, 1, 1, np.float32, seed=18)

    def test_band_size_never_changes_a_bit(self, monkeypatch):
        # (batch, c, o, size, kernel, stride, padding, dtype)
        for shape in (
            # the desk model's stem
            (8, 3, 16, 32, 3, 1, 1, np.float32),
            # one input channel, few outputs against many inputs, narrow inputs
            (8, 1, 16, 16, 3, 1, 1, np.float32), (8, 64, 8, 16, 3, 1, 1, np.float32),
            (8, 64, 1, 16, 3, 1, 1, np.float32), (8, 16, 3, 16, 3, 1, 1, np.float64),
            # batch 1
            (1, 16, 16, 32, 3, 1, 1, np.float32), (1, 32, 64, 16, 3, 2, 1, np.float32),
        ):
            self._assert_band_size_keeps_bits(monkeypatch, *shape, seed=15)

    def test_weight_gradient_matches_float64_at_desk_shapes(self):
        # dw sums one GEMM per output row; in float32 it stays within a few
        # float32 ulps of the same sums in float64, relative to its largest entry
        rng = np.random.default_rng(19)
        # (c, o, size, kernel, stride, padding) of desk-model convs, batch 128
        for c, o, size, k, stride, pad in ((3, 16, 32, 3, 1, 1), (16, 16, 32, 3, 1, 1), (16, 32, 32, 3, 2, 1),
                                           (32, 32, 16, 3, 1, 1), (64, 64, 8, 3, 1, 1),
                                           (64, 128, 8, 1, 2, 0), (128, 128, 4, 3, 1, 1)):
            x = rng.standard_normal((128, c, size, size)).astype(np.float32)
            w = rng.standard_normal((o, c, k, k)).astype(np.float32)
            oh = (size + 2 * pad - k) // stride + 1
            g = rng.standard_normal((128, o, oh, oh)).astype(np.float32)
            dws = []
            for dtype in (np.float32, np.float64):
                wt = Tensor(w.astype(dtype), requires_grad=True)
                conv2d(Tensor(x.astype(dtype)), wt, stride=stride, padding=pad).backward(g.astype(dtype))
                dws.append(wt.grad)
            assert dws[0].dtype == np.float32
            err = np.abs(dws[0] - dws[1]).max() / np.abs(dws[1]).max()
            assert err <= 2e-6, f"{c}->{o} k={k} stride={stride}: {err:.2e}"

    def test_input_without_grad_gets_no_dx(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 3, 7, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        g = rng.standard_normal((2, 4, 7, 6))
        wt = Tensor(w, requires_grad=True)
        out = conv2d(Tensor(x), wt, padding=1)
        assert out._backward(g)[0] is None
        out.backward(g)
        xt, w2 = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        conv2d(xt, w2, padding=1).backward(g)
        np.testing.assert_array_equal(wt.grad, w2.grad)
        # an input that is an op's output needs dx without requires_grad
        leaf = Tensor(x, requires_grad=True)
        conv2d(leaf * 1.0, Tensor(w), padding=1).backward(g)
        np.testing.assert_array_equal(leaf.grad, xt.grad)


def _naive_conv(x, w, stride, pad):
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    k = w.shape[2]
    oh = (xp.shape[2] - k) // stride + 1
    ow = (xp.shape[3] - k) // stride + 1
    ref = np.zeros((x.shape[0], w.shape[0], oh, ow))
    for n in range(x.shape[0]):
        for o in range(w.shape[0]):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[n, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    ref[n, o, i, j] = (patch * w[o]).sum()
    return ref


class TestLinear:
    def test_identity(self):
        x = np.arange(12.0).reshape(3, 4)
        out = linear(Tensor(x), Tensor(np.eye(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, x)

    def test_zero_weight_gives_bias(self):
        b = np.array([1.0, -2.0])
        out = linear(Tensor(np.ones((5, 3))), Tensor(np.zeros((3, 2))), Tensor(b))
        np.testing.assert_allclose(out.data, np.tile(b, (5, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="linear shape mismatch"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))), Tensor(np.zeros(5)))

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 10))
        w = rng.standard_normal((10, 7))
        b = rng.standard_normal(7)
        gradcheck(linear, [x, w, b])


class TestBatchNorm:
    def test_constant_channel_centers_to_zero(self):
        x = Tensor(np.full((4, 2, 3, 3), 7.5))
        rm, rv = _bn_buffers(2)
        out = batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((8, 3, 2, 2)).astype(np.float32))
        beta = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        rm, rv = _bn_buffers(3)
        out = batch_norm(x, Tensor(np.zeros(3)), Tensor(beta), rm, rv, training=True)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.reshape(1, 3, 1, 1), out.shape))

    def test_normalizes_batch_statistics(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((16, 4, 5, 5)) * 3.0 + 1.0)
        rm, rv = _bn_buffers(4, np.float64)
        out = batch_norm(x, Tensor(np.ones(4, dtype=np.float64)), Tensor(np.zeros(4, dtype=np.float64)), rm, rv, training=True)
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.0, atol=1e-5)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_running_stats_feed_eval_mode(self):
        rng = np.random.default_rng(8)
        c = 3
        rm, rv = _bn_buffers(c, np.float64)
        gamma, beta = Tensor(np.ones(c, dtype=np.float64)), Tensor(np.zeros(c, dtype=np.float64))
        x = rng.standard_normal((32, c, 4, 4)) * 2.0 + 5.0
        for _ in range(120):
            batch_norm(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(rm.data, x.mean(axis=(0, 2, 3)), rtol=1e-3)

        out = batch_norm(Tensor(x), gamma, beta, rm, rv, training=False)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=0.05)

    def test_affine_shape_validation(self):
        rm, rv = _bn_buffers(4)
        with pytest.raises(ValueError, match="affine params"):
            batch_norm(Tensor(np.ones((2, 4, 2, 2))), Tensor(np.ones(3)), Tensor(np.zeros(4)), rm, rv, training=True)

    def test_gradcheck_training_mode(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3, 4, 4))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        rm, rv = _bn_buffers(3, np.float64)
        gradcheck(lambda a, g, b: batch_norm(a, g, b, rm, rv, training=True), [x, gamma, beta])

    def test_gradcheck_eval_mode(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 3, 2, 2))
        gamma = rng.standard_normal(3)
        beta = rng.standard_normal(3)
        rm = Tensor(rng.standard_normal(3))
        rv = Tensor(rng.uniform(0.5, 2.0, 3))
        gradcheck(lambda a, g, b: batch_norm(a, g, b, rm, rv, training=False), [x, gamma, beta])

    @pytest.mark.parametrize("shape", [(6, 4), (6, 4, 5), (2, 4, 3, 3, 1)])
    def test_refuses_a_batch_that_is_not_nchw(self, shape):
        rm, rv = _bn_buffers(4)
        with pytest.raises(ValueError, match="NCHW"):
            batch_norm(Tensor(np.ones(shape)), Tensor(np.ones(4)), Tensor(np.zeros(4)), rm, rv, training=True)

    def test_channel_last_float32_input(self):
        # conv outputs are float32 NCHW views of (h, w, n, c) memory; such an
        # input, or a channel-last one, must give its contiguous copy's
        # results bit for bit, in float32
        rng = np.random.default_rng(16)
        x = (rng.standard_normal((4, 6, 5, 7)) * 2.0 + 1.0).astype(np.float32)
        x_cl = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
        x_bi = np.ascontiguousarray(x.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
        seed = rng.standard_normal(x.shape).astype(np.float32)
        gamma = rng.standard_normal(6).astype(np.float32)
        beta = rng.standard_normal(6).astype(np.float32)
        for training in (True, False):
            results = []
            for xin in (x, x_cl, x_bi):
                rm = Tensor(np.linspace(-0.5, 0.5, 6, dtype=np.float32))
                rv = Tensor(np.linspace(0.5, 2.0, 6, dtype=np.float32))
                ts = [Tensor(a, requires_grad=True) for a in (xin, gamma, beta)]
                out = batch_norm(*ts, rm, rv, training=training)
                out.backward(seed)
                results.append((out.data, *(t.grad for t in ts), rm.data, rv.data))
            for a, *others in zip(*results):
                for b in others:
                    assert a.dtype == b.dtype == np.float32
                    np.testing.assert_array_equal(a, b)

    def test_batch_statistics_match_float64_on_desk_stage0_shape(self):
        # with momentum 1 the running buffers hold this batch's mean and
        # unbiased variance, computed in float32
        rng = np.random.default_rng(17)
        x = rng.standard_normal((128, 32, 32, 16)) * rng.uniform(0.5, 3.0, 16) + rng.uniform(0.5, 2.0, 16)
        x32 = x.astype(np.float32).transpose(0, 3, 1, 2)
        rm, rv = _bn_buffers(16)
        batch_norm(Tensor(x32), Tensor(np.ones(16, np.float32)), Tensor(np.zeros(16, np.float32)),
                   rm, rv, training=True, momentum=1.0)
        ref = x32.astype(np.float64)
        np.testing.assert_allclose(rm.data, ref.mean(axis=(0, 2, 3)), rtol=1e-5)
        np.testing.assert_allclose(rv.data, ref.var(axis=(0, 2, 3), ddof=1), rtol=1e-5)


class TestPooling:
    def test_max_pool_example(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert max_pool2d(x, 2).item() == 4.0

    def test_avg_pool_example(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert avg_pool2d(x, 2).item() == 2.5

    def test_max_pool_tie_routes_to_first(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        max_pool2d(x, 2).backward(np.ones((1, 1, 1, 1)))
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_max_pool_padding_uses_minus_inf(self):
        x = Tensor(np.full((1, 1, 2, 2), -5.0))
        out = max_pool2d(x, 3, stride=2, padding=1)
        # padded zeros must not win over negative activations
        assert out.data.max() == -5.0

    def test_window_too_large(self):
        with pytest.raises(ValueError, match="larger than"):
            avg_pool2d(Tensor(np.ones((1, 1, 2, 2))), 3)

    def test_stride_defaults_to_window(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        assert max_pool2d(x, 2).shape == (1, 1, 2, 2)

    def test_gradcheck_max_pool(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            x = rng.standard_normal((2, 2, 6, 6))
            # separate entries so finite differences cannot flip the argmax
            x += np.arange(x.size).reshape(x.shape) * 1e-2
            gradcheck(lambda t: max_pool2d(t, 2, stride=2), [x.copy()])

    def test_gradcheck_avg_pool(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 4, 4))
        gradcheck(lambda t: avg_pool2d(t, 2), [x])
        gradcheck(lambda t: avg_pool2d(t, 4), [x])  # global

    def test_avg_pool_window_not_dividing_input(self):
        # 7x7 in windows of 3: row 6 and column 6 lie in no window
        x = np.random.default_rng(13).standard_normal((2, 3, 7, 7))
        gradcheck(lambda t: avg_pool2d(t, 3), [x])
        xt = Tensor(x, requires_grad=True)
        out = avg_pool2d(xt, 3)
        seed = np.ones(out.shape)
        seed[0, 0, 0, 0] = -0.0
        out.backward(seed)
        np.testing.assert_array_equal(xt.grad[:, :, 6, :], 0.0)
        np.testing.assert_array_equal(xt.grad[:, :, :, 6], 0.0)
        np.testing.assert_array_equal(xt.grad[:, :, :6, :6], 1.0 / 9.0 * (seed != 0).repeat(3, 2).repeat(3, 3))
        assert not np.signbit(xt.grad).any()  # a -0.0 gradient arrives as +0.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.array([1, 5, 2, 9]))
        assert loss.item() == pytest.approx(math.log(10.0), rel=1e-6)

    def test_huge_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 3] = 80.0
        loss = softmax_cross_entropy(Tensor(logits), np.array([3]))
        assert loss.item() < 1e-6

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="label out of range"):
            softmax_cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(13)
        logits = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        labels = np.array([0, 2, 5])
        softmax_cross_entropy(logits, labels).backward()
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        p[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(logits.grad, p / 3.0, rtol=1e-6)

    def test_gradcheck(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            logits = rng.standard_normal((4, 7))
            labels = rng.integers(0, 7, size=4)
            gradcheck(lambda t: softmax_cross_entropy(t, labels), [logits.copy()])
