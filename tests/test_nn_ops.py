"""Network ops: convolution, batch norm, pooling, cross-entropy."""

import contextlib
import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bitcycle import nn
from bitcycle.config import RunConfig
from bitcycle.models import build_model, desk_config
from bitcycle.nn import (
    avg_pool2d,
    batch_norm,
    conv2d,
    linear,
    max_pool2d,
    softmax_cross_entropy,
)
from bitcycle.quantize import fq_activations, ste_mask
from bitcycle.tensor import Tensor, no_grad

from gradcheck import gradcheck
from test_golden import blas_core

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")


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

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="only CPython 3.11+ moves a call's arguments "
                        "into the callee's frame; before, the caller keeps the input to the end of the call")
    @pytest.mark.parametrize("graph", [False, True])
    def test_lets_go_of_a_temporary_input_once_its_grid_exists(self, graph):
        # an input handed over as a call temporary is freed once the padded
        # grid holds its copy, before the accumulator exists, whether no
        # graph is recorded or backward keeps the quantizer's code array.
        # The call then peaks at grid + output + one tap product + the
        # (taps, c, o) weight copy, plus a few KiB of Python objects
        n, c, o, hw = 64, 16, 16, 16
        rng = np.random.default_rng(24)
        tracemalloc.start()
        try:
            w = Tensor(rng.standard_normal((o, c, 3, 3)).astype(np.float32), requires_grad=graph)
            x = Tensor(rng.uniform(-0.2, 1.2, (n, c, hw, hw)).astype(np.float32), requires_grad=graph)
            with contextlib.nullcontext() if graph else no_grad():
                inputs = [fq_activations(x, 1)]
                assert (inputs[0]._lattice is not None) == graph
                before = tracemalloc.get_traced_memory()[0] - inputs[0].data.nbytes
                tracemalloc.reset_peak()
                out = conv2d(inputs.pop(), w, padding=1)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        band, _ = nn._gemm_tiling(hw * n, c, o)
        grid, tap, weights = (hw + 2) ** 2 * n * c * 4, band * hw * n * o * 4, 9 * c * o * 4
        assert 0 <= peak - before - (grid + out.data.nbytes + tap + weights) < 16 << 10

    def test_gradcheck(self):
        rng = np.random.default_rng(4)
        for k, stride, pad, size in [(3, 1, 0, 6), (3, 1, 1, 6), (3, 2, 1, 6), (1, 2, 0, 7), (3, 2, 1, 7)]:
            x = rng.standard_normal((2, 3, size, size))
            w = rng.standard_normal((4, 3, k, k))
            gradcheck(lambda a, b: conv2d(a, b, stride=stride, padding=pad), [x.copy(), w.copy()])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [1, 2, 4, 7, 8, 9])
    def test_lattice_index_input_keeps_every_gradient_bit(self, k, dtype):
        # a conv fed a quantizer's output keeps its code array (one byte up
        # to k = 7, two above), not the floats, and rebuilds the floats in
        # backward; dx and dw must equal those of the same floats fed as a
        # plain Tensor
        rng = np.random.default_rng(21)
        q = fq_activations(Tensor(rng.uniform(-0.2, 1.2, (3, 4, 9, 8)).astype(dtype), requires_grad=True), k)
        code = q._lattice[0]
        assert code.dtype == (np.uint8 if k <= 7 else np.uint16)
        for kernel, stride in itertools.product((1, 3), (1, 2)):
            w = Tensor(rng.standard_normal((5, 4, kernel, kernel)).astype(dtype), requires_grad=True)
            fed = conv2d(q, w, stride=stride, padding=kernel // 2)
            plain = conv2d(Tensor(q.data.copy(), requires_grad=True), w, stride=stride, padding=kernel // 2)
            cells = [c.cell_contents for c in fed._backward.__closure__]
            assert any(c is code for c in cells) and not any(c is q.data for c in cells)
            np.testing.assert_array_equal(fed.data, plain.data)
            g = rng.standard_normal(fed.shape).astype(dtype)
            for a, b in zip(fed._backward(g), plain._backward(g)):
                assert a.dtype == b.dtype == dtype
                np.testing.assert_array_equal(a, b, err_msg=f"kernel {kernel} stride {stride}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [(8, 8), (9, 7)])
    def test_strided_one_by_one_keeps_only_the_phase_it_reads(self, size, dtype):
        # a 1x1 stride-2 conv on a float input, such as a type2 block's
        # shortcut, reads only phase (0, 0) of it: backward keeps that grid,
        # a quarter of the input's bytes for an even size, not the input.
        # Output and gradients equal a stride-1 conv's on that phase alone
        rng = np.random.default_rng(23)
        h, w = size
        x = Tensor(rng.standard_normal((4, 6, h, w)).astype(dtype), requires_grad=True)
        weight = Tensor(rng.standard_normal((8, 6, 1, 1)).astype(dtype), requires_grad=True)
        phase = Tensor(np.ascontiguousarray(x.data[:, :, ::2, ::2]), requires_grad=True)
        out, ref = conv2d(x, weight, stride=2), conv2d(phase, weight)
        kept = [c.cell_contents for c in out._backward.__closure__ if isinstance(c.cell_contents, np.ndarray)]
        assert not any(np.shares_memory(a, x.data) for a in kept)
        assert sum(a.nbytes for a in kept) - weight.data.nbytes == phase.data.nbytes
        if h % 2 == w % 2 == 0:
            assert phase.data.nbytes * 4 == x.data.nbytes
        np.testing.assert_array_equal(out.data, ref.data)
        g = rng.standard_normal(out.shape).astype(dtype)
        out.backward(g)
        dw = weight.grad
        weight.grad = None
        ref.backward(g)
        np.testing.assert_array_equal(dw, weight.grad)
        np.testing.assert_array_equal(x.grad[:, :, ::2, ::2], phase.grad)
        x.grad[:, :, ::2, ::2] = 0
        assert x.grad.dtype == dtype and not x.grad.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_convs_sharing_one_lattice_index(self, dtype):
        # a type1 block feeds one quantized input to conv1 and to the
        # downsample conv: both keep the one index array, and the input's
        # gradient is the plain floats' gradient through the quantizer's mask
        rng = np.random.default_rng(22)
        x = Tensor(rng.uniform(-0.2, 1.2, (4, 6, 8, 8)).astype(dtype), requires_grad=True)
        w1 = Tensor(rng.standard_normal((8, 6, 3, 3)).astype(dtype), requires_grad=True)
        wd = Tensor(rng.standard_normal((8, 6, 1, 1)).astype(dtype), requires_grad=True)
        g = rng.standard_normal((4, 8, 4, 4)).astype(dtype)
        grads = []
        for fed in (True, False):
            q = fq_activations(x, 2)
            inp = q if fed else Tensor(q.data.copy(), requires_grad=True)
            convs = (conv2d(inp, w1, stride=2, padding=1), conv2d(inp, wd, stride=2))
            if fed:
                saved = [[c.cell_contents for c in y._backward.__closure__
                          if isinstance(c.cell_contents, np.ndarray) and c.cell_contents.shape == x.shape]
                         for y in convs]
                assert [len(a) for a in saved] == [1, 1] and saved[0][0] is saved[1][0] is q._lattice[0]
            del q
            ((convs[0] * g).sum() + (convs[1] * g).sum()).backward()
            grads.append((x.grad if fed else inp.grad * ste_mask(x.data, 0.0, 1.0), w1.grad, wd.grad))
            for t in (x, w1, wd):
                t.grad = None
        for a, b in zip(*grads):
            assert a.dtype == b.dtype == dtype
            np.testing.assert_array_equal(a, b)

    @staticmethod
    def _assert_band_size_keeps_bits(monkeypatch, n, c, o, size, k, stride, pad, dtype, seed,
                                     pieces_exact=True):
        """Run the conv at four GEMM caps: no split (one band for the whole
        map), the shipped cap, half of it, and m*c*o (one-row bands, P = 1).
        Output, dx and dw must agree bit for bit across band heights, and the
        output and dx across pieces too (to within a few ulps when
        pieces_exact is False); dw adds its rows in other pieces there, so it
        is compared only between runs of equal P, and in every run with the
        sum of one GEMM per (output row, piece) built here. size is the
        input's (height, width), or an int h for (h, h - 1). Returns the
        number of bands the shipped cap cut the forward pass into."""
        rng = np.random.default_rng(seed)
        hw = size if isinstance(size, tuple) else (size, size - 1)
        x = rng.standard_normal((n, c, *hw)).astype(dtype)
        w = rng.standard_normal((o, c, k, k)).astype(dtype)
        oh, ow = ((d + 2 * pad - k) // stride + 1 for d in hw)
        g = np.random.default_rng(16).standard_normal((n, o, oh, ow)).astype(dtype)
        m = ow * n
        runs = []  # ((band, pieces), (output, dx, dw)) per cap
        for cap in (10**12, nn.GEMM_ELEMS, nn.GEMM_ELEMS // 2, m * c * o):
            with monkeypatch.context() as mp:
                mp.setattr(nn, "GEMM_ELEMS", cap)
                tiling = nn._gemm_tiling(m, c, o)
                xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
                out = conv2d(xt, wt, stride=stride, padding=pad)
                out.backward(g)
            runs.append((tiling, (out.data, xt.grad, wt.grad)))
            np.testing.assert_array_equal(wt.grad, _dw_by_pieces(x, g, k, stride, pad, tiling[1]),
                                          err_msg=f"dw at {tiling[1]} pieces")
        assert oh >= 2 and runs[-1][0] == (1, 1)  # one-row bands really split the map
        msg = f"n={n} {c}->{o} size={size} k={k} stride={stride} pad={pad} {dtype.__name__}"
        for (band, pieces), run in runs:
            assert band == 1 or pieces == 1, (band, pieces)
            for (band2, pieces2), run2 in runs:
                if pieces2 == pieces:
                    for a, b in zip(run, run2):
                        np.testing.assert_array_equal(a, b, err_msg=f"{msg} bands {band}/{band2}")
            for a, b in zip(run[:2], runs[-1][1][:2]):
                if pieces_exact:
                    np.testing.assert_array_equal(a, b, err_msg=f"{msg} pieces={pieces}")
                else:
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-6 * np.abs(b).max(), err_msg=msg)
        return -(-oh // nn._gemm_tiling(m, c, o)[0])

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
        # a smaller batch; the shipped cap cuts the 32x32 maps into bands
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
        # the same row of a larger one, so there only dw moves; stage 0 runs
        # in float64 too, so dw at P > 1 meets its sequential sum in both
        for (c, o, width, pieces), dtype in [*((stage, np.float32) for stage in self.DESK_STAGES),
                                             (self.DESK_STAGES[0], np.float64)]:
            assert nn._gemm_tiling(width * 128, c, o) == (1, pieces), (c, o)
            self._assert_band_size_keeps_bits(monkeypatch, 128, c, o, (4, width), 3, 1, 1, dtype,
                                              seed=20, pieces_exact=blas_core() == "SkylakeX")

    def test_shipped_cap_tiles_the_benchmark_models(self, monkeypatch):
        # (band, pieces) of every conv of one forward pass, in call order: at
        # batch 128 the desk convs split and only the stem stacks rows; the
        # synthetic benefit study's small convs all stack rows whole
        tilings, tiling = [], nn._gemm_tiling

        def record(m, c, o):
            tilings.append(tiling(m, c, o))
            return tilings[-1]

        monkeypatch.setattr(nn, "_gemm_tiling", record)
        bench = RunConfig.from_file(os.path.join(CONFIGS, "synthetic_benefit.cfg"))
        size, batch = bench["data.synth_size"], bench["data.batch_size"]
        with no_grad():
            build_model(desk_config(1)).forward(Tensor(np.zeros((128, 3, 32, 32), np.float32)))
            desk = tilings[:]
            build_model(bench.model_config(1)).forward(Tensor(np.zeros((batch, 3, size, size), np.float32)))
        small = tilings[len(desk):]
        assert len(desk) == 20 and len(small) == 6, tilings
        assert desk[0][0] == 2 and all(band == 1 for band, _ in desk[1:]), desk
        assert all(pieces == 1 and band >= 4 for band, pieces in small), small
        assert all(band == 1 or pieces == 1 for band, pieces in tilings), tilings

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


def _dw_by_pieces(x, g, k, stride, pad, pieces):
    """The weight gradient summed from zero, per tap, one GEMM of the output
    gradient's rows by the input rows the tap reads per (output row, piece),
    in ascending (row, piece) order."""
    c, (n, o, oh, ow) = x.shape[1], g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dw = np.zeros((o, c, k, k), dtype=np.result_type(x, g))
    for i, j in itertools.product(range(k), range(k)):
        for q in range(oh):
            xs = xp[:, :, q * stride + i, j : j + stride * (ow - 1) + 1 : stride]
            xs = np.ascontiguousarray(xs.transpose(2, 0, 1)).reshape(pieces, -1, c)
            gs = np.ascontiguousarray(g[:, :, q].transpose(2, 0, 1)).reshape(pieces, -1, o)
            for gp, xq in zip(gs, xs):
                dw[:, :, i, j] += gp.T @ xq
    return dw


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
