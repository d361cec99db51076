"""Quantizer family: forward values and STE gradients."""

import numpy as np
import pytest

from bitcycle.quantize import (
    DegenerateInputError,
    QuantSpec,
    activation_spec,
    apply_quantizer,
    code_index,
    code_window,
    fq_activations,
    fq_weights,
    normalize_weights,
    quantize_activations,
    quantize_weights_binary,
    quantize_weights_kbit,
    ste_backward,
    ste_mask,
    weight_spec,
)
from bitcycle.tensor import Tensor, no_grad

import oracle_quant


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown quantizer kind"):
            QuantSpec(4, "nope")

    def test_k_range(self):
        with pytest.raises(ValueError):
            QuantSpec(0, "activation")
        with pytest.raises(ValueError):
            QuantSpec(33, "activation")

    def test_binary_requires_k1(self):
        with pytest.raises(ValueError, match="requires k=1"):
            QuantSpec(2, "weight_binary")

    def test_multibit_rejects_k1(self):
        with pytest.raises(ValueError, match="binary quantizer"):
            QuantSpec(1, "weight_multi_bit")

    def test_weight_spec_dispatch(self):
        assert weight_spec(1).kind == "weight_binary"
        assert weight_spec(3).kind == "weight_multi_bit"
        assert weight_spec(32).identity

    def test_apply_quantizer_dispatch(self):
        w = np.array([0.5, -1.5])
        np.testing.assert_array_equal(apply_quantizer(w, weight_spec(1)), [1.0, -1.0])
        np.testing.assert_array_equal(apply_quantizer(w, QuantSpec(32, "activation")), w)


class TestNormalize:
    def test_single_positive_maps_to_one(self):
        np.testing.assert_allclose(normalize_weights(np.array([0.37])), [1.0])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(normalize_weights(np.array([-2.0, 2.0])), [0.0, 1.0])

    def test_zero_maps_to_half(self):
        np.testing.assert_allclose(normalize_weights(np.array([-1.0, 0.0, 1.0])), [0.0, 0.5, 1.0])

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize_weights(np.zeros(5))

    def test_empty_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize_weights(np.zeros(0))


class TestWeightQuantizers:
    def test_two_bit_example(self):
        out = quantize_weights_kbit(np.array([-1.0, 0.0, 1.0]), 2)
        np.testing.assert_allclose(out, [-1.0, 1.0 / 3.0, 1.0])

    def test_eight_bit_half_step_bound(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal(1000)
        wq = quantize_weights_kbit(w, 8)
        wn = normalize_weights(w)
        assert np.abs(wq - (2.0 * wn - 1.0)).max() <= 1.0 / (2 ** 8 - 1)
        # the finer lattice never sits further from the weights on average
        assert np.abs(w - wq).mean() <= np.abs(w - quantize_weights_kbit(w, 2)).mean()

    def test_all_equal_positive_maps_to_one(self):
        np.testing.assert_array_equal(quantize_weights_kbit(np.full(7, 0.3), 4), np.ones(7))

    def test_k1_rejected(self):
        with pytest.raises(ValueError, match="k >= 2"):
            quantize_weights_kbit(np.ones(3), 1)

    def test_level_spacing(self):
        rng = np.random.default_rng(1)
        for k in range(2, 9):
            wq = quantize_weights_kbit(rng.standard_normal(4000), k)
            levels = np.unique(wq)
            assert len(levels) <= 2 ** k
            gaps = np.diff(levels)
            np.testing.assert_allclose(gaps, np.round(gaps * (2 ** k - 1) / 2) * 2 / (2 ** k - 1), atol=1e-12)

    def test_binary_example(self):
        np.testing.assert_allclose(quantize_weights_binary(np.array([0.5, -1.5])), [1.0, -1.0])
        # a constant positive tensor is its own binary image
        np.testing.assert_allclose(quantize_weights_binary(np.full(10, 0.7)), np.full(10, 0.7), rtol=1e-12)

    def test_binary_sign_of_zero_is_positive(self):
        np.testing.assert_allclose(quantize_weights_binary(np.array([0.0, 2.0])), [1.0, 1.0])

    def test_binary_positive_scale_equivariance(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(50)
        np.testing.assert_allclose(quantize_weights_binary(3.5 * w), 3.5 * quantize_weights_binary(w), rtol=1e-12)

    def test_binary_never_zero(self):
        w = np.array([0.0, 0.0, 1.0, -1.0])
        assert not np.any(quantize_weights_binary(w) == 0.0)

    def test_binary_all_zero_degenerate(self):
        with pytest.raises(DegenerateInputError):
            quantize_weights_binary(np.zeros(4))


class TestActivationQuantizer:
    def test_one_bit(self):
        assert quantize_activations(np.array(0.7), 1) == 1.0

    def test_clamp_floor(self):
        for k in (1, 2, 4, 8):
            assert quantize_activations(np.array(-3.2), k) == 0.0

    def test_two_bit_tie(self):
        assert quantize_activations(np.array(0.5), 2) == pytest.approx(2.0 / 3.0)

    def test_monotone_nondecreasing(self):
        x = np.linspace(-0.5, 1.5, 5000)
        for k in range(1, 9):
            out = quantize_activations(x, k)
            assert np.all(np.diff(out) >= 0.0)

    def test_idempotent_for_all_k(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 2, 2000)
        for k in range(1, 9):
            once = quantize_activations(x, k)
            np.testing.assert_array_equal(quantize_activations(once, k), once)

    def test_level_count_exhaustive_grid(self):
        grid = np.linspace(-3.0, 3.0, 10_000)
        for k in range(1, 9):
            assert len(np.unique(quantize_activations(grid, k))) <= 2 ** k
            assert len(np.unique(apply_quantizer(grid, weight_spec(k)))) <= 2 ** k

    def test_range(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-4, 4, 5000)
        for k in range(1, 9):
            out = quantize_activations(x, k)
            assert out.min() >= 0.0 and out.max() <= 1.0
        for k in range(2, 9):
            wq = quantize_weights_kbit(x, k)
            assert wq.min() >= -1.0 and wq.max() <= 1.0


class TestOracleAgreement:
    """Vectorized quantizers against the scalar loop reference."""

    def test_weights_multi_bit(self):
        rng = np.random.default_rng(5)
        for k in range(2, 9):
            w = rng.standard_normal(500) * rng.uniform(0.2, 3.0)
            ref = oracle_quant.ref_quantize_weights_kbit(list(w), k)
            got = quantize_weights_kbit(w, k)
            assert (got == np.asarray(ref)).all()

    def test_weights_binary(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(500)
        ref = oracle_quant.ref_quantize_weights_binary(list(w))
        assert (quantize_weights_binary(w) == np.asarray(ref)).all()

    def test_activations(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.5, 2.5, 500)
        for k in range(1, 9):
            ref = oracle_quant.ref_quantize_activations(list(x), k)
            assert (quantize_activations(x, k) == np.asarray(ref)).all()

    def test_lattice_midpoints_and_neighbours(self):
        # ties and their one-ulp neighbours are where a rounding rule shows.
        # Weights reach the normalized ties through tanh, so they land on or
        # within a few ulps of each tie; tanh(20.0) is 1.0 and fixes the scale.
        def around(v):
            return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])

        # the code a recording node saves for conv's backward, decoded as
        # conv decodes it, over the quantized depths, both sides of the code
        # byte (k = 7 and 9) and a depth well into two bytes
        for k in (*range(1, 10), 12):
            levels = 2 ** k - 1
            mid = (np.arange(levels) + 0.5) / levels
            x = around(mid)
            ref = np.asarray(oracle_quant.ref_quantize_activations(list(x), k))
            assert (quantize_activations(x, k) == ref).all()
            code, bits = fq_activations(Tensor(x, requires_grad=True), k)._lattice
            assert bits == k and code.dtype == (np.uint8 if k <= 7 else np.uint16)
            assert (code_index(code) / levels == ref).all() and code_window(code).all()
            if 2 <= k <= 8:
                w = around(np.append(np.arctanh(2.0 * mid - 1.0), 20.0))
                ref = oracle_quant.ref_quantize_weights_kbit(list(w), k)
                assert (quantize_weights_kbit(w, k) == np.asarray(ref)).all()

    def test_fake_quant_nodes(self):
        # the training path's forward values, not just the quantizers they call
        rng = np.random.default_rng(16)
        w = rng.standard_normal(500) * 1.7
        x = rng.uniform(-1.5, 2.5, 500)
        ref_inside = np.asarray(oracle_quant.ref_ste_mask(list(x), 0.0, 1.0), dtype=bool)
        for k in range(1, 10):
            ref_w = (oracle_quant.ref_quantize_weights_binary(list(w)) if k == 1
                     else oracle_quant.ref_quantize_weights_kbit(list(w), k))
            got_w = fq_weights(Tensor(w, requires_grad=True), k).data
            assert got_w.dtype == np.float64 and (got_w == np.asarray(ref_w)).all()
            ref_x = np.asarray(oracle_quant.ref_quantize_activations(list(x), k))
            node = fq_activations(Tensor(x, requires_grad=True), k)
            got_x, (code, _) = node.data, node._lattice
            assert got_x.dtype == np.float64 and (got_x == ref_x).all()
            assert code.dtype == (np.uint8 if k <= 7 else np.uint16)
            assert (code_index(code) / (2 ** k - 1) == ref_x).all()
            assert (code_window(code) == ref_inside).all()


class TestSte:
    def test_inside_window_passes(self):
        out = ste_backward(np.array([2.0]), np.array([0.5]), -1.0, 1.0)
        np.testing.assert_array_equal(out, [2.0])

    def test_outside_window_blocks(self):
        out = ste_backward(np.array([2.0]), np.array([1.5]), -1.0, 1.0)
        np.testing.assert_array_equal(out, [0.0])

    def test_boundary_is_inclusive(self):
        out = ste_backward(np.ones(2), np.array([-1.0, 1.0]), -1.0, 1.0)
        np.testing.assert_array_equal(out, [1.0, 1.0])

    def test_all_inside_is_identity(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal(100)
        x = rng.uniform(-0.99, 0.99, 100)
        np.testing.assert_array_equal(ste_backward(g, x, -1.0, 1.0), g)

    def test_mask_matches_oracle(self):
        # both windows the training path uses, in both dtypes, with every
        # boundary and the values one step outside it
        rng = np.random.default_rng(12)
        for dtype in (np.float32, np.float64):
            edges = np.array([-1.0, 0.0, 1.0], dtype=dtype)
            x = np.concatenate([rng.uniform(-1.5, 1.5, 300).astype(dtype), edges,
                                np.nextafter(edges, dtype(-2.0)), np.nextafter(edges, dtype(2.0))])
            for lo in (-1.0, 0.0):
                mask = ste_mask(x, lo, 1.0)
                ref = oracle_quant.ref_ste_mask([float(v) for v in x], lo, 1.0)
                assert mask.dtype == np.bool_ and (mask == np.asarray(ref, dtype=bool)).all()


class TestFakeQuantNodes:
    def test_k32_weights_is_same_tensor(self):
        w = Tensor(np.ones(3), requires_grad=True)
        assert fq_weights(w, 32) is w

    def test_k32_activations_gradient_passthrough(self):
        x = Tensor(np.array([5.0, -5.0]), requires_grad=True)
        y = fq_activations(x, 32) * 2.0
        y.backward(np.ones(2))
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_activation_one_bit_example(self):
        out = fq_activations(Tensor(np.array([0.2, 0.8])), 1)
        np.testing.assert_array_equal(out.data, [0.0, 1.0])

    def test_index_only_under_a_graph(self):
        # an eval forward, or one with nothing to differentiate, saves no
        # code; under a graph the window bit is the code's top bit, on both
        # sides of the code byte and past two bytes
        x = np.array([-0.3, 0.0, 0.2, 0.6, 1.0, 1.4], dtype=np.float32)
        assert fq_activations(Tensor(x), 2)._lattice is None
        with no_grad():
            assert fq_activations(Tensor(x, requires_grad=True), 2)._lattice is None
        for k, dtype, top in ((2, np.uint8, 0x80), (7, np.uint8, 0x80), (9, np.uint16, 0x8000),
                              (16, np.uint32, 0x80000000)):
            code, bits = fq_activations(Tensor(x, requires_grad=True), k)._lattice
            levels = 2 ** k - 1
            index = [0, 0, round(0.2 * levels), round(0.6 * levels), levels, levels]
            assert bits == k and code.dtype == dtype
            np.testing.assert_array_equal(code, np.array(index) + top * np.array([0, 1, 1, 1, 1, 0]))
            assert code_index(code).dtype == dtype
            np.testing.assert_array_equal(code_index(code), index)
            np.testing.assert_array_equal(code_window(code), [False, True, True, True, True, False])

    def test_double_application_idempotent(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.uniform(-1, 2, 100))
        for k in (1, 2, 4, 8):
            once = fq_activations(x, k)
            twice = fq_activations(once, k)
            np.testing.assert_array_equal(once.data, twice.data)

    def test_binary_weight_backward_masks_window(self):
        w = Tensor(np.array([0.5, -1.5, 1.0, 2.0]), requires_grad=True)
        fq_weights(w, 1).backward(np.full(4, 3.0))
        np.testing.assert_array_equal(w.grad, [3.0, 0.0, 3.0, 0.0])

    def test_activation_backward_masks_clamp_region(self):
        x = Tensor(np.array([-0.1, 0.0, 0.4, 1.0, 1.1]), requires_grad=True)
        fq_activations(x, 2).backward(np.ones(5))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("k", [1, 7, 9, 16])
    def test_nan_is_outside_the_window_at_every_code_width(self, k):
        # a NaN's lattice index is arbitrary, but its window bit is clear;
        # on x86, numpy's vectorized cast of NaN to uint32 sets the top bit,
        # and an array of four takes that path where one of three does not
        x = Tensor(np.array([np.nan, 0.5, np.nan, 1.5], dtype=np.float32), requires_grad=True)
        out = fq_activations(x, k)
        np.testing.assert_array_equal(code_window(out._lattice[0]), [False, True, False, False])
        out.backward(np.ones(4, dtype=np.float32))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    def test_multibit_weight_backward_is_smooth_chain(self):
        # round is a pass-through; what remains is d/dw of tanh(w)/max|tanh|
        rng = np.random.default_rng(10)
        wd = rng.standard_normal(64)
        w = Tensor(wd, requires_grad=True)
        fq_weights(w, 4).backward(np.ones(64))
        t = np.tanh(wd)
        expected = (1.0 - t * t) / np.abs(t).max()
        np.testing.assert_allclose(w.grad, expected, rtol=1e-12)

    def test_multibit_forward_dtype_preserved(self):
        w = Tensor(np.random.default_rng(11).standard_normal(8).astype(np.float32), requires_grad=True)
        assert fq_weights(w, 3).data.dtype == np.float32

    def test_fq_weights_all_zero_degenerate(self):
        with pytest.raises(DegenerateInputError):
            fq_weights(Tensor(np.zeros(4), requires_grad=True), 2)

