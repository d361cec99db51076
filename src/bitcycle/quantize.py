"""Fake quantization for weights and activations, with straight-through gradients.

Quantizers run in the forward pass only; the real-valued master tensors keep
receiving gradient updates. Weight quantization normalizes through tanh into
[0, 1], snaps onto a uniform lattice of 2^k levels, and maps back to [-1, 1];
the binary case uses sign times the mean magnitude instead. Activations are
clamped to [0, 1] and snapped onto the same kind of lattice. Bit depth 32
means quantization is disabled: apply_quantizer and the fake-quant nodes
are the identity there, and QuantSpec.identity is the one place that says so.

Rounding is half-away-from-zero everywhere, applied identically here and in
any reference evaluation; numpy's round (banker's rounding) is deliberately
not used. Both lattice quantizers round values that are non-negative by
construction, where half-away-from-zero is floor(v + 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _node

REAL_BITS = 32

KINDS = ("weight_multi_bit", "weight_binary", "activation")


class DegenerateInputError(ValueError):
    """Raised when a quantizer meets an all-zero (or empty) tensor."""


@dataclass(frozen=True)
class QuantSpec:
    """Bit depth plus quantizer kind; k = 32 disables quantization."""

    k: int
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown quantizer kind {self.kind!r}")
        if not 1 <= self.k <= REAL_BITS:
            raise ValueError(f"bit depth must be in [1, {REAL_BITS}], got {self.k}")
        if self.kind == "weight_binary" and self.k != 1:
            raise ValueError(f"binary weight quantizer requires k=1, got k={self.k}")
        if self.kind == "weight_multi_bit" and self.k == 1:
            raise ValueError("k=1 weights use the binary quantizer, not the multi-bit one")

    @property
    def identity(self) -> bool:
        return self.k == REAL_BITS


def weight_spec(k: int) -> QuantSpec:
    if k == 1:
        return QuantSpec(1, "weight_binary")
    return QuantSpec(k, "weight_multi_bit")


def activation_spec(k: int) -> QuantSpec:
    return QuantSpec(k, "activation")


def _check_nonzero(w: np.ndarray, what: str) -> None:
    if w.size == 0:
        raise DegenerateInputError(f"{what}: empty tensor")
    if not np.any(w):
        raise DegenerateInputError(f"{what}: all-zero tensor (broken initialization?)")


def normalize_weights(w: np.ndarray) -> np.ndarray:
    """Map weights into [0, 1] via tanh, scaled so the max magnitude hits 0 or 1."""
    w = np.asarray(w)
    _check_nonzero(w, "normalize_weights")
    t = np.tanh(w)
    m = np.max(np.abs(t))
    return t / (2.0 * m) + 0.5


def quantize_weights_kbit(w: np.ndarray, k: int) -> np.ndarray:
    """Snap weights onto the k-bit lattice in [-1, 1] (k >= 2)."""
    if k < 2:
        raise ValueError(f"quantize_weights_kbit needs k >= 2, got {k}")
    levels = float(2 ** k - 1)
    wn = normalize_weights(w)
    return 2.0 * np.floor(wn * levels + 0.5) / levels - 1.0


def quantize_weights_binary(w: np.ndarray) -> np.ndarray:
    """sign(w) times mean |w|, with sign(0) taken as +1 so no output is zero."""
    w = np.asarray(w)
    _check_nonzero(w, "quantize_weights_binary")
    m = np.mean(np.abs(w))
    return np.where(w >= 0, m, -m)


def quantize_activations(x: np.ndarray, k: int) -> np.ndarray:
    """Clamp to [0, 1] and snap onto the k-bit lattice."""
    if k < 1:
        raise ValueError(f"activation bit depth must be >= 1, got {k}")
    levels = float(2 ** k - 1)
    # clip makes the one new array (float even for integer input); the
    # lattice snap then runs in place on it. At k = 1 (one level) the scale
    # and unscale are exact no-ops, so they are skipped.
    q = np.asarray(np.clip(x, 0.0, 1.0))
    if k > 1:
        q *= levels
    q += 0.5
    np.floor(q, out=q)
    if k > 1:
        q /= levels
    return q


def apply_quantizer(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    if spec.identity:
        return np.asarray(x)
    if spec.kind == "weight_binary":
        return quantize_weights_binary(x)
    if spec.kind == "weight_multi_bit":
        return quantize_weights_kbit(x, spec.k)
    return quantize_activations(x, spec.k)


def ste_backward(upstream: np.ndarray, pre_quant: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Pass the upstream gradient where lo <= input <= hi, zero elsewhere."""
    mask = (pre_quant >= lo) & (pre_quant <= hi)
    return upstream * mask


def _fake_quant(t: Tensor, spec: QuantSpec) -> Tensor:
    """Forward apply_quantizer(t, spec); backward by the spec's kind.

    An identity spec hands t back untouched, so no node is made. Both STEs mask the gradient to the input window: [-1, 1] for binary
    weights, [0, 1] for activations. Multi-bit weights differentiate the
    tanh normalization exactly, holding the max |tanh| scale fixed, and
    treat the rounding as a straight pass-through.
    """
    if spec.identity:
        return t
    d = t.data
    out = apply_quantizer(d, spec).astype(d.dtype, copy=False)
    if spec.kind == "weight_multi_bit":
        def backward(g):
            # d is the live parameter array; backward runs before the optimizer
            # updates it, so tanh and its max are those the forward pass used
            th = np.tanh(d)
            return (g * (1.0 - th * th) / np.max(np.abs(th)),)
    else:
        lo = -1.0 if spec.kind == "weight_binary" else 0.0

        def backward(g):
            return (ste_backward(g, d, lo, 1.0),)

    return _node(out, (t,), backward)


def fq_weights(w: Tensor, k: int) -> Tensor:
    """Fake-quantize a weight tensor at bit depth k inside the autodiff graph."""
    return _fake_quant(w, weight_spec(k))


def fq_activations(x: Tensor, k: int) -> Tensor:
    """Fake-quantize activations at bit depth k; gradient passes on [0, 1]."""
    return _fake_quant(x, activation_spec(k))
