"""Fake quantization for weights and activations, with straight-through gradients.

Quantizers run in the forward pass only; the real-valued master tensors keep
receiving gradient updates. Weight quantization normalizes through tanh into
[0, 1], snaps onto a uniform lattice of 2^k levels, and maps back to [-1, 1];
the binary case uses sign times the mean magnitude instead. Activations are
clamped to [0, 1] and snapped onto the same kind of lattice. Bit depth 32
means quantization is disabled and every op is the identity.

Rounding is half-away-from-zero everywhere, applied identically here and in
any reference evaluation; numpy's round (banker's rounding) is deliberately
not used.
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


@dataclass
class QuantErrorStats:
    """Elementwise error between a tensor and its quantized image.

    ``level_histogram`` maps each distinct quantized value to its count;
    the counts always sum to the element count.
    """

    mean_abs_err: float
    max_abs_err: float
    level_histogram: dict[float, int]


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves going away from zero."""
    return np.where(x >= 0, np.floor(x + 0.5), np.ceil(x - 0.5))


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
    """Snap weights onto the k-bit lattice in [-1, 1] (k >= 2; k = 32 is the identity)."""
    if k == REAL_BITS:
        return np.asarray(w)
    if k < 2:
        raise ValueError(f"quantize_weights_kbit needs k >= 2, got {k}")
    levels = float(2 ** k - 1)
    wn = normalize_weights(w)
    return 2.0 * round_half_away(wn * levels) / levels - 1.0


def quantize_weights_binary(w: np.ndarray) -> np.ndarray:
    """sign(w) times mean |w|, with sign(0) taken as +1 so no output is zero."""
    w = np.asarray(w)
    _check_nonzero(w, "quantize_weights_binary")
    m = np.mean(np.abs(w))
    return np.where(w >= 0, m, -m)


def quantize_activations(x: np.ndarray, k: int) -> np.ndarray:
    """Clamp to [0, 1] and snap onto the k-bit lattice (k = 32 is the identity)."""
    x = np.asarray(x)
    if k == REAL_BITS:
        return x
    if k < 1:
        raise ValueError(f"activation bit depth must be >= 1, got {k}")
    levels = float(2 ** k - 1)
    return round_half_away(np.clip(x, 0.0, 1.0) * levels) / levels


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


def fq_weights(w: Tensor, k: int) -> Tensor:
    """Fake-quantize a weight tensor at bit depth k inside the autodiff graph.

    k = 32 returns the tensor untouched. k = 1 snaps to sign times mean
    magnitude and masks the gradient to the [-1, 1] window. k >= 2 runs
    quantize_weights_kbit, the quantizer the oracle tests check; its backward
    differentiates the tanh normalization exactly, holding the max |tanh|
    scale fixed, and treats the rounding as a straight pass-through.
    """
    if k == REAL_BITS:
        return w
    wd = w.data
    if k == 1:
        out = quantize_weights_binary(wd).astype(wd.dtype)

        def backward(g):
            return (ste_backward(g, wd, -1.0, 1.0),)

        return _node(out, (w,), backward)

    out = quantize_weights_kbit(wd, k).astype(wd.dtype)

    def backward(g):
        # wd is the live parameter array; backward runs before the optimizer
        # updates it, so tanh and its max are those the forward pass used
        t = np.tanh(wd)
        return (g * (1.0 - t * t) / np.max(np.abs(t)),)

    return _node(out, (w,), backward)


def fq_activations(x: Tensor, k: int) -> Tensor:
    """Fake-quantize activations at bit depth k; gradient passes on [0, 1]."""
    if k == REAL_BITS:
        return x
    xd = x.data
    out = quantize_activations(xd, k).astype(xd.dtype)

    def backward(g):
        return (ste_backward(g, xd, 0.0, 1.0),)

    return _node(out, (x,), backward)


def error_stats(w, spec: QuantSpec) -> QuantErrorStats:
    """Quantization-error diagnostics eps = w - q(w) plus a level census."""
    wd = w.data if isinstance(w, Tensor) else np.asarray(w)
    wq = apply_quantizer(wd, spec)
    eps = wd - wq
    abs_eps = np.abs(eps)
    values, counts = np.unique(wq, return_counts=True)
    hist = {float(v): int(c) for v, c in zip(values, counts)}
    return QuantErrorStats(
        mean_abs_err=float(abs_eps.mean()),
        max_abs_err=float(abs_eps.max()),
        level_histogram=hist,
    )
