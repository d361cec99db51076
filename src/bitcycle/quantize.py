"""Fake quantization for weights and activations, with straight-through gradients.

Quantizers run in the forward pass only; the real-valued master tensors keep
receiving gradient updates. Weight quantization normalizes through tanh into
[0, 1], snaps onto a uniform lattice of 2^k levels, and maps back to [-1, 1];
the binary case uses sign times the mean magnitude instead. Activations are
clamped to [0, 1] and snapped onto the same kind of lattice: an index j
in 0..2^k - 1 (``activation_index``), then j / (2^k - 1)
(``index_to_unit``). Under a graph, an activation also gets a code array:
j in the low bits of the smallest unsigned dtype with a bit to spare, and
its straight-through window flag in that dtype's top bit (``code_index``
and ``code_window`` read them). Bit depth 32 means quantization is
disabled: apply_quantizer and the fake-quant nodes are the identity there,
and QuantSpec.identity is the one place that says so.

Rounding is half-away-from-zero everywhere, applied identically here and in
any reference evaluation; numpy's round (banker's rounding) is deliberately
not used. Both lattice quantizers round values that are non-negative by
construction, where half-away-from-zero is floor(v + 0.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, _needs_graph, _node

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


def activation_index(x: np.ndarray, k: int) -> np.ndarray:
    """The k-bit lattice index of each activation, floor(clip(x, 0, 1) * L + 0.5)
    with L = 2^k - 1, as whole numbers in a new float array."""
    if k < 1:
        raise ValueError(f"activation bit depth must be >= 1, got {k}")
    # clip makes the one new array (float even for integer input); the
    # lattice snap then runs in place on it. At k = 1 (one level) the scale
    # is an exact no-op, so it is skipped.
    q = np.asarray(np.clip(x, 0.0, 1.0))
    if k > 1:
        q *= float(2 ** k - 1)
    q += 0.5
    np.floor(q, out=q)
    return q


def index_to_unit(q: np.ndarray, k: int) -> np.ndarray:
    """Divide float lattice indices by 2^k - 1 in place, onto [0, 1]; at k = 1
    the division is by one, so it is skipped."""
    if k > 1:
        q /= float(2 ** k - 1)
    return q


def quantize_activations(x: np.ndarray, k: int) -> np.ndarray:
    """Clamp to [0, 1] and snap onto the k-bit lattice."""
    return index_to_unit(activation_index(x, k), k)


def apply_quantizer(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    if spec.identity:
        return np.asarray(x)
    if spec.kind == "weight_binary":
        return quantize_weights_binary(x)
    if spec.kind == "weight_multi_bit":
        return quantize_weights_kbit(x, spec.k)
    return quantize_activations(x, spec.k)


def ste_mask(pre_quant: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The straight-through window: True where lo <= input <= hi."""
    return (pre_quant >= lo) & (pre_quant <= hi)


def ste_backward(upstream: np.ndarray, pre_quant: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Pass the upstream gradient where lo <= input <= hi, zero elsewhere."""
    return upstream * ste_mask(pre_quant, lo, hi)


def _window_bit(dtype: np.dtype):
    """The top bit of an activation code's dtype, which flags the STE window."""
    return dtype.type(1 << (8 * dtype.itemsize - 1))


def activation_code(x: np.ndarray, index: np.ndarray, k: int) -> np.ndarray:
    """Pack the k-bit lattice indices of x and its [0, 1] STE window into one
    unsigned array: uint8 for k <= 7, uint16 for k <= 15, uint32 above. The
    index takes the low bits and the window flag the top bit, which no index
    reaches."""
    dtype = np.min_scalar_type(2 ** (k + 1) - 1)
    bit = _window_bit(dtype)
    # NaN has no index: its cast is arbitrary and may set the top bit, so
    # that bit is cleared before the mask sets it. The float output carries
    # the NaN on, and the batch norm after a model's conv then makes every
    # gradient reaching that conv NaN
    with np.errstate(invalid="ignore"):
        code = index.astype(dtype)
    code &= bit - 1
    code |= np.multiply(ste_mask(x, 0.0, 1.0), bit, dtype=dtype)
    return code


def code_index(code: np.ndarray) -> np.ndarray:
    """The lattice indices an activation code packs, in the code's dtype."""
    return code & (_window_bit(code.dtype) - 1)


def code_window(code: np.ndarray) -> np.ndarray:
    """The STE window mask an activation code packs: True where 0 <= x <= 1."""
    return code >= _window_bit(code.dtype)


def _fake_quant(t: Tensor, spec: QuantSpec) -> Tensor:
    """Forward apply_quantizer(t, spec); backward by the spec's kind.

    An identity spec hands t back untouched, so no node is made. Both STEs
    mask the gradient to the input window: [-1, 1] for binary weights,
    [0, 1] for activations. Multi-bit weights differentiate the tanh
    normalization exactly, holding the max |tanh| scale fixed, and treat
    the rounding as a straight pass-through. The weight closures read the
    live parameter.

    Only when a graph is recorded, an activation node saves one code array
    (``activation_code``: one byte an element for k <= 7, where the float
    input would take four or eight), and the output carries it and k as
    ``_lattice``. The node's backward reads the window bits; a conv's
    backward keeps the same array in place of the float output and rebuilds
    j / (2^k - 1) from the index bits with the forward's own cast and
    division (``index_to_unit``), so no bit moves. An eval forward makes no
    code.
    """
    if spec.identity:
        return t
    d = t.data
    if spec.kind == "activation":
        q = activation_index(d, spec.k)
        code = activation_code(d, q, spec.k) if _needs_graph(t) else None

        def backward(g):
            return (g * code_window(code),)

        out = _node(index_to_unit(q, spec.k), (t,), backward)
        out._lattice = None if code is None else (code, spec.k)
        return out
    out = apply_quantizer(d, spec).astype(d.dtype, copy=False)
    if spec.kind == "weight_multi_bit":
        def backward(g):
            # d is the live parameter array; backward runs before the optimizer
            # updates it, so tanh and its max are those the forward pass used
            th = np.tanh(d)
            return (g * (1.0 - th * th) / np.max(np.abs(th)),)
    else:
        def backward(g):
            return (ste_backward(g, d, -1.0, 1.0),)
    return _node(out, (t,), backward)


def fq_weights(w: Tensor, k: int) -> Tensor:
    """Fake-quantize a weight tensor at bit depth k inside the autodiff graph."""
    return _fake_quant(w, weight_spec(k))


def fq_activations(x: Tensor, k: int) -> Tensor:
    """Fake-quantize activations at bit depth k; gradient passes on [0, 1]."""
    return _fake_quant(x, activation_spec(k))
