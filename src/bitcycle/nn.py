"""Neural-network ops on autodiff tensors: conv, batch norm, pooling, losses.

The entry points take NCHW activations and OIHW convolution weights.
Inside, convolution runs on a zero-padded channel-last copy of the input,
split into stride phases, with one GEMM per kernel tap: each tap reads one
contiguous row range of its phase, so no column matrix is built. Backward
rebuilds the padded copy instead of keeping it alive, trading a little
compute for a smaller peak footprint.

Batch norm works on the channel-last (rows, c) view of its input, which is
free for conv outputs: each per-channel sum is one matrix-vector product
with a ones vector, and forward and backward each fold into a per-channel
scale and shift.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _as_tensor, _node


def _padded_phases(xd: np.ndarray, stride: int, padding: int, hq: int, wq: int,
                   na: int, nb: int) -> np.ndarray:
    """Zero-padded channel-last copy of an NCHW batch, split into stride phases.

    Returns an (na, nb, n*hq*wq, c) array. Row (image, q, r) of phase (a, b)
    holds padded pixel (q*stride + a, r*stride + b), so kernel tap (i, j)
    reads one contiguous row range of phase (i % stride, j % stride). Only
    the phases some tap reads (a < na, b < nb) are kept.
    """
    n, c, h, w = xd.shape
    s, p = stride, padding
    padded = np.zeros((n, hq * s, wq * s, c), dtype=xd.dtype)
    padded[:, p : p + h, p : p + w] = xd.transpose(0, 2, 3, 1)
    grid = padded.reshape(n, hq, s, wq, s, c)[:, :, :na, :, :nb]
    return grid.transpose(2, 4, 0, 1, 3, 5).reshape(na, nb, n * hq * wq, c)


def conv2d(x, weight, stride: int = 1, padding: int = 0) -> Tensor:
    """2-d cross-correlation of an NCHW batch with an OIHW kernel."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    xd, wd = x.data, weight.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input and OIHW weight, got {xd.shape} and {wd.shape}")
    n, c, h, w = xd.shape
    o, i, kh, kw = wd.shape
    if c != i:
        raise ValueError(f"conv2d channel mismatch: input {xd.shape} has {c} channels, weight {wd.shape} expects {i}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError(f"conv2d kernel {(kh, kw)} does not fit input {xd.shape} with padding {padding}")
    s = stride
    oh = (h + 2 * padding - kh) // s + 1
    ow = (w + 2 * padding - kw) // s + 1
    hq, wq = -(-(h + 2 * padding) // s), -(-(w + 2 * padding) // s)
    na, nb, rows = min(s, kh), min(s, kw), n * hq * wq
    # tap (i, j) as (phase a, phase b, row offset): output grid row m reads
    # phase row m + offset. Grid rows outside the valid oh x ow corner hold
    # garbage in forward and get a zero gradient in backward.
    taps = [(i % s, j % s, (i // s) * wq + j // s) for i in range(kh) for j in range(kw)]
    wk = np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(kh * kw, c, o)

    ph = _padded_phases(xd, s, padding, hq, wq, na, nb)
    acc = ph[0, 0] @ wk[0]
    for t, (a, b, off) in enumerate(taps[1:], 1):
        acc[: rows - off] += ph[a, b, off:] @ wk[t]
    del ph
    # a compact copy of the valid corner, so the output does not pin the grid
    out = np.ascontiguousarray(acc.reshape(n, hq, wq, o)[:, :oh, :ow]).transpose(0, 3, 1, 2)

    def backward(g):
        gf = np.zeros((n, hq, wq, o), dtype=g.dtype)
        gf[:, :oh, :ow] = g.transpose(0, 2, 3, 1)
        gf = gf.reshape(rows, o)
        ph = _padded_phases(xd, s, padding, hq, wq, na, nb)
        dph = np.zeros(ph.shape, dtype=np.result_type(g, wd))
        dwk = np.empty((kh * kw, o, c), dtype=np.result_type(g, xd))
        for t, (a, b, off) in enumerate(taps):
            dwk[t] = gf[: rows - off].T @ ph[a, b, off:]
            dph[a, b, off:] += gf[: rows - off] @ wk[t].T
        del ph
        dpad = np.zeros((n, hq * s, wq * s, c), dtype=dph.dtype)
        dgrid = dpad.reshape(n, hq, s, wq, s, c)[:, :, :na, :, :nb]
        dgrid[...] = dph.reshape(na, nb, n, hq, wq, c).transpose(2, 3, 0, 4, 1, 5)
        dx = dpad[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)
        return dx, dwk.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)

    return _node(out, (x, weight), backward)


def linear(x, weight, bias) -> Tensor:
    """Affine map ``x @ weight + bias`` with weight shaped (in, out)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ValueError(f"linear shape mismatch: input {x.data.shape} vs weight {weight.data.shape}")
    out = x.data @ weight.data + bias.data

    def backward(g):
        return g @ weight.data.T, x.data.T @ g, g.sum(axis=0)

    return _node(out, (x, weight, bias), backward)


def _channel_sums(x2: np.ndarray) -> np.ndarray:
    """Per-channel sums of a (rows, c) array, as one matrix-vector product."""
    return np.ones(x2.shape[0], dtype=x2.dtype) @ x2


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over an NCHW or NC batch.

    Training mode normalizes with biased batch statistics and folds an
    unbiased variance estimate into the running buffers in place; eval
    mode normalizes with the running buffers. gamma and beta are the
    learnable scale and shift.

    Both modes work on the (rows, c) row view of the input, which costs no
    copy for the channel-last memory conv2d returns. Every per-channel sum
    is a matrix-vector product, the output is ``x * a + b`` with the
    per-channel scale ``a = gamma / std`` and shift ``b = beta - mean * a``,
    and backward recomputes the normalized input rather than keeping it.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm affine params must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}")
    to_last, from_last = ((0, 1), (0, 1)) if xd.ndim == 2 else ((0, 2, 3, 1), (0, 3, 1, 2))
    last_shape = xd.transpose(to_last).shape

    def rows(a):
        # NCHW or NC as (rows, c); a view unless a is not channel-last
        return a.transpose(to_last).reshape(-1, c)

    x2 = rows(xd)
    n = x2.shape[0]

    if training:
        mean = _channel_sums(x2) / n
        d = x2 - mean
        np.square(d, out=d)
        var = _channel_sums(d) / n
        del d  # free it before the output is made
        rm, rv = running_mean.data, running_var.data
        rm *= 1.0 - momentum
        rm += momentum * mean
        rv *= 1.0 - momentum
        rv += momentum * var * (n / max(n - 1, 1))
    else:
        # a copy, so backward sees the statistics this forward used
        mean, var = running_mean.data.copy(), running_var.data
    inv = 1.0 / np.sqrt(var + eps)
    a = gamma.data * inv
    out = x2 * a
    out += beta.data - mean * a

    def backward(g):
        g2 = rows(g)
        xhat = rows(xd) - mean
        xhat *= inv
        dbeta = _channel_sums(g2)
        dx = g2 * xhat
        dgamma = _channel_sums(dx)
        np.multiply(g2, a, out=dx)
        if training:
            xhat *= a * dgamma / n
            dx -= xhat
            dx -= a * dbeta / n
        return dx.reshape(last_shape).transpose(from_last), dgamma, dbeta

    return _node(out.reshape(last_shape).transpose(from_last), (x, gamma, beta), backward)


def _pool_windows(xd: np.ndarray, kh: int, kw: int, stride: int, padding: int, fill: float):
    n, c, h, w = xd.shape
    if padding:
        xd = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=fill)
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ValueError(f"pool window {(kh, kw)} larger than padded input {(hp, wp)}")
    win = np.lib.stride_tricks.sliding_window_view(xd, (kh, kw), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def max_pool2d(x, window: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling; ties route the gradient to the first (lowest-index) max."""
    x = _as_tensor(x)
    xd = x.data
    kh = kw = window
    s = stride if stride is not None else window
    win = _pool_windows(xd, kh, kw, s, padding, fill=-np.inf)
    n, c, oh, ow = win.shape[:4]
    flat = win.reshape(n, c, oh, ow, kh * kw)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        hp, wp = xd.shape[2] + 2 * padding, xd.shape[3] + 2 * padding
        dxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                contrib = g * (idx == i * kw + j)
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += contrib
        if padding:
            return (dxp[:, :, padding : padding + xd.shape[2], padding : padding + xd.shape[3]],)
        return (dxp,)

    return _node(out, (x,), backward)


def avg_pool2d(x, window: int) -> Tensor:
    """Average pooling; backward spreads the gradient uniformly over the window."""
    x = _as_tensor(x)
    xd = x.data
    kh = kw = s = window
    win = _pool_windows(xd, kh, kw, s, 0, fill=0.0)
    n, c, oh, ow = win.shape[:4]
    out = win.mean(axis=(-2, -1))
    scale = 1.0 / (kh * kw)

    def backward(g):
        dx = np.zeros_like(xd)
        gs = g * scale
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += gs
        return (dx,)

    return _node(out, (x,), backward)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer class labels under softmax."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    ld = logits.data
    n, k = ld.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch of {n} logits")
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError(f"label out of range [0, {k}): min {labels.min()}, max {labels.max()}")
    shifted = ld - ld.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -logp[np.arange(n), labels].mean()

    def backward(g):
        p = np.exp(logp)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _node(np.asarray(loss, dtype=ld.dtype), (logits,), backward)
