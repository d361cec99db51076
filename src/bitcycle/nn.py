"""Neural-network ops on autodiff tensors: conv, batch norm, pooling, losses.

The entry points take NCHW activations and OIHW convolution weights.
Inside, convolution runs on a zero-padded channel-last copy of the input,
split into stride phases, with one GEMM per kernel tap: each tap reads one
contiguous row range of its phase, so no column matrix is built. Forward
walks the output rows in blocks of ``BLOCK_ELEMS // max(c, o)`` rows and
runs every tap on a block before moving on, so the block's input and
accumulator rows stay in cache. Each output element still adds its taps in
tap order, so the sums are those of one full-height GEMM per tap as long
as the BLAS rounds a row alike at any GEMM height. Blocks never fall under
``1200 // min(c, o) + 1`` rows, below which OpenBLAS's small-matrix kernels
do not. Two corners fall outside that promise: ``dx`` at c = 1, where numpy
sends the one-column product down a matrix-vector path, and forward with
few output channels against many inputs (o <= 8 at c = 64, o <= 3 at c = 16
in float64, o = 1 at c >= 8). There a block split can change the last bits
of a sum. No shipped conv reaches either corner. The input gradient is a
gather over the same blocks: each block of phase rows sums, from zero and
in tap order, the output-gradient rows its taps read, which is what one
full-height scatter per tap adds. The weight gradient stays one full-height
GEMM per tap. An input that needs no gradient, such as the image batch,
gets none computed. Backward rebuilds the padded copy instead of keeping it
alive, trading a little compute for a smaller peak footprint.

Batch norm works on the channel-last (rows, c) view of its input, which is
free for conv outputs: each per-channel sum is one matrix-vector product
with a ones vector, and forward and backward each fold into a per-channel
scale and shift. Its elementwise passes run on the (n*h, w*c) view of the
same memory against per-channel vectors tiled w times, so each inner loop
covers a whole image row rather than c elements.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, _as_tensor, _node

# Convolution walks its output rows in blocks of BLOCK_ELEMS // max(c, o)
# rows, so one block's input, accumulator and gradient rows stay in cache,
# but of no fewer than 1200 // min(c, o) + 1 rows (see the module docstring).
BLOCK_ELEMS = 32768


def _padded_phases(xd: np.ndarray, stride: int, padding: int, hq: int, wq: int,
                   na: int, nb: int) -> np.ndarray:
    """Zero-padded channel-last copy of an NCHW batch, split into stride phases.

    Returns an (na, nb, n*hq*wq, c) array. Row (image, q, r) of phase (a, b)
    holds padded pixel (q*stride + a, r*stride + b), so kernel tap (i, j)
    reads one contiguous row range of phase (i % stride, j % stride). Only
    the phases some tap reads (a < na, b < nb) are built, each filled from
    one strided slice of the input.
    """
    n, c, h, w = xd.shape
    s, p = stride, padding
    ph = np.zeros((na, nb, n, hq, wq, c), dtype=xd.dtype)
    xl = xd.transpose(0, 2, 3, 1)
    for a in range(na):
        q0 = -(-max(p - a, 0) // s)  # first phase row inside the image
        for b in range(nb):
            r0 = -(-max(p - b, 0) // s)
            v = xl[:, q0 * s + a - p :: s, r0 * s + b - p :: s]
            ph[a, b, :, q0 : q0 + v.shape[1], r0 : r0 + v.shape[2]] = v
    return ph.reshape(na, nb, n * hq * wq, c)


def _row_blocks(rows: int, blk: int, margin: int):
    """(start, stop) ranges that split rows into blocks of about blk rows.

    Inner edges sit at least margin + blk rows from either end, so a tap
    that shifts a block by up to margin rows still multiplies at least blk
    rows. A BLAS may round a short GEMM with another kernel than a tall one,
    and a short piece would then change sums the full-height GEMM gives.
    """
    edges = [0, *range(margin + blk, rows - margin - blk + 1, blk), rows]
    return list(zip(edges, edges[1:]))


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

    blocks = _row_blocks(rows, max(BLOCK_ELEMS // max(c, o), 1200 // min(c, o) + 1), taps[-1][2])
    need_dx = x.requires_grad or x._backward is not None

    ph = _padded_phases(xd, s, padding, hq, wq, na, nb)
    acc = np.empty((rows, o), dtype=np.result_type(xd, wd))
    for r0, r1 in blocks:
        np.matmul(ph[0, 0, r0:r1], wk[0], out=acc[r0:r1])
        for t, (a, b, off) in enumerate(taps[1:], 1):
            e = min(r1, rows - off)
            acc[r0:e] += ph[a, b, r0 + off : e + off] @ wk[t]
    del ph
    # a compact copy of the valid corner, so the output does not pin the grid
    out = np.ascontiguousarray(acc.reshape(n, hq, wq, o)[:, :oh, :ow]).transpose(0, 3, 1, 2)

    def backward(g):
        gf = np.zeros((n, hq, wq, o), dtype=g.dtype)
        gf[:, :oh, :ow] = g.transpose(0, 2, 3, 1)
        gf = gf.reshape(rows, o)
        ph = _padded_phases(xd, s, padding, hq, wq, na, nb)
        dwk = np.empty((kh * kw, o, c), dtype=np.result_type(g, xd))
        for t, (a, b, off) in enumerate(taps):
            dwk[t] = gf[: rows - off].T @ ph[a, b, off:]
        del ph
        dw = dwk.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)
        if not need_dx:
            return None, dw
        # dx as a gather: each block of phase rows sums its taps in tap
        # order from zero, as one full-height scatter per tap would
        dph = np.zeros((na, nb, rows, c), dtype=np.result_type(g, wd))
        for r0, r1 in blocks:
            for t, (a, b, off) in enumerate(taps):
                lo = max(r0, off)
                dph[a, b, lo:r1] += gf[lo - off : r1 - off] @ wk[t].T
        dpad = np.zeros((n, hq * s, wq * s, c), dtype=dph.dtype)
        dgrid = dpad.reshape(n, hq, s, wq, s, c)[:, :, :na, :, :nb]
        dgrid[...] = dph.reshape(na, nb, n, hq, wq, c).transpose(2, 3, 0, 4, 1, 5)
        dx = dpad[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)
        return dx, dw

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
    is a matrix-vector product on that view. Every per-channel elementwise
    pass runs on the (n*h, w*c) view of the same memory against the
    per-channel vector tiled w times (w = 1 for NC input), so numpy's inner
    loop spans a whole image row instead of c elements. The output is
    ``x * a + b`` with the per-channel scale ``a = gamma / std`` and shift
    ``b = beta - mean * a``, and backward recomputes the normalized input
    rather than keeping it.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm affine params must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}")
    to_last, from_last = ((0, 1), (0, 1)) if xd.ndim == 2 else ((0, 2, 3, 1), (0, 3, 1, 2))
    last_shape = xd.transpose(to_last).shape
    wc = c if xd.ndim == 2 else last_shape[2] * c
    channel = np.arange(wc) % c  # the channel of each column of a wide row

    def rows(a):
        # NCHW or NC as (rows, c); a view unless a is not channel-last
        return a.transpose(to_last).reshape(-1, c)

    def wide(a2):
        # (rows, c) as (n*h, w*c); a view of contiguous rows
        return a2.reshape(-1, wc)

    x2 = rows(xd)
    n = x2.shape[0]

    if training:
        mean = _channel_sums(x2) / n
        d = wide(x2) - mean[channel]
        np.square(d, out=d)
        var = _channel_sums(d.reshape(-1, c)) / n
        del d  # free it before the output is made
        rm, rv = running_mean.data, running_var.data
        rm *= 1.0 - momentum
        rm += momentum * mean
        rv *= 1.0 - momentum
        rv += momentum * var * (n / max(n - 1, 1))
    else:
        mean, var = running_mean.data, running_var.data
    inv = 1.0 / np.sqrt(var + eps)
    a = gamma.data * inv
    # tiled copies, so backward also sees the statistics this forward used
    mean_w, inv_w, a_w = mean[channel], inv[channel], a[channel]
    out = wide(x2) * a_w
    out += (beta.data - mean * a)[channel]

    def backward(g):
        g2 = rows(g)
        xhat = wide(rows(xd)) - mean_w
        xhat *= inv_w
        dbeta = _channel_sums(g2)
        dx = wide(g2) * xhat
        dgamma = _channel_sums(dx.reshape(-1, c))
        np.multiply(wide(g2), a_w, out=dx)
        if training:
            xhat *= (a * dgamma / n)[channel]
            dx -= xhat
            dx -= (a * dbeta / n)[channel]
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
        # one add into a view of the windows (splitting axes never copies);
        # zeros plus the add turn a -0.0 gradient into +0.0, and rows and
        # columns no window covers stay zero
        dx = np.zeros_like(xd)
        tiles = dx[:, :, : oh * kh, : ow * kw].reshape(n, c, oh, kh, ow, kw)
        tiles += (g * scale)[:, :, :, None, :, None]
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
