"""Neural-network ops on autodiff tensors: conv, batch norm, pooling, losses.

The entry points take NCHW activations and OIHW convolution weights.
Inside, convolution runs on a zero-padded batch-inner copy of the input,
(h, w, n, c) in memory and split into stride phases, so the pixels one
kernel tap reads for one output image row of the whole batch are a single
contiguous run of m = ow*n rows. Each (output row, tap) pair multiplies
exactly those rows: no column matrix is built, no padding row is
multiplied, and each output element adds its taps in tap order. One cap,
GEMM_ELEMS on a call's rows*c*o, tiles the rows from the shape alone
(`_gemm_tiling`): a band of whole rows within the cap is one stacked matmul
per tap, and a row over the cap is cut into the fewest P equal pieces
within it (P = 1 where they would be under GEMM_MIN_ROWS rows), one GEMM
each. A band holds more than one row only where P = 1, and numpy runs one
GEMM per stacked row piece, so the band never changes a bit. The output is
an NCHW view of the (oh, ow, n, o) accumulator, with no copy. The input
gradient is a gather over the same bands of grid rows: each sums, from zero
and in tap order, the output-gradient pieces its taps read, times a
contiguous (taps, o, c) copy of the weight. The weight gradient is one
stacked product per tap over the whole map, a GEMM per output row and piece,
summed in ascending (row, piece) order. An input that needs no gradient,
such as the image batch, gets none.

Backward keeps the padded grid the forward multiplied, or, for an
activation quantizer's output recorded under a graph (``Tensor._lattice``),
that output's code array, one byte an element for k <= 7, from which it
rebuilds the grid with the quantizer's own ``index_to_unit``, bit for bit.
Past the grid a conv holds no reference to its input, so an input handed
over as a call temporary, as ``QuantResNet._block`` does, is freed before
the accumulator exists; that takes CPython 3.11 or later, whose calls move
their arguments into the callee's frame (no bit differs under 3.10).

P keeps the output and the input gradient bit for bit under OpenBLAS's
SkylakeX kernels, which give a GEMM row the same bits in a call of any
height. The weight gradient sums its ow*n rows piece by piece, so P moves
it by rounding (under 1e-6 of its largest entry at the desk shapes).
Haswell kernels round a row by its place in the call, so there P moves the
output and the input gradient by rounding too.

Batch norm works on the (rows, c) view of its input, which is free for the
(h, w, n, c) memory conv returns: each per-channel sum is one
matrix-vector product with a ones vector, and forward and backward each
fold into a per-channel scale and shift. Its elementwise passes run on the
(h*w, n*c) view of the same memory against per-channel vectors tiled n
times, so each inner loop covers a whole pixel of the batch rather than c
elements. Its output keeps that memory order. Backward keeps its input and
the untiled per-channel mean, inverse std and scale, and tiles them itself.
"""

from __future__ import annotations

import numpy as np

from .quantize import code_index, index_to_unit
from .tensor import Tensor, _Node, _as_tensor, _needs_graph, _node

# Every conv GEMM call multiplies at most GEMM_ELEMS = rows*c*o elements, the
# power of two under the M*N*K = 10**6 up to which SkylakeX OpenBLAS takes its
# small-matrix kernel: one (4096, 16) @ (16, 16) call took 37 us on one
# thread, its two 2048-row halves 22 us. The cap also sizes a band of whole
# output rows: small rows stack (band > 1, P = 1), large ones split (P > 1,
# band = 1). Pieces under GEMM_MIN_ROWS rows do not pay: 32-row pieces made a
# c = o = 128 conv at batch 128 slower, not faster (forward and backward
# 29.0 -> 30.9 ms).
GEMM_ELEMS = 2**19
GEMM_MIN_ROWS = 64


def _gemm_tiling(m: int, c: int, o: int) -> tuple[int, int]:
    """(band, P): whole output rows per stacked matmul, and equal pieces per row
    of m GEMM rows, each within GEMM_ELEMS rows*c*o; band > 1 only where P = 1."""
    p = max(1, -(-m * c * o // GEMM_ELEMS))
    while m % p:
        p += 1
    return max(1, GEMM_ELEMS // (m * c * o)), (p if m // p >= GEMM_MIN_ROWS else 1)


def _padded_grid(xd: np.ndarray, stride: int, padding: int, hq: int, wq: int,
                 na: int, nb: int, dtype) -> np.ndarray:
    """Zero-padded batch-inner copy of an NCHW batch, split into stride phases.

    Returns an (na, nb, hq, wq, n, c) array. Pixel (q, r) of phase (a, b)
    holds padded pixel (q*stride + a, r*stride + b) of every image, so the
    pixels one kernel tap reads for one output row are one contiguous run of
    ow*n rows of c channels. Only the phases some tap reads (a < na, b < nb)
    are built, each filled from one strided slice of the input, cast to
    dtype on assignment.
    """
    n, c, h, w = xd.shape
    s, p = stride, padding
    grid = np.zeros((na, nb, hq, wq, n, c), dtype=dtype)
    xl = xd.transpose(2, 3, 0, 1)
    for a in range(na):
        q0 = -(-max(p - a, 0) // s)  # first phase row inside the image
        for b in range(nb):
            r0 = -(-max(p - b, 0) // s)
            v = xl[q0 * s + a - p :: s, r0 * s + b - p :: s]
            grid[a, b, q0 : q0 + v.shape[0], r0 : r0 + v.shape[1]] = v
    return grid


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
    na, nb, m = min(s, kh), min(s, kw), ow * n
    # tap (i, j) as (phase a, phase b, row shift, column shift): output row q
    # reads grid row q + di of its phase, from column dj on
    taps = [(i % s, j % s, i // s, j // s) for i in range(kh) for j in range(kw)]
    wk = np.ascontiguousarray(wd.transpose(2, 3, 1, 0)).reshape(kh * kw, c, o)
    band, pieces = _gemm_tiling(m, c, o)
    pm = m // pieces
    need_dx = _needs_graph(x)
    # the graph's parents are taken now: x goes once its grid is built
    parents = [x._graph or x, weight._graph or weight] if _needs_graph(x, weight) else None
    code, k = x._lattice or (None, None)
    dtype, acc_dtype = xd.dtype, np.result_type(xd, wd)

    def rows(grid, t, q0, q1):
        # the rows tap t multiplies for output rows q0..q1-1, as (q1 - q0,
        # pieces, pm, c): every output row's ow*n rows cut into equal pieces
        a, b, di, dj = taps[t]
        return grid[a, b, q0 + di : q1 + di, dj : dj + ow].reshape(q1 - q0, pieces, pm, c)

    grid = _padded_grid(xd, s, padding, hq, wq, na, nb, dtype)
    # backward keeps the grid, or a quantized input's code array; nothing
    # holds the input past this line (module docstring)
    saved = None if parents is None else grid if k is None else code
    del x, xd
    acc = np.empty((oh, pieces, pm, o), dtype=acc_dtype)
    for q0 in range(0, oh, band):
        q1 = min(q0 + band, oh)
        np.matmul(rows(grid, 0, q0, q1), wk[0], out=acc[q0:q1])
        for t in range(1, len(taps)):
            acc[q0:q1] += rows(grid, t, q0, q1) @ wk[t]
    del grid
    out = Tensor(acc.reshape(oh, ow, n, o).transpose(2, 3, 0, 1))

    def backward(g):
        g4 = np.ascontiguousarray(g.transpose(2, 3, 0, 1)).reshape(oh, pieces, pm, o)
        if k is None:
            grid = saved
        else:
            grid = _padded_grid(code_index(saved), s, padding, hq, wq, na, nb, dtype)
            index_to_unit(grid, k)  # the forward's own division, so every bit agrees
        # dw: one stacked product per tap, a GEMM per output row and piece,
        # summed in ascending (row, piece) order
        gt = g4.transpose(0, 1, 3, 2)
        dwk = np.stack([(gt @ rows(grid, t, 0, oh)).sum(axis=(0, 1)) for t in range(len(taps))])
        del grid
        dw = dwk.reshape(kh, kw, o, c).transpose(2, 3, 0, 1)
        if not need_dx:
            return None, dw
        # dx as a gather: each band of grid rows sums, from zero and in tap
        # order, the output-gradient rows its taps read. The phases are
        # strided views of the padded gradient, so no interleaving copy. The
        # weight is copied to (taps, o, c): the capped pieces gain only
        # against a contiguous operand, not the transposed view.
        wkt = np.ascontiguousarray(wk.transpose(0, 2, 1))
        dpad = np.zeros((hq, s, wq, s, n, c), dtype=np.result_type(g, wk))
        dgrid = dpad.transpose(1, 3, 0, 2, 4, 5)
        for r0 in range(0, hq, band):
            r1 = min(r0 + band, hq)
            for t, (a, b, di, dj) in enumerate(taps):
                lo, hi = max(r0, di), min(r1, oh + di)
                if lo < hi:
                    d = g4[lo - di : hi - di] @ wkt[t]
                    dgrid[a, b, lo:hi, dj : dj + ow] += d.reshape(hi - lo, ow, n, c)
        dx = dpad.reshape(hq * s, wq * s, n, c)[padding : padding + h, padding : padding + w]
        return dx.transpose(2, 3, 0, 1), dw

    if parents is not None:
        out._graph = _Node(parents, backward, out.data.dtype)
    return out


def linear(x, weight, bias) -> Tensor:
    """Affine map ``x @ weight + bias`` with weight shaped (in, out)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ValueError(f"linear shape mismatch: input {x.data.shape} vs weight {weight.data.shape}")
    xd, wd = x.data, weight.data
    out = xd @ wd + bias.data

    def backward(g):
        return g @ wd.T, xd.T @ g, g.sum(axis=0)

    return _node(out, (x, weight, bias), backward)


def _channel_sums(x2: np.ndarray) -> np.ndarray:
    """Per-channel sums of a (rows, c) array, as one matrix-vector product."""
    return np.ones(x2.shape[0], dtype=x2.dtype) @ x2


def batch_norm(x, gamma, beta, running_mean, running_var, training: bool,
               momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Channel-wise batch normalization over an NCHW batch.

    Training mode normalizes with biased batch statistics and folds an
    unbiased variance estimate into the running buffers in place; eval
    mode normalizes with the running buffers. gamma and beta are the
    learnable scale and shift.

    Both modes work on the (h*w*n, c) row view of the input, which costs no
    copy for the (h, w, n, c) memory conv2d returns. Every per-channel sum
    is a matrix-vector product on that view. Every per-channel elementwise
    pass runs on the (h*w, n*c) view of the same memory against the
    per-channel vector tiled n times, so numpy's inner loop spans a pixel of
    the whole batch instead of c elements. The output is an NCHW view of
    (h, w, n, c) memory. It is ``x * a + b`` with the per-channel scale
    ``a = gamma / std`` and shift ``b = beta - mean * a``, and backward
    recomputes the normalized input rather than keeping it.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"batch_norm takes an NCHW batch, got shape {xd.shape}")
    c = xd.shape[1]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"batch_norm affine params must have shape ({c},), got {gamma.data.shape} and {beta.data.shape}")
    # NCHW as (h, w, n, c) and back: the transpose is its own inverse
    axes = (2, 3, 0, 1)
    last_shape = xd.transpose(axes).shape
    batch = last_shape[2]
    wc = batch * c

    def rows(a):
        # NCHW as (rows, c); a view unless a is not batch-inner
        return a.transpose(axes).reshape(-1, c)

    def wide(a2):
        # (rows, c) as (h*w, n*c); a view of contiguous rows
        return a2.reshape(-1, wc)

    x2 = rows(xd)
    n = x2.shape[0]

    if training:
        mean = _channel_sums(x2) / n
        d = wide(x2) - np.tile(mean, batch)
        np.square(d, out=d)
        var = _channel_sums(d.reshape(-1, c)) / n
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
    out = wide(x2) * np.tile(a, batch)
    out += np.tile(beta.data - mean * a, batch)

    def backward(g):
        g2 = rows(g)
        xhat = wide(rows(xd)) - np.tile(mean, batch)
        xhat *= np.tile(inv, batch)
        dbeta = _channel_sums(g2)
        dx = wide(g2) * xhat
        dgamma = _channel_sums(dx.reshape(-1, c))
        np.multiply(wide(g2), np.tile(a, batch), out=dx)
        if training:
            xhat *= np.tile(a * dgamma / n, batch)
            dx -= xhat
            dx -= np.tile(a * dbeta / n, batch)
        return dx.reshape(last_shape).transpose(axes), dgamma, dbeta

    return _node(out.reshape(last_shape).transpose(axes), (x, gamma, beta), backward)


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
    kh = kw = window
    s = stride if stride is not None else window
    win = _pool_windows(x.data, kh, kw, s, padding, fill=-np.inf)
    n, c, oh, ow = win.shape[:4]
    h, w = x.data.shape[2:]
    flat = win.reshape(n, c, oh, ow, kh * kw)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                contrib = g * (idx == i * kw + j)
                dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += contrib
        if padding:
            return (dxp[:, :, padding : padding + h, padding : padding + w],)
        return (dxp,)

    return _node(out, (x,), backward)


def avg_pool2d(x, window: int) -> Tensor:
    """Average pooling; backward spreads the gradient uniformly over the window."""
    x = _as_tensor(x)
    kh = kw = s = window
    win = _pool_windows(x.data, kh, kw, s, 0, fill=0.0)
    n, c, oh, ow = win.shape[:4]
    shape, dtype = x.data.shape, x.data.dtype
    out = win.mean(axis=(-2, -1))
    scale = 1.0 / (kh * kw)

    def backward(g):
        # one add into a view of the windows (splitting axes never copies);
        # zeros plus the add turn a -0.0 gradient into +0.0, and rows and
        # columns no window covers stay zero
        dx = np.zeros(shape, dtype)
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
