"""Layer tracing for bitcycle, done entirely from outside the package.

``Tracer.install()`` replaces the library's public calls with timing
wrappers in the namespaces that call them: ``nn.conv2d`` in ``bitcycle.nn``
(models call it as ``nn.conv2d``), ``fq_weights`` in ``bitcycle.models``
(imported there by name), ``save_checkpoint`` in ``bitcycle.schedule``, the
methods ``Tensor.backward``, ``QuantResNet.forward``, ``Adam.step`` and
``MetricsWriter.append``, and so on. Every tensor an op returns gets its
``_backward`` closure wrapped too, so backward time lands on the op that
recorded it. ``uninstall()`` puts every original back.

A span is ``[name, label, start_ns, end_ns, parent, group, extra]``. The
label names the op instance (``stage1.block0.conv1``) for conv and batch
norm; ``group`` is ``step<i>`` for spans inside training step i and
``eval<e>`` for spans inside the e-th ``evaluate`` call. ``extra`` holds the
counts computed at that boundary (conv FLOPs and column-matrix bytes,
recorded graph nodes, checkpoint bytes written). Spans stay in memory until
``summarize`` reduces them or ``dump`` writes them out.

A training step runs from the ``next()`` that asks ``data.batches`` for its
batch to the ``next()`` that asks for the following one, so it covers the
data wait, forward, loss, backward, optimizer step and the loop's own glue.
Under ``evaluate`` each eval batch is an ``eval.step`` span in the same way.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns

TENSOR_OPS = ("add", "mul", "neg", "clamp", "reshape", "tsum", "tmean", "matmul")
NN_OPS = ("conv2d", "linear", "batch_norm", "max_pool2d", "avg_pool2d", "softmax_cross_entropy")


def _conv_args(args, kwargs):
    """x, weight and padding of a conv2d(x, weight, stride=1, padding=0) call."""
    x = args[0] if args else kwargs["x"]
    w = args[1] if len(args) > 1 else kwargs["weight"]
    padding = args[3] if len(args) > 3 else kwargs.get("padding", 0)
    return x, w, padding


def conv_counts(xshape, wshape, oshape, itemsize, padding):
    """FLOPs and column-matrix bytes of one im2col conv, from shapes alone.

    Forward builds a (n*oh*ow, c*kh*kw) column matrix and runs one GEMM.
    Backward rebuilds the same column matrix, runs two GEMMs of the same
    size (dW and dcols), and scatters dcols into a padded (n, c, h+2p, w+2p)
    buffer (col2im).
    """
    n, c, h, w = xshape
    o, _, kh, kw = wshape
    oh, ow = oshape[2], oshape[3]
    rows, k = n * oh * ow, c * kh * kw
    col_bytes = rows * k * itemsize
    fwd = {"fwd_gflop": 2.0 * rows * k * o / 1e9, "im2col_mb": col_bytes / 1e6}
    bwd = {"bwd_gflop": 4.0 * rows * k * o / 1e9, "im2col_bwd_mb": col_bytes / 1e6,
           "col2im_mb": n * c * (h + 2 * padding) * (w + 2 * padding) * itemsize / 1e6}
    return fwd, bwd


class Tracer:
    """Wrappers plus the in-memory span list they fill."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._group = ""
        self._steps = 0
        self._evals = 0
        self._param_names: dict[int, str] = {}
        self._fq_source: dict[int, str] = {}

    # ------------------------------------------------------------------
    # spans

    def _open(self, name: str, label: str = "") -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, label, _now(), 0, parent, self._group, None])
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.spans[i][3] = _now()
        self._stack.pop()

    def _timed(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            i = tr._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(i)

        return wrapper

    # ------------------------------------------------------------------
    # wrappers

    def _op(self, name: str, fn, label_of=None, counts_of=None):
        """Time an op's forward and, through its closure, its backward."""
        tr = self

        def wrapper(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else ""
            i = tr._open(name + ".fwd", label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(i)
            fwd_extra, bwd_extra = counts_of(args, kwargs, out) if counts_of else ({}, None)
            bw = getattr(out, "_backward", None)
            # k=32 quantizers hand their input straight back; its node is not new
            if bw is not None and not any(out is a for a in args):
                fwd_extra = {**fwd_extra, "nodes": 1}
                out._backward = tr._backward(name + ".bwd", label, bw, bwd_extra)
            tr.spans[i][6] = fwd_extra or None
            return out

        return wrapper

    def _backward(self, name: str, label: str, bw, extra):
        tr = self

        def backward(g):
            i = tr._open(name, label)
            try:
                return bw(g)
            finally:
                tr._close(i)
                tr.spans[i][6] = extra

        return backward

    def _conv_label(self, args, kwargs) -> str:
        w = _conv_args(args, kwargs)[1]
        name = self._param_names.get(id(w)) or self._fq_source.get(id(w), "?")
        return name.removesuffix(".weight")

    def _bn_label(self, args, kwargs) -> str:
        gamma = args[1] if len(args) > 1 else kwargs["gamma"]
        return self._param_names.get(id(gamma), "?").removesuffix(".gamma")

    @staticmethod
    def _conv_counts(args, kwargs, out):
        x, w, padding = _conv_args(args, kwargs)
        return conv_counts(x.shape, w.shape, out.shape, out.data.itemsize, padding)

    def _fq_weights(self, fn):
        tr = self
        op = self._op("quantize.fq_weights", fn,
                      label_of=lambda a, k: tr._param_names.get(id(a[0] if a else k["w"]), "?"))

        def wrapper(*args, **kwargs):
            out = op(*args, **kwargs)
            # under no_grad the output has no _parents, so remember its source here
            w = args[0] if args else kwargs["w"]
            tr._fq_source[id(out)] = tr._param_names.get(id(w), "?")
            return out

        return wrapper

    def _forward(self, fn):
        tr = self

        def forward(model, *args, **kwargs):
            tr._param_names = {id(t): n for n, t in model.params.items()}
            tr._fq_source = {}
            i = tr._open("models.forward")
            try:
                return fn(model, *args, **kwargs)
            finally:
                tr._close(i)

        return forward

    def _stepped(self, step_name: str, wait_name: str, fn):
        """Wrap a batch generator so each batch opens a step span."""
        tr = self

        def generator(*args, **kwargs):
            it = fn(*args, **kwargs)
            outer_group = tr._group
            step = -1
            try:
                while True:
                    if step >= 0:
                        tr._close(step)
                        step = -1
                    if step_name == "step":
                        tr._group = f"step{tr._steps}"
                        tr._steps += 1
                    step = tr._open(step_name)
                    wait = tr._open(wait_name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tr._close(wait)
                    yield item
            finally:
                if step >= 0:
                    # the last "step" only asked for a batch that did not come
                    tr.spans[step][0] = step_name + ".end"
                    tr._close(step)
                tr._group = outer_group

        return generator

    def _evaluate(self, fn):
        tr = self

        def evaluate(*args, **kwargs):
            outer = tr._group
            tr._group = f"eval{tr._evals}"
            tr._evals += 1
            i = tr._open("schedule.evaluate")
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(i)
                tr._group = outer

        return evaluate

    def _save(self, fn):
        tr = self

        def save_checkpoint(path, *args, **kwargs):
            i = tr._open("checkpoint.save")
            try:
                fn(path, *args, **kwargs)
            finally:
                tr._close(i)
            tr.spans[i][6] = {"bytes": os.path.getsize(path)}

        return save_checkpoint

    # ------------------------------------------------------------------
    # install / uninstall

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> "Tracer":
        from bitcycle import checkpoint, data, metrics, models, nn, optim, quantize, schedule, tensor

        for op in TENSOR_OPS:
            self._patch(tensor, op, lambda f, op=op: self._op(f"tensor.{op}", f))
        for op in NN_OPS:
            if op == "conv2d":
                make = lambda f: self._op("nn.conv2d", f, self._conv_label, self._conv_counts)
            elif op == "batch_norm":
                make = lambda f: self._op("nn.batch_norm", f, self._bn_label)
            else:
                make = lambda f, op=op: self._op(f"nn.{op}", f)
            self._patch(nn, op, make)
        self._patch(schedule, "softmax_cross_entropy",
                    lambda f: self._op("nn.softmax_cross_entropy", f))
        for ns in (quantize, models):
            self._patch(ns, "fq_weights", self._fq_weights)
            self._patch(ns, "fq_activations", lambda f: self._op("quantize.fq_activations", f))
        self._patch(tensor.Tensor, "backward", lambda f: self._timed("tensor.backward", f))
        self._patch(models.QuantResNet, "forward", self._forward)
        self._patch(models.QuantResNet, "zero_grad", lambda f: self._timed("models.zero_grad", f))
        for ns in (models, schedule):
            self._patch(ns, "build_model", lambda f: self._timed("models.build_model", f))
            self._patch(ns, "transfer_weights", lambda f: self._timed("models.transfer_weights", f))
        for cls in (optim.Adam, optim.Sgd):
            self._patch(cls, "step", lambda f: self._timed("optim.step", f))
        self._patch(schedule, "make_optimizer", lambda f: self._timed("optim.make_optimizer", f))
        self._patch(data, "batches", lambda f: self._stepped("step", "data.wait", f))
        self._patch(data, "eval_batches", lambda f: self._stepped("eval.step", "data.eval_wait", f))
        self._patch(schedule, "evaluate", self._evaluate)
        self._patch(schedule, "pooled_weight_error", lambda f: self._timed("schedule.weight_error", f))
        self._patch(schedule, "run_schedule", lambda f: self._timed("schedule.run_schedule", f))
        self._patch(schedule, "model_from_checkpoint",
                    lambda f: self._timed("schedule.model_from_checkpoint", f))
        for ns in (checkpoint, schedule):
            self._patch(ns, "save_checkpoint", self._save)
            self._patch(ns, "load_checkpoint", lambda f: self._timed("checkpoint.load", f))
        self._patch(metrics.MetricsWriter, "append", lambda f: self._timed("metrics.append", f))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # ------------------------------------------------------------------
    # output

    def dump(self, path: str) -> None:
        """Write the spans as one JSON object of parallel columns."""
        cols = ("name", "label", "start_ns", "end_ns", "parent", "group", "extra")
        with open(path, "w") as f:
            json.dump({c: [s[j] for s in self.spans] for j, c in enumerate(cols)}, f,
                      separators=(",", ":"))


# ----------------------------------------------------------------------
# reduction to per-layer metrics


def tail(values):
    """Highest percentile with at least ten samples beyond it, as (level, value, n).

    With fewer than eleven samples no such percentile exists; the maximum
    is returned instead, with level 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 100.0, 0.0, 0
    if n < 11:
        return 100.0, s[-1], n
    return round(100.0 * (n - 10) / n, 1), s[n - 11], n


def _median(values):
    return statistics.median(values) if values else 0.0


def _children(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[4]].append(i)
    return kids


def _descendants(kids, root):
    todo = list(kids.get(root, ()))
    while todo:
        i = todo.pop()
        todo.extend(kids.get(i, ()))
        yield i


def _fwd_bwd(*ops):
    return [f"{op}.{part}" for op in ops for part in ("fwd", "bwd")]


# per-step metric -> span names (self time) or computed counts it sums
STEP_METRICS = {
    "step.wall_ms": ["wall"],
    "nn.conv2d.fwd_ms": ["nn.conv2d.fwd"],
    "nn.conv2d.bwd_ms": ["nn.conv2d.bwd"],
    "nn.batch_norm.fwd_ms": ["nn.batch_norm.fwd"],
    "nn.batch_norm.bwd_ms": ["nn.batch_norm.bwd"],
    "nn.pool_ms": _fwd_bwd("nn.avg_pool2d", "nn.max_pool2d"),
    "nn.head_ms": _fwd_bwd("nn.linear", "nn.softmax_cross_entropy"),
    "quantize.fq_activations.fwd_ms": ["quantize.fq_activations.fwd"],
    "quantize.fq_activations.bwd_ms": ["quantize.fq_activations.bwd"],
    "quantize.fq_weights.fwd_ms": ["quantize.fq_weights.fwd"],
    "quantize.fq_weights.bwd_ms": ["quantize.fq_weights.bwd"],
    "tensor.ops_ms": _fwd_bwd(*(f"tensor.{op}" for op in TENSOR_OPS)),
    "tensor.backward.self_ms": ["tensor.backward"],
    "tensor.nodes": ["nodes"],
    "models.forward.self_ms": ["models.forward"],
    "optim.step_ms": ["optim.step"],
    "data.wait_ms": ["data.wait"],
    "nn.conv2d.gflop": ["fwd_gflop", "bwd_gflop"],
    "nn.conv2d.fwd_gflop": ["fwd_gflop"],
    "nn.conv2d.bwd_gflop": ["bwd_gflop"],
    "nn.conv2d.col_mb": ["im2col_mb", "im2col_bwd_mb", "col2im_mb"],
    "nn.conv2d.im2col_mb": ["im2col_mb"],
    "nn.conv2d.im2col_bwd_mb": ["im2col_bwd_mb"],
    "nn.conv2d.col2im_mb": ["col2im_mb"],
}
STEP_TAILS = ("step.wall_ms", "optim.step_ms", "data.wait_ms")
# per-call metric -> span name
CALL_METRICS = {
    "schedule.evaluate_ms": "schedule.evaluate",
    "schedule.weight_error_ms": "schedule.weight_error",
    "checkpoint.save_ms": "checkpoint.save",
    "checkpoint.load_ms": "checkpoint.load",
    "metrics.append_ms": "metrics.append",
}
CALL_TAILS = ("schedule.evaluate_ms",)


def summarize(spans, conv_instances):
    """Reduce spans to per-layer metrics.

    Per-step metrics are medians over training steps, or over eval batches
    when the run trained nothing. Per-call metrics are medians over calls.
    Returns (metrics, details); details hold each timing's tail percentile
    and sample count and the per-step self time of every span name.
    """
    kids = _children(spans)

    def self_ns(i):
        s = spans[i]
        return (s[3] - s[2]) - sum(spans[c][3] - spans[c][2] for c in kids.get(i, ()))

    def dur_ms(i):
        return (spans[i][3] - spans[i][2]) / 1e6

    step_name = "step" if any(s[0] == "step" for s in spans) else "eval.step"
    rows = []
    walls = uncovered = 0
    span_names, instance_keys = set(), set()
    for st in (i for i, s in enumerate(spans) if s[0] == step_name):
        acc = defaultdict(float)
        for i in _descendants(kids, st):
            name, label, extra = spans[i][0], spans[i][1], spans[i][6]
            ms = self_ns(i) / 1e6
            acc[name] += ms
            span_names.add(name)
            if label:
                op, part = name.rsplit(".", 1)
                key = f"{op}.{label}.{part}_ms"
                acc[key] += ms
                instance_keys.add(key)
            for key, v in (extra or {}).items():
                acc[key] += v
        acc["wall"] = dur_ms(st)
        walls += spans[st][3] - spans[st][2]
        uncovered += self_ns(st)
        rows.append(acc)

    def step_values(keys):
        return [sum(r.get(k, 0.0) for k in keys) for r in rows]

    out = {m: _median(step_values(keys)) for m, keys in STEP_METRICS.items()}
    for inst in conv_instances:
        for part in ("fwd", "bwd"):
            key = f"nn.conv2d.{inst}.{part}_ms"
            out[key] = _median(step_values([key]))
    out["trace.coverage"] = 1.0 - uncovered / walls if walls else 0.0

    tails = {m: tail(step_values(STEP_METRICS[m])) for m in STEP_TAILS}
    for metric, name in CALL_METRICS.items():
        vals = [dur_ms(i) for i, s in enumerate(spans) if s[0] == name]
        out[metric] = _median(vals)
        tails[metric] = tail(vals)
    saves = [s[6]["bytes"] / 1e6 for s in spans if s[0] == "checkpoint.save"]
    out["checkpoint.save_mb"] = _median(saves)
    # a hand-off is the successor build_model plus transfer_weights
    handoffs = []
    for i, s in enumerate(spans):
        if s[0] == "models.transfer_weights":
            builds = [j for j in kids[s[4]] if j < i and spans[j][0] == "models.build_model"]
            handoffs.append(dur_ms(i) + (dur_ms(builds[-1]) if builds else 0.0))
    out["schedule.handoff_ms"] = _median(handoffs)
    tails["schedule.handoff_ms"] = tail(handoffs)
    for metric in STEP_TAILS + CALL_TAILS:
        out[f"{metric}.tail"] = tails[metric][1]

    details = {
        "step_kind": step_name,
        "steps": len(rows),
        "tails": {m: {"percentile": t[0], "value": t[1], "n": t[2]} for m, t in tails.items()},
        "self_ms_per_step": {n: _median(step_values([n])) for n in sorted(span_names)},
        "instance_ms_per_step": {k: _median(step_values([k])) for k in sorted(instance_keys)},
    }
    return out, details


def span_counts(spans):
    """Number of spans of each name."""
    counts = defaultdict(int)
    for s in spans:
        counts[s[0]] += 1
    return counts


def counts_under(spans, parent_name, names):
    """For each span called ``parent_name``, how many of its descendants have each name."""
    kids = _children(spans)
    out = []
    for i, s in enumerate(spans):
        if s[0] == parent_name:
            c = dict.fromkeys(names, 0)
            for j in _descendants(kids, i):
                if spans[j][0] in c:
                    c[spans[j][0]] += 1
            out.append(c)
    return out
