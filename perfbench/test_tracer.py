"""Call-count guard for the benchmark's tracer.

The tracer wraps bitcycle's calls from outside. If a refactor moves a call
out of the namespace a wrapper patches (say a module switches to
``from ... import``), the layer would quietly read as zero; these tests
fail instead.

    python3 -m pytest perfbench/test_tracer.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from bitcycle import checkpoint, data, metrics, models, nn, optim, quantize, schedule, tensor  # noqa: E402
from bitcycle.config import RunConfig  # noqa: E402
from bitcycle.models import build_model, desk_config  # noqa: E402
from bitcycle.tensor import Tensor, no_grad  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

FORWARD_OPS = ("nn.conv2d.fwd", "nn.batch_norm.fwd", "quantize.fq_weights.fwd",
               "quantize.fq_activations.fwd")


def _batch(n=2, size=32):
    return Tensor(np.random.default_rng(0).normal(size=(n, 3, size, size)).astype(np.float32))


def _conv_names(model):
    return {n.removesuffix(".weight") for n, t in model.params.items() if t.data.ndim == 4}


@pytest.mark.parametrize("grad", [True, False])
def test_desk_k1_forward_calls_every_layer_op(grad):
    model = build_model(desk_config(bit_depth=1))
    with tracer.Tracer() as tr:
        if grad:
            model.forward(_batch(), training=True).sum().backward()
        else:
            with no_grad():
                model.forward(_batch())
    counts = tracer.counts_under(tr.spans, "models.forward", FORWARD_OPS)
    assert counts == [{"nn.conv2d.fwd": 20, "nn.batch_norm.fwd": 20,
                       "quantize.fq_weights.fwd": 16, "quantize.fq_activations.fwd": 15}]
    conv_labels = [s[1] for s in tr.spans if s[0] == "nn.conv2d.fwd"]
    assert sorted(conv_labels) == sorted(_conv_names(model))
    bn_labels = {s[1] for s in tr.spans if s[0] == "nn.batch_norm.fwd"}
    assert bn_labels == {n.removesuffix(".gamma") for n in model.params if n.endswith(".gamma")}
    n = tracer.span_counts(tr.spans)
    assert n["tensor.backward"] == int(grad)
    assert n["nn.conv2d.bwd"] == 20 * grad


def test_backward_spans_nest_under_tensor_backward():
    model = build_model(desk_config(bit_depth=2))
    with tracer.Tracer() as tr:
        model.forward(_batch(), training=True).sum().backward()
    spans = tr.spans
    bwd = [s for s in spans if s[0].endswith(".bwd")]
    assert bwd and all(spans[s[4]][0] == "tensor.backward" for s in bwd)
    assert {s[1] for s in bwd if s[0] == "nn.conv2d.bwd"} == _conv_names(model)


def test_schedule_run_counts_and_untouched_metrics(tmp_path):
    cfg = RunConfig.from_file(os.path.join(ROOT, "configs", "smoke_synth.cfg"),
                              [f"run.out_dir={tmp_path / 'plain'}"])
    schedule.run_schedule(cfg)
    traced_cfg = RunConfig({**cfg.values, "run.out_dir": str(tmp_path / "traced")})
    with tracer.Tracer() as tr:
        rows = schedule.run_schedule(traced_cfg)
    plain = (tmp_path / "plain" / "metrics.csv").read_bytes()
    assert (tmp_path / "traced" / "metrics.csv").read_bytes() == plain

    n = tracer.span_counts(tr.spans)
    phases = schedule.plan_phases(cfg)
    steps = rows[-1].iteration
    assert n["step"] == n["tensor.backward"] == n["optim.step"] == steps
    assert n["models.forward"] == steps + n["eval.step"]
    # one save per phase end, plus one after epoch 1 of the 2-epoch final phase
    # (checkpoint_every = 1)
    assert n["checkpoint.save"] == len(phases) + 1
    assert n["schedule.evaluate"] == n["metrics.append"] == len(rows)
    assert n["models.transfer_weights"] == len(phases) - 1
    metrics_out, details = tracer.summarize(tr.spans, sorted(_conv_names(build_model(
        cfg.model_config(1)))))
    assert details["steps"] == steps
    assert metrics_out["trace.coverage"] > 0.9
    assert metrics_out["tensor.nodes"] > 0 and metrics_out["nn.conv2d.bwd_gflop"] > 0


def test_workload_guard_passes_on_a_small_run(tmp_path):
    w = workloads.CyclicSmall(ROOT, 0, str(tmp_path))
    w.config_file = "configs/smoke_synth.cfg"
    w.min_final_top1 = 0.0
    w.setup()
    with tracer.Tracer() as tr:
        result = w.call(str(tmp_path / "call"))
    w.check(result, str(tmp_path / "call"))
    assert all(ok for _, ok in result.checks + w.guard(tr.spans, 1))


def test_uninstall_restores_every_original():
    owners = (tensor, nn, quantize, models, optim, data, schedule, checkpoint, metrics,
              tensor.Tensor, models.QuantResNet, optim.Adam, optim.Sgd, metrics.MetricsWriter)
    before = [dict(vars(o)) for o in owners]
    tr = tracer.Tracer().install()
    assert tensor.Tensor.backward is not before[9]["backward"]
    tr.uninstall()
    for o, was in zip(owners, before):
        assert all(vars(o).get(k) is v for k, v in was.items())


def test_conv_counts_from_shapes():
    fwd, bwd = tracer.conv_counts((2, 3, 8, 8), (4, 3, 3, 3), (2, 4, 8, 8), 4, padding=1)
    assert fwd == {"fwd_gflop": 2 * 128 * 27 * 4 / 1e9, "im2col_mb": 128 * 27 * 4 / 1e6}
    assert bwd["bwd_gflop"] == 2 * fwd["fwd_gflop"]
    assert bwd["col2im_mb"] == 2 * 3 * 10 * 10 * 4 / 1e6


def test_tail_is_highest_percentile_with_ten_beyond():
    assert tracer.tail(list(range(1, 21))) == (50.0, 10, 20)
    assert tracer.tail([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
