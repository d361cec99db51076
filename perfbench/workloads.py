"""The benchmark's workloads: set-up, the timed call, and its output checks.

Every workload goes through bitcycle's public calls, looked up on their
modules at call time so that the tracer's wrappers see them. The workload
seed becomes ``run.seed``; everything a workload feeds the program is
generated from it.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from bitcycle import checkpoint, data, models, schedule
from bitcycle.config import RunConfig

import tracer

DESK_SHAPE = ["data.format=synthetic", "data.synth_size=32"]


@dataclass
class CallResult:
    seconds: float               # wall time of the timed call
    images: int
    digest: str                  # sha256 of metrics.csv, or of the eval triple
    final: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)   # (name, passed)
    outputs: object = None


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    """A committed config plus overrides; the timed call is one ``run_schedule``.

    ``DeskEval`` keeps the config handling and replaces the rest.
    """

    config_file = ""
    overrides: list[str] = []
    min_final_top1 = 0.0

    def __init__(self, root: str, seed: int, out_root: str):
        self.root = root
        self.seed = seed
        self.out_root = out_root

    def setup(self) -> None:
        self.cfg = RunConfig.from_file(os.path.join(self.root, self.config_file),
                                       self.overrides + [f"run.seed={self.seed}"])
        train, _ = schedule.load_datasets(self.cfg)
        self.phases = schedule.plan_phases(self.cfg)
        batch = int(self.cfg["data.batch_size"])
        self.steps = sum(p.epochs for p in self.phases) * (len(train) // batch)
        self.images = self.steps * batch

    def call(self, out_dir: str) -> CallResult:
        cfg = RunConfig({**self.cfg.values, "run.out_dir": out_dir})
        t0 = time.perf_counter()
        rows = schedule.run_schedule(cfg)
        seconds = time.perf_counter() - t0
        last = rows[-1]
        return CallResult(seconds, self.images, sha256_file(os.path.join(out_dir, "metrics.csv")),
                          final={"final_train_loss": last.train_loss, "final_top1": last.eval_top1},
                          outputs=rows)

    def check(self, result: CallResult, out_dir: str) -> None:
        rows = result.outputs
        last = rows[-1]
        result.checks = [
            ("losses and accuracies finite",
             all(_finite(r.train_loss, r.eval_top1, r.eval_top5) for r in rows)),
            ("trained the planned images",
             last.iteration * int(self.cfg["data.batch_size"]) == self.images),
            ("final checkpoint reloads and re-saves byte-identically", _resaves_identically(out_dir)),
        ]
        if self.min_final_top1:
            result.checks.append((f"final top-1 at least {self.min_final_top1}",
                                  last.eval_top1 >= self.min_final_top1))

    def after(self, calls: list[CallResult]) -> list:
        return []

    def guard(self, spans, calls: int) -> list:
        """Call counts a traced training run must show, as (name, passed)."""
        n = tracer.span_counts(spans)
        every = int(self.cfg["run.checkpoint_every"])
        saves = sum(1 + (p.part in ("final", "single")) * sum(e % every == 0 for e in range(1, p.epochs))
                    for p in self.phases)
        steps = self.steps * calls
        model = models.build_model(self.cfg.model_config(self.phases[-1].bit_depth))
        return forward_guard(spans, model) + [
            ("one training step per planned batch", n["step"] == steps),
            ("one Tensor.backward per step", n["tensor.backward"] == steps),
            ("one optimizer step per step", n["optim.step"] == steps),
            ("one save_checkpoint per phase end", n["checkpoint.save"] == saves * calls),
            ("one evaluate per epoch", n["schedule.evaluate"]
             == sum(p.epochs for p in self.phases) * calls),
        ]


def desk_conv_instances() -> list[str]:
    """Every conv of the desk model; the other workloads use a subset of these names."""
    model = models.build_model(models.desk_config())
    return [n.removesuffix(".weight") for n, t in model.params.items() if t.data.ndim == 4]


def forward_guard(spans, model) -> list:
    """Every forward must call each layer op as often as the architecture implies.

    Convs and batch norms follow from the parameter map, quantized weights
    from ``quantized_weight_names``. In a type2 network every block
    quantizes the input of both convs except the very first block's input.
    """
    cfg = model.cfg
    want = {
        "nn.conv2d.fwd": sum(1 for t in model.params.values() if t.data.ndim == 4),
        "nn.batch_norm.fwd": sum(1 for n in model.params if n.endswith(".gamma")),
        "quantize.fq_weights.fwd": len(model.quantized_weight_names()),
        "quantize.fq_activations.fwd": 2 * sum(cfg.blocks_per_stage) - 1,
    }
    per_forward = tracer.counts_under(spans, "models.forward", want)
    labels = {s[1] for s in spans if s[0] in ("nn.conv2d.fwd", "nn.batch_norm.fwd")}
    checks = [(f"{op} called {n} times per forward", bool(per_forward)
               and all(c[op] == n for c in per_forward)) for op, n in want.items()]
    checks.append(("every conv and batch norm named by its parameter", "?" not in labels))
    return checks


def _resaves_identically(out_dir: str) -> bool:
    path = os.path.join(out_dir, "checkpoint.bin")
    again = os.path.join(out_dir, "resaved.bin")
    checkpoint.save_checkpoint(again, checkpoint.load_checkpoint(path))
    with open(path, "rb") as a, open(again, "rb") as b:
        return a.read() == b.read()


class DeskK1Train(Workload):
    """One k=1 epoch of the paper's desk model: two batch-128 steps plus eval."""

    config_file = "configs/cifar10_ctmq.cfg"
    overrides = DESK_SHAPE + ["schedule.mode=single", "schedule.bit_depth=1",
                              "schedule.epochs=1", "data.synth_per_class=26"]


class CyclicSmall(Workload):
    """The whole 10-phase cyclic schedule of the synthetic benefit study."""

    config_file = "configs/synthetic_benefit.cfg"
    min_final_top1 = 0.9


class DeskEval(Workload):
    """Load a desk-shape k=1 checkpoint, rebuild the model, evaluate it."""

    config_file = "configs/cifar10_ctmq.cfg"
    overrides = DESK_SHAPE + ["schedule.mode=single", "schedule.bit_depth=1"]
    eval_per_class = 64

    def setup(self) -> None:
        self.cfg = RunConfig.from_file(os.path.join(self.root, self.config_file),
                                       self.overrides + [f"run.seed={self.seed}"])
        size, classes = int(self.cfg["data.synth_size"]), int(self.cfg["data.synth_classes"])
        train = data.make_synthetic(int(self.cfg["data.synth_per_class"]), classes, size,
                                    self.seed, "train")
        self.eval_set = data.make_synthetic(self.eval_per_class, classes, size, self.seed, "test")
        self.images = len(self.eval_set)
        self.batch = int(self.cfg["data.batch_size"])
        self.norm = data.Normalization.from_train(train)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0x1A17]))
        self.model = models.build_model(self.cfg.model_config(1), rng=rng)
        self.path = os.path.join(self.out_root, "input_checkpoint.bin")
        checkpoint.save_checkpoint(self.path, checkpoint.Checkpoint(
            config_digest=self.cfg.digest(), phase_index=0, epochs_done=0,
            tensors={k: v.data for k, v in self.model.params.items()},
            metadata={"part": "single", "bit_depth": 1, "iteration": 0,
                      "normalization": self.norm.to_dict(), "dataset": train.name,
                      "config": self.cfg.canonical_text(), "threads": 1}))

    def call(self, out_dir: str) -> CallResult:
        t0 = time.perf_counter()
        ck = checkpoint.load_checkpoint(self.path)
        model, _ = schedule.model_from_checkpoint(ck)
        norm = data.Normalization.from_dict(ck.metadata["normalization"])
        triple = schedule.evaluate(model, self.eval_set, self.batch, norm)
        seconds = time.perf_counter() - t0
        top1, top5, loss = triple
        return CallResult(seconds, self.images, hashlib.sha256(repr(triple).encode()).hexdigest(),
                          final={"final_top1": top1, "final_top5": top5, "eval_loss": loss},
                          outputs=triple)

    def check(self, result: CallResult, out_dir: str) -> None:
        result.checks = [("loss and accuracies finite", _finite(*result.outputs))]

    def after(self, calls: list[CallResult]) -> list:
        """The reloaded model must score exactly what the in-memory one does."""
        mine = schedule.evaluate(self.model, self.eval_set, self.batch, self.norm)
        want = hashlib.sha256(repr(mine).encode()).hexdigest()
        return [("reloaded model matches the in-memory model bit for bit", c.digest == want)
                for c in calls]

    def guard(self, spans, calls: int) -> list:
        n = tracer.span_counts(spans)
        batches = -(-self.images // self.batch) * calls
        return forward_guard(spans, self.model) + [
            ("one checkpoint load per call", n["checkpoint.load"] == calls),
            ("one evaluate per call", n["schedule.evaluate"] == calls),
            ("one forward per eval batch", n["models.forward"] == batches),
            ("no backward in eval", n["tensor.backward"] == 0 and n["nn.conv2d.bwd"] == 0),
        ]


WORKLOADS = {
    "desk_k1_train": DeskK1Train,
    "cyclic_small": CyclicSmall,
    "desk_eval": DeskEval,
}
