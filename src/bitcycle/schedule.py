"""Cyclic training across descending bit depths.

A run is a sequence of phases, each training the same latent weights at
one quantization depth. For a target depth k the plan has three parts:

  1. soft transfer: one phase per depth from start_bits down to k+2,
     each starting from the weights the previous depth finished with;
  2. cyclic: C round trips alternating k+1 and k, followed by one more
     k+1 phase (the tail) to settle the pair;
  3. final: a long phase at k itself.

Every phase gets a fresh optimizer and its own learning-rate decay; the
weights are the only state that crosses a phase boundary. Checkpoints go
out at the end of every phase (plus periodically inside the final phase)
and carry enough state to resume mid-run with byte-identical metrics.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py wraps these names in this module's namespace; keep them imported here.
from . import data as D
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, replace_atomically, save_checkpoint
from .config import ConfigError, RunConfig, parse_config_text
from .metrics import MetricsRow, MetricsWriter, read_metrics
from .models import QuantResNet, build_model, transfer_weights
from .nn import softmax_cross_entropy
from .optim import LrSchedule, lr_at, make_optimizer
from .quantize import REAL_BITS, apply_quantizer, weight_spec
from .tensor import no_grad

_INIT_TAG = 0x1A17


class NonFiniteLossError(ValueError):
    """Raised when a training step's loss is NaN or infinite."""


@dataclass(frozen=True)
class CtmqInputs:
    """Knobs that determine the whole phase plan."""

    target_k: int
    start_bits: int = 8
    cycles: int = 9
    soft_epochs: int = 20
    cyclic_epochs: int = 20
    final_epochs: int = 200

    def __post_init__(self):
        if not 1 <= self.target_k < REAL_BITS:
            raise ValueError(f"target_k must be in [1, {REAL_BITS}), got {self.target_k}")
        if not self.target_k < self.start_bits <= 16:
            raise ValueError(
                f"start_bits must be in ({self.target_k}, 16], got {self.start_bits}"
            )
        if self.cycles < 0:
            raise ValueError(f"cycles must be nonnegative, got {self.cycles}")
        for name in ("soft_epochs", "cyclic_epochs", "final_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    @staticmethod
    def from_config(cfg: RunConfig) -> "CtmqInputs":
        return CtmqInputs(
            target_k=cfg["schedule.target_k"],
            start_bits=cfg["schedule.start_bits"],
            cycles=cfg["schedule.cycles"],
            soft_epochs=cfg["schedule.soft_epochs"],
            cyclic_epochs=cfg["schedule.cyclic_epochs"],
            final_epochs=cfg["schedule.final_epochs"],
        )


@dataclass(frozen=True)
class Phase:
    index: int
    part: str       # soft_transfer | cyclic | cyclic_tail | final | single
    bit_depth: int
    epochs: int


def expand_schedule(inputs: CtmqInputs) -> list[Phase]:
    """Unroll the plan into a concrete phase list.

    Phase count is (start_bits - target_k - 1) + 2 * cycles + 2: the
    descent, the cycles, the tail, and the final phase.
    """
    k = inputs.target_k
    phases: list[Phase] = []

    def add(part: str, depth: int, epochs: int):
        phases.append(Phase(len(phases), part, depth, epochs))

    for n in range(inputs.start_bits, k + 1, -1):
        add("soft_transfer", n, inputs.soft_epochs)
    for _ in range(inputs.cycles):
        add("cyclic", k + 1, inputs.cyclic_epochs)
        add("cyclic", k, inputs.cyclic_epochs)
    add("cyclic_tail", k + 1, inputs.cyclic_epochs)
    add("final", k, inputs.final_epochs)
    return phases


def _single_phase(cfg: RunConfig) -> list[Phase]:
    return [Phase(0, "single", cfg["schedule.bit_depth"], cfg["schedule.epochs"])]


def plan_phases(cfg: RunConfig) -> list[Phase]:
    if cfg["schedule.mode"] == "single":
        return _single_phase(cfg)
    return expand_schedule(CtmqInputs.from_config(cfg))


# ----------------------------------------------------------------------
# data plumbing

_IDX_NAMES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_datasets(cfg: RunConfig) -> tuple[D.Dataset, D.Dataset]:
    """Resolve the train and eval datasets named by the config."""
    fmt = cfg["data.format"]
    seed = cfg["run.seed"]
    if fmt == "synthetic":
        train = D.make_synthetic(
            per_class=cfg["data.synth_per_class"],
            class_count=cfg["data.synth_classes"],
            image_size=cfg["data.synth_size"],
            seed=seed,
            split="train",
        )
        test = D.make_synthetic(
            per_class=max(8, cfg["data.synth_per_class"] // 4),
            class_count=cfg["data.synth_classes"],
            image_size=cfg["data.synth_size"],
            seed=seed,
            split="test",
        )
    else:
        root = cfg.data_root()
        if not root:
            raise ConfigError(
                "no data root configured: set data.root or the "
                "BITCYCLE_DATA environment variable"
            )
        if fmt == "cifar":
            train = D.load_cifar(root, split="train")
            test = D.load_cifar(root, split="test")
        else:
            ti, tl = (os.path.join(root, n) for n in _IDX_NAMES["train"])
            ei, el = (os.path.join(root, n) for n in _IDX_NAMES["test"])
            train = D.load_idx(ti, tl, split="train")
            test = D.load_idx(ei, el, split="test")
    if cfg["data.train_per_class"] > 0:
        train = D.balanced_subset(train, cfg["data.train_per_class"], seed)
    if cfg["data.eval_per_class"] > 0:
        test = D.balanced_subset(test, cfg["data.eval_per_class"], seed)
    if train.class_count != cfg["model.num_classes"]:
        raise ConfigError(
            f"model.num_classes is {cfg['model.num_classes']} but the training "
            f"set has {train.class_count} classes"
        )
    return train, test


# ----------------------------------------------------------------------
# evaluation and quantization error

def evaluate(model: QuantResNet, ds: D.Dataset, batch_size: int,
             norm: D.Normalization | None) -> tuple[float, float, float]:
    """Top-1 and top-5 accuracy plus mean loss over a dataset, eval mode.

    Accuracies are exact example counts divided by the dataset size, so
    they do not depend on the batch size used to stream the data.
    """
    top1 = 0
    top5 = 0
    loss_sum = 0.0
    n = len(ds.labels)
    want = min(5, ds.class_count)
    with no_grad():
        for xb, yb in D.eval_batches(ds, batch_size, norm=norm):
            logits = model.forward(xb, training=False)
            z = logits.data
            pred = np.argmax(z, axis=1)
            top1 += int((pred == yb).sum())
            part = np.argpartition(-z, want - 1, axis=1)[:, :want]
            top5 += int((part == yb[:, None]).any(axis=1).sum())
            loss_sum += softmax_cross_entropy(logits, yb).item() * len(yb)
    return top1 / n, top5 / n, loss_sum / n


def pooled_weight_error(model: QuantResNet) -> float:
    """Mean absolute fake-quantization error over all quantized weights."""
    names = model.quantized_weight_names()
    if not names:
        return 0.0
    spec = weight_spec(model.cfg.bit_depth)
    total = 0.0
    count = 0
    for name in sorted(names):
        w = model.params[name].data
        wq = apply_quantizer(w.astype(np.float64), spec)
        total += float(np.abs(wq - w).sum())
        count += w.size
    return total / count


# ----------------------------------------------------------------------
# the driver

def _epochs_before(phases: list[Phase], index: int) -> int:
    return sum(p.epochs for p in phases[:index])


def _write_checkpoint(out_dir: str, cfg: RunConfig, model: QuantResNet, optimizer,
                      phase: Phase, epochs_done: int, iteration: int,
                      norm: D.Normalization, train_name: str,
                      snapshot: bool = False) -> None:
    meta = {
        "part": phase.part,
        "bit_depth": phase.bit_depth,
        "iteration": iteration,
        "normalization": norm.to_dict(),
        "dataset": train_name,
        "config": cfg.canonical_text(),
        "threads": cfg["run.threads"],
    }
    ck = Checkpoint(
        config_digest=cfg.digest(),
        phase_index=phase.index,
        epochs_done=epochs_done,
        tensors={k: v.data for k, v in model.params.items()},
        optimizer_state=dict(optimizer.state_tensors()),
        step_count=optimizer.step_count,
        metadata=meta,
    )
    latest = os.path.join(out_dir, "checkpoint.bin")
    save_checkpoint(latest, ck)
    if snapshot:
        # end-of-phase snapshots stay around; checkpoint.bin is the rolling latest
        with replace_atomically(os.path.join(out_dir, f"checkpoint_phase{phase.index:03d}.bin")) as tmp:
            shutil.copyfile(latest, tmp)


def _load_tensors(tensors: dict[str, np.ndarray], target: dict, origin: str) -> None:
    try:
        transfer_weights(tensors, target)
    except ValueError as e:
        raise CheckpointError(f"{origin} does not fit the model: {e}") from None


def model_from_checkpoint(ck: Checkpoint) -> tuple[QuantResNet, RunConfig]:
    """Rebuild the exact network a checkpoint was taken from."""
    cfg = RunConfig.from_raw(parse_config_text(ck.metadata["config"], origin="<checkpoint>"))
    model = build_model(cfg.model_config(int(ck.metadata["bit_depth"])),
                        rng=np.random.default_rng(0))
    _load_tensors(ck.tensors, model.params, "checkpoint")
    return model, cfg


def run_schedule(cfg: RunConfig, resume: bool = False, log=None,
                 on_phase_start=None) -> list[MetricsRow]:
    """Execute the full phase plan; returns every metrics row written.

    With resume=True, training continues from the run directory's
    checkpoint and the csv files keep their first K rows, K being the
    epochs it covers, so an interrupted run and an uninterrupted one end
    with identical metrics bytes. Without it, a checkpoint there is refused.

    on_phase_start, when given, is called as on_phase_start(phase, model)
    after the hand-off and before the phase's first batch; it sees the
    exact weights the phase starts from.
    """
    out_dir = cfg["run.out_dir"]
    seed = cfg["run.seed"]
    phases = plan_phases(cfg)
    train, test = load_datasets(cfg)
    norm = D.Normalization.from_train(train)
    policy = None
    if cfg["data.augment"]:
        policy = D.AugmentPolicy(pad=cfg["data.pad"],
                                 horizontal_flip_prob=cfg["data.flip_prob"])
    batch_size = cfg["data.batch_size"]
    eval_bs = cfg["data.eval_batch_size"] or batch_size
    if batch_size > len(train.labels):
        raise ConfigError(
            f"data.batch_size {batch_size} exceeds the training set size {len(train.labels)}"
        )

    ckpt_path = os.path.join(out_dir, "checkpoint.bin")

    start_phase = 0
    start_epoch = 0
    keep_rows = None
    loaded: Checkpoint | None = None
    if resume:
        if not os.path.exists(ckpt_path):
            raise CheckpointError(f"cannot resume: {ckpt_path} does not exist")
        loaded = load_checkpoint(ckpt_path)
        if loaded.config_digest != cfg.digest():
            raise CheckpointError(
                "cannot resume: checkpoint was produced by a different config "
                f"(digest {loaded.config_digest[:12]}, expected {cfg.digest()[:12]})"
            )
        start_phase = loaded.phase_index
        start_epoch = loaded.epochs_done
        keep_rows = _epochs_before(phases, start_phase) + start_epoch
    elif os.path.exists(ckpt_path):
        raise CheckpointError(f"{out_dir} already holds a run: continue it with --resume "
                              "or train into a new directory")

    init_rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_TAG]))
    model = build_model(cfg.model_config(phases[start_phase].bit_depth), rng=init_rng)
    optimizer = make_optimizer(model.trainable(), cfg.optimizer_config())
    if loaded:
        _load_tensors(loaded.tensors, model.params, ckpt_path)
        if 0 < start_epoch < phases[start_phase].epochs:
            # resuming mid-phase: the phase's optimizer carries on where it stopped
            _load_tensors(loaded.optimizer_state, optimizer.state_tensors(),
                          f"{ckpt_path} optimizer state")
            optimizer.step_count = loaded.step_count
    elif cfg["schedule.initial_weights"]:
        warm_path = cfg["schedule.initial_weights"]
        _load_tensors(load_checkpoint(warm_path).tensors, model.params,
                      f"schedule.initial_weights {warm_path}")

    iteration = int(loaded.metadata["iteration"]) if loaded else 0
    checkpoint_every = cfg["run.checkpoint_every"]

    with MetricsWriter(out_dir, keep_rows) as writer:
        with open(os.path.join(out_dir, "config.txt"), "w") as f:
            f.write(cfg.canonical_text())
        rows = read_metrics(writer.metrics_path) if loaded else []
        for phase in phases[start_phase:]:
            phase_epoch0 = start_epoch if phase.index == start_phase else 0
            if phase_epoch0 == phase.epochs:
                continue  # the checkpoint was taken at the end of this phase
            if model.cfg.bit_depth != phase.bit_depth:
                successor = build_model(cfg.model_config(phase.bit_depth),
                                        rng=np.random.default_rng(0))
                transfer_weights(model.params, successor.params)
                model = successor

            if on_phase_start is not None:
                on_phase_start(phase, model)
            if phase.index != start_phase:
                optimizer = make_optimizer(model.trainable(), cfg.optimizer_config())
            lr_schedule = LrSchedule(cfg["optimizer.lr_policy"], phase.epochs)

            global_epoch0 = _epochs_before(phases, phase.index)
            for epoch in range(phase_epoch0, phase.epochs):
                t0 = time.monotonic()
                lr = lr_at(lr_schedule, epoch, cfg["optimizer.lr_base"])
                loss_sum = 0.0
                n_batches = 0
                for xb, yb in D.batches(train, batch_size, seed,
                                        global_epoch0 + epoch,
                                        policy=policy, norm=norm):
                    logits = model.forward(xb, training=True)
                    loss = softmax_cross_entropy(logits, yb)
                    if not np.isfinite(loss.data):
                        # stop before the update: no weight, optimizer state,
                        # metrics row or checkpoint sees this step
                        raise NonFiniteLossError(
                            f"non-finite training loss {loss.item()} in phase {phase.index} "
                            f"({phase.part}, k={phase.bit_depth}), epoch {epoch + 1}/{phase.epochs}, "
                            f"iteration {iteration + 1}; the run directory keeps its last checkpoint"
                        )
                    model.zero_grad()
                    loss.backward()
                    optimizer.step(lr)
                    loss_sum += loss.item()
                    n_batches += 1
                    iteration += 1
                top1, top5, _ = evaluate(model, test, eval_bs, norm)
                row = MetricsRow(
                    phase=phase.index, part=phase.part, bit_depth=phase.bit_depth,
                    epoch=epoch + 1, iteration=iteration, lr=lr,
                    train_loss=loss_sum / max(1, n_batches),
                    eval_top1=top1, eval_top5=top5,
                    mean_abs_quant_error=pooled_weight_error(model),
                    wall_seconds=time.monotonic() - t0,
                )
                writer.append(row)
                rows.append(row)
                if log:
                    log(f"phase {phase.index:>2} {phase.part:<13} k={phase.bit_depth:<2} "
                        f"epoch {epoch + 1:>3}/{phase.epochs} lr={lr:.5f} "
                        f"loss={row.train_loss:.4f} top1={top1:.4f}")
                end_of_phase = epoch + 1 == phase.epochs
                periodic = (phase.part in ("final", "single")
                            and (epoch + 1) % checkpoint_every == 0)
                if end_of_phase or periodic:
                    _write_checkpoint(out_dir, cfg, model, optimizer, phase,
                                      epoch + 1, iteration, norm, train.name,
                                      snapshot=end_of_phase)
    return rows
