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
out at the end of every phase, plus every run.checkpoint_every epochs
inside the final phase or a single-mode run's one phase, and carry enough
state to resume mid-run with byte-identical metrics. A run holds a lock
file in its directory, so a second writer there is refused.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import shutil
import time
from dataclasses import dataclass

import numpy as np

# perfbench/tracer.py wraps these names in this module's namespace; keep them imported here.
from . import data as D
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, replace_atomically, save_checkpoint
from .config import ConfigError, RunConfig, parse_config_text, typed_values
from .metrics import MetricsRow, MetricsWriter, read_metrics
from .models import QuantResNet, build_model, transfer_weights
from .nn import softmax_cross_entropy
from .optim import lr_at, make_optimizer
from .quantize import REAL_BITS, apply_quantizer, weight_spec
from .tensor import no_grad

_INIT_TAG = 0x1A17


class NonFiniteLossError(ValueError):
    """Raised when a training step's loss, gradient or updated weight is NaN or infinite."""


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


def plan_phases(cfg: RunConfig) -> list[Phase]:
    if cfg["schedule.mode"] == "single":
        return [Phase(0, "single", cfg["schedule.bit_depth"], cfg["schedule.epochs"])]
    return expand_schedule(cfg.view(CtmqInputs, "schedule"))


# ----------------------------------------------------------------------
# data plumbing

def load_split(cfg: RunConfig, split: str) -> D.Dataset:
    """Load one split, "train" or "test", of the configured corpus; it must fit the model."""
    fmt = cfg["data.format"]
    seed = cfg["run.seed"]
    if fmt == "synthetic":
        per_class = cfg["data.synth_per_class"]
        ds = D.make_synthetic(
            per_class=per_class if split == "train" else max(8, per_class // 4),
            class_count=cfg["data.synth_classes"],
            image_size=cfg["data.synth_size"],
            seed=seed,
            split=split,
        )
    else:
        root = cfg.data_root()
        if not root:
            raise ConfigError(
                "no data root configured: set data.root or the "
                "BITCYCLE_DATA environment variable"
            )
        ds = (D.load_cifar if fmt == "cifar" else D.load_idx)(root, split)
    subset = cfg["data.train_per_class" if split == "train" else "data.eval_per_class"]
    if subset > 0:
        ds = D.balanced_subset(ds, subset, seed)
    for key, have, what in (("model.num_classes", ds.class_count, "classes"),
                            ("model.in_channels", ds.images.shape[1], "channels")):
        if have != cfg[key]:
            raise ConfigError(f"{key} is {cfg[key]} but the {split} split has {have} {what}")
    return ds


def load_datasets(cfg: RunConfig) -> tuple[D.Dataset, D.Dataset]:
    """The train and eval splits of a training run, which refuses a file data.root."""
    if cfg["data.format"] != "synthetic" and os.path.isfile(cfg.data_root()):
        raise ConfigError(f"data.root {cfg.data_root()!r} is a file, which would serve as both "
                          "the train and the eval split; set it to the directory that holds them")
    return load_split(cfg, "train"), load_split(cfg, "test")


# ----------------------------------------------------------------------
# evaluation and quantization error

def evaluate(model: QuantResNet, ds: D.Dataset, batch_size: int,
             norm: D.Normalization | None) -> tuple[float, float, float]:
    """Top-1 and top-5 accuracy plus mean loss over a dataset, eval mode.

    Accuracies are exact example counts divided by the dataset size, so
    the counting is exact at any batch size. The logits are not: a GEMM
    may round a row differently in a call of another height, so desk k = 1
    logits at batch 1 and batch 128 differ by up to 4.8e-6 (3.5e-7 of the
    largest logit, three seeded untrained models on 128 synthetic images),
    and a prediction between two logits that close can change with the
    batch size.
    """
    if batch_size < 1:
        raise ValueError(f"eval batch size must be at least 1, got {batch_size}")
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

def _write_checkpoint(path: str, cfg: RunConfig, model: QuantResNet, optimizer,
                      phase: Phase, epochs_done: int, iteration: int,
                      norm: D.Normalization, train_name: str) -> None:
    """Save the rolling checkpoint.bin at path, after the cursor's epoch of phase.

    At a phase end the phase's kept snapshot is saved first and checkpoint.bin
    becomes an atomic copy of it, so no kill leaves checkpoint.bin ahead of a
    snapshot: whatever a kill leaves, checkpoint.bin is at worst older. Every
    phase starts a fresh optimizer, so only a mid-phase save keeps its moments.
    """
    mid_phase = epochs_done < phase.epochs
    ck = Checkpoint(
        config_digest=cfg.digest(),
        phase_index=phase.index,
        epochs_done=epochs_done,
        tensors={k: v.data for k, v in model.params.items()},
        optimizer_state=dict(optimizer.state_tensors()) if mid_phase else {},
        step_count=optimizer.step_count,
        metadata={"iteration": iteration, "normalization": norm.to_dict(), "dataset": train_name,
                  "config": cfg.canonical_text()},
    )
    if mid_phase:
        save_checkpoint(path, ck)
        return
    snapshot = os.path.join(os.path.dirname(path), f"checkpoint_phase{phase.index:03d}.bin")
    save_checkpoint(snapshot, ck)
    with replace_atomically(path) as tmp:
        shutil.copyfile(snapshot, tmp)


def _load_tensors(tensors: dict[str, np.ndarray], target: dict, origin: str) -> None:
    try:
        transfer_weights(tensors, target)
    except ValueError as e:
        raise CheckpointError(f"{origin} does not fit the model: {e}") from None


def _model_at(cfg: RunConfig, bit_depth: int, tensors: dict, origin: str) -> QuantResNet:
    """The network at bit_depth holding tensors; all are overwritten, so the init seed never shows."""
    model = build_model(cfg.model_config(bit_depth), rng=np.random.default_rng(0))
    _load_tensors(tensors, model.params, origin)
    return model


def model_from_checkpoint(ck: Checkpoint, origin: str = "checkpoint") -> tuple[QuantResNet, RunConfig]:
    """Rebuild the exact network a checkpoint was taken from; each refusal names origin.

    Every reader checks a checkpoint here: its config text and digest, its cursor, its
    tensors, and the metadata's iteration and normalization."""
    try:
        cfg = RunConfig(typed_values(parse_config_text(ck.metadata["config"], "config"), "config"))
    except KeyError as e:
        raise CheckpointError(f"{origin}: the metadata has no {e} entry") from None
    except ValueError as e:
        raise CheckpointError(f"{origin}: {e}") from None
    if cfg.digest() != ck.config_digest:
        raise CheckpointError(f"{origin}: the config text does not hash to the config digest "
                              f"{ck.config_digest[:12]}")
    phases = plan_phases(cfg)
    if not 0 <= ck.phase_index < len(phases):
        raise CheckpointError(f"{origin}: phase index {ck.phase_index} is not one of the "
                              f"plan's {len(phases)} phases")
    phase = phases[ck.phase_index]
    if not 0 <= ck.epochs_done <= phase.epochs:
        raise CheckpointError(f"{origin}: {ck.epochs_done} epochs done is outside phase "
                              f"{phase.index}'s 0..{phase.epochs}")
    iteration = ck.metadata.get("iteration")
    if type(iteration) is not int or iteration < 0:
        raise CheckpointError(f"{origin}: iteration {iteration!r} is not a count of steps")
    channels = cfg["model.in_channels"]
    try:
        norm = D.Normalization.from_dict(ck.metadata["normalization"])
        if not norm.mean.shape == norm.std.shape == (channels,):
            raise ValueError(f"mean and std hold {norm.mean.size} and {norm.std.size} values")
        if norm.to_dict() != ck.metadata["normalization"]:
            raise ValueError("its values are not the float32 values a run writes")
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{origin}: the metadata holds no normalization for "
                              f"{channels} channels ({type(e).__name__}: {e})") from None
    return _model_at(cfg, phase.bit_depth, ck.tensors, origin), cfg


@contextlib.contextmanager
def _sole_writer(out_dir: str):
    """Hold out_dir/run.lock, with this process's pid in it, for the block.

    A second writer is refused, naming the holder's pid. The kernel drops the
    lock when its holder exits or dies, so a killed run resumes as before."""
    os.makedirs(out_dir, exist_ok=True)
    fd = os.open(os.path.join(out_dir, "run.lock"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 32).decode(errors="replace").strip() or "unknown"
            raise CheckpointError(f"{out_dir} is in use by another run (pid {holder}); wait for it "
                                  "to finish or train into a new directory") from None
        os.ftruncate(fd, 0)
        os.write(fd, f"{os.getpid()}\n".encode())
        yield
    finally:
        os.close(fd)


def _non_finite(what: str, phase: Phase, epoch: int, iteration: int) -> NonFiniteLossError:
    # raised before the step's metrics row or checkpoint: the run directory never sees it
    return NonFiniteLossError(
        f"non-finite {what} in phase {phase.index} ({phase.part}, k={phase.bit_depth}), "
        f"epoch {epoch + 1}/{phase.epochs}, iteration {iteration + 1}; "
        "the run directory keeps its last checkpoint"
    )


def run_schedule(cfg: RunConfig, resume: bool = False, log=None,
                 on_phase_start=None) -> list[MetricsRow]:
    """Execute the full phase plan; returns every metrics row written.

    With resume=True, training continues from the run directory's
    checkpoint and the csv files keep their first K rows, K being the
    epochs it covers, so an interrupted run and an uninterrupted one end
    with identical metrics bytes. Without it, a checkpoint there is refused.
    A run directory has one writer at a time (``_sole_writer``).

    on_phase_start, when given, is called as on_phase_start(phase, model)
    after the hand-off and before the phase's first batch; it sees the
    exact weights the phase starts from. A resume does not call it for the
    phase it continues partway through.
    """
    out_dir = cfg["run.out_dir"]
    seed = cfg["run.seed"]
    phases = plan_phases(cfg)
    # global epoch g is epochs[g]: its phase and its epoch within the phase
    epochs = [(phase, e) for phase in phases for e in range(phase.epochs)]
    train, test = load_datasets(cfg)
    norm = D.Normalization.from_train(train)
    policy = cfg.view(D.AugmentPolicy, "data") if cfg["data.augment"] else None
    batch_size = cfg["data.batch_size"]
    if batch_size > len(train.labels):
        raise ConfigError(
            f"data.batch_size {batch_size} exceeds the training set size {len(train.labels)}"
        )
    per_epoch = len(train.labels) // batch_size

    ckpt_path = os.path.join(out_dir, "checkpoint.bin")
    with _sole_writer(out_dir):
        if not resume and os.path.exists(ckpt_path):
            raise CheckpointError(f"{out_dir} already holds a run: continue it with --resume "
                                  "or train into a new directory")

        # done counts the epochs the run directory holds: the global index of the next epoch
        done = 0
        if resume:
            if not os.path.exists(ckpt_path):
                raise CheckpointError(f"cannot resume: {ckpt_path} does not exist")
            loaded = load_checkpoint(ckpt_path)
            if loaded.config_digest != cfg.digest():
                raise CheckpointError(
                    f"cannot resume: {ckpt_path} was produced by a different config "
                    f"(digest {loaded.config_digest[:12]}, expected {cfg.digest()[:12]})"
                )
            model, _ = model_from_checkpoint(loaded, ckpt_path)
            at = phases[loaded.phase_index]
            done = epochs.index((at, 0)) + loaded.epochs_done
            if not (loaded.epochs_done >= 1
                    and loaded.metadata["iteration"] == done * per_epoch
                    and loaded.step_count == loaded.epochs_done * per_epoch):
                raise CheckpointError(
                    f"cannot resume: {ckpt_path} holds epoch {loaded.epochs_done}, iteration "
                    f"{loaded.metadata['iteration']} and optimizer step {loaded.step_count} "
                    f"of phase {at.index}, which has {at.epochs} epochs of {per_epoch} iterations")
            # the data root is not in the config digest, so the corpus can change under a run
            for key, now in (("normalization", norm.to_dict()), ("dataset", train.name)):
                if loaded.metadata.get(key) != now:
                    raise CheckpointError(
                        f"cannot resume: {ckpt_path} was trained on a split with {key} "
                        f"{loaded.metadata.get(key)!r}, but the training split now has {now!r}")
            if loaded.epochs_done < at.epochs:
                # resuming mid-phase: the phase's optimizer carries on where it stopped
                optimizer = make_optimizer(model.trainable(), cfg.optimizer_config())
                _load_tensors(loaded.optimizer_state, optimizer.state_tensors(),
                              f"{ckpt_path} optimizer state")
                optimizer.step_count = loaded.step_count
        elif cfg["schedule.initial_weights"]:
            warm_path = cfg["schedule.initial_weights"]
            origin = f"schedule.initial_weights {warm_path}"
            teacher, _ = model_from_checkpoint(load_checkpoint(warm_path), origin)
            model = _model_at(cfg, phases[0].bit_depth, teacher.params, origin)
        else:
            init_rng = np.random.default_rng(np.random.SeedSequence([seed, _INIT_TAG]))
            model = build_model(cfg.model_config(phases[0].bit_depth), rng=init_rng)

        checkpoint_every = cfg["run.checkpoint_every"]

        with MetricsWriter(out_dir, done if resume else None) as writer:
            with open(os.path.join(out_dir, "config.txt"), "w") as f:
                f.write(cfg.canonical_text())
            rows = read_metrics(writer.metrics_path) if resume else []
            for g in range(done, len(epochs)):
                phase, epoch = epochs[g]
                if epoch == 0:
                    if model.cfg.bit_depth != phase.bit_depth:
                        model = _model_at(cfg, phase.bit_depth, model.params, "the hand-off")
                    if on_phase_start is not None:
                        on_phase_start(phase, model)
                    optimizer = make_optimizer(model.trainable(), cfg.optimizer_config())

                t0 = time.monotonic()
                lr = lr_at(cfg["optimizer.lr_policy"], epoch, phase.epochs, cfg["optimizer.lr_base"])
                loss_sum = 0.0
                for i, (xb, yb) in enumerate(D.batches(train, batch_size, seed, g,
                                                       policy=policy, norm=norm)):
                    iteration = g * per_epoch + i
                    logits = model.forward(xb, training=True)
                    loss = softmax_cross_entropy(logits, yb)
                    if not np.isfinite(loss.data):
                        raise _non_finite(f"training loss {loss.item()}", phase, epoch, iteration)
                    model.zero_grad()
                    loss.backward()
                    for name, p in model.trainable():
                        if p.grad is not None and not np.isfinite(p.grad).all():
                            raise _non_finite(f"gradient for {name}", phase, epoch, iteration)
                    optimizer.step(lr)
                    for name, p in model.trainable():
                        if not np.isfinite(p.data).all():
                            raise _non_finite(f"weight {name} after the update", phase, epoch, iteration)
                    loss_sum += loss.item()
                top1, top5, _ = evaluate(model, test, cfg.eval_batch_size(), norm)
                row = MetricsRow(
                    phase=phase.index, part=phase.part, bit_depth=phase.bit_depth,
                    epoch=epoch + 1, iteration=(g + 1) * per_epoch, lr=lr,
                    train_loss=loss_sum / per_epoch,
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
                periodic = (phase.part in ("final", "single")
                            and (epoch + 1) % checkpoint_every == 0)
                if epoch + 1 == phase.epochs or periodic:
                    writer.sync()
                    _write_checkpoint(ckpt_path, cfg, model, optimizer, phase,
                                      epoch + 1, row.iteration, norm, train.name)
        return rows
