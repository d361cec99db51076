import contextlib
import os
import re
import select
import shutil
import signal
from pathlib import Path

import numpy as np
import pytest

from bitcycle import data, optim, schedule
from bitcycle.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from bitcycle.config import ConfigError, RunConfig
from bitcycle.data import Normalization, make_synthetic
from bitcycle.metrics import MetricsWriter, read_metrics
from bitcycle.models import ModelConfig, build_model, desk_config
from bitcycle.schedule import (
    CtmqInputs,
    NonFiniteLossError,
    Phase,
    evaluate,
    expand_schedule,
    load_datasets,
    model_from_checkpoint,
    plan_phases,
    pooled_weight_error,
    run_schedule,
)
from bitcycle.tensor import Tensor, no_grad

from oracle_schedule import literal_plan
from test_data import write_idx

_BUDGET_FIELD = {"T_s": "soft_epochs", "T_c": "cyclic_epochs", "T_f": "final_epochs"}


def tiny_values(**extra):
    """A config small enough to train in well under a second."""
    values = {
        "model.stage_channels": (4, 8),
        "model.blocks_per_stage": (1, 1),
        "model.num_classes": 4,
        "data.synth_classes": 4,
        "data.synth_per_class": 8,
        "data.synth_size": 12,
        "data.batch_size": 16,
        "schedule.target_k": 1,
        "schedule.start_bits": 3,
        "schedule.cycles": 1,
        "schedule.soft_epochs": 1,
        "schedule.cyclic_epochs": 1,
        "schedule.final_epochs": 3,
        "run.checkpoint_every": 1,
    }
    values.update(extra)
    return values


# ----------------------------------------------------------------------
# plan expansion


def test_expansion_matches_literal_plan_grid():
    for k in (1, 2):
        for start in (4, 8):
            for cycles in (0, 1, 3, 9):
                inputs = CtmqInputs(target_k=k, start_bits=start, cycles=cycles,
                                    soft_epochs=5, cyclic_epochs=7, final_epochs=11)
                phases = expand_schedule(inputs)
                expected = literal_plan(k, start, cycles)
                assert len(phases) == len(expected)
                for phase, (part, depth, budget) in zip(phases, expected):
                    assert phase.part == part
                    assert phase.bit_depth == depth
                    assert phase.epochs == getattr(inputs, _BUDGET_FIELD[budget])


def test_expansion_phase_count_formula():
    for k in (1, 2, 3):
        for start in (k + 1, k + 2, 8):
            for cycles in (0, 2, 9):
                inputs = CtmqInputs(target_k=k, start_bits=start, cycles=cycles)
                assert len(expand_schedule(inputs)) == (start - k - 1) + 2 * cycles + 2


def test_default_plan_is_twenty_six_phases():
    phases = expand_schedule(CtmqInputs(target_k=1))
    assert len(phases) == 26
    depths = [p.bit_depth for p in phases]
    assert depths == [8, 7, 6, 5, 4, 3] + [2, 1] * 9 + [2, 1]
    assert [p.part for p in phases[:6]] == ["soft_transfer"] * 6
    assert phases[-2].part == "cyclic_tail"
    assert phases[-1].part == "final"
    assert [p.index for p in phases] == list(range(26))


def test_minimal_start_bits_skips_soft_transfer():
    phases = expand_schedule(CtmqInputs(target_k=1, start_bits=2, cycles=0))
    assert [(p.part, p.bit_depth) for p in phases] == [("cyclic_tail", 2), ("final", 1)]


def test_start_bits_three_gives_single_soft_phase():
    phases = expand_schedule(CtmqInputs(target_k=1, start_bits=3, cycles=2))
    soft = [p for p in phases if p.part == "soft_transfer"]
    assert [(p.bit_depth) for p in soft] == [3]


@pytest.mark.parametrize("kwargs", [
    dict(target_k=0),
    dict(target_k=32),
    dict(target_k=4, start_bits=4),
    dict(target_k=1, start_bits=17),
    dict(target_k=1, cycles=-1),
    dict(target_k=1, soft_epochs=0),
    dict(target_k=1, final_epochs=0),
])
def test_inputs_validation(kwargs):
    with pytest.raises(ValueError):
        CtmqInputs(**kwargs)


def test_plan_phases_single_mode():
    cfg = RunConfig({"schedule.mode": "single", "schedule.bit_depth": 4,
                     "schedule.epochs": 6})
    phases = plan_phases(cfg)
    assert phases == [Phase(0, "single", 4, 6)]


# ----------------------------------------------------------------------
# datasets and evaluation


def test_load_datasets_synthetic_counts():
    cfg = RunConfig(tiny_values())
    train, test = load_datasets(cfg)
    assert len(train.labels) == 32
    assert train.class_count == 4
    assert len(test.labels) == 32  # test split floor of 8 per class


def test_load_datasets_class_mismatch():
    cfg = RunConfig(tiny_values(**{"model.num_classes": 7,
                                   "data.synth_classes": 4}))
    with pytest.raises(ConfigError, match="num_classes is 7"):
        load_datasets(cfg)


def test_load_datasets_cifar_needs_root(monkeypatch):
    monkeypatch.delenv("BITCYCLE_DATA", raising=False)
    cfg = RunConfig(tiny_values(**{"data.format": "cifar", "model.num_classes": 10}))
    with pytest.raises(ConfigError, match="BITCYCLE_DATA"):
        load_datasets(cfg)


def test_training_refuses_a_file_data_root(tmp_path):
    # a lone .bin would be read as both splits, so eval top-1 would be training accuracy
    rng = np.random.default_rng(0)
    path = tmp_path / "all.bin"
    path.write_bytes(b"".join(bytes([i % 10]) + rng.integers(0, 256, 3072, dtype=np.uint8).tobytes()
                              for i in range(40)))
    out = tmp_path / "run"
    cfg = RunConfig(tiny_values(**{"data.format": "cifar", "data.root": str(path),
                                   "model.num_classes": 10, "run.out_dir": str(out)}))
    with pytest.raises(ConfigError, match="data.root .* directory"):
        run_schedule(cfg)
    assert not out.exists()


@pytest.mark.parametrize("key,value", [
    ("run.checkpoint_every", 0), ("data.eval_batch_size", -1), ("model.in_channels", 1),
    ("data.synth_per_class", 0), ("data.synth_classes", 0), ("data.synth_size", 0),
])
def test_training_refuses_a_bad_value_before_touching_disk(tmp_path, key, value):
    out = tmp_path / "run"
    # make_synthetic takes the data.synth_* keys, and its message names its own parameter
    error, match = {"data.synth_per_class": (ValueError, "per_class"),
                    "data.synth_classes": (ValueError, "class_count"),
                    "data.synth_size": (ValueError, "image_size")}.get(key, (ConfigError, key))
    with pytest.raises(error, match=match):
        run_schedule(RunConfig(tiny_values(**{key: value, "run.out_dir": str(out)})))
    assert not out.exists()


def test_load_datasets_train_subset():
    cfg = RunConfig(tiny_values(**{"data.train_per_class": 2}))
    train, _ = load_datasets(cfg)
    assert len(train.labels) == 8
    assert all((train.labels == c).sum() == 2 for c in range(4))


def test_load_datasets_idx(tmp_path):
    rng = np.random.default_rng(0)
    for prefix, n, classes in (("train", 30, 3), ("t10k", 12, 3), ("bad", 12, 2)):
        write_idx(tmp_path / f"{prefix}-images-idx3-ubyte", rng.integers(0, 256, (n, 6, 6)))
        write_idx(tmp_path / f"{prefix}-labels-idx1-ubyte", np.arange(n) % classes)
    values = tiny_values(**{"data.format": "idx", "data.root": str(tmp_path),
                            "model.num_classes": 3, "model.in_channels": 1,
                            "data.eval_per_class": 2})
    train, test = load_datasets(RunConfig(values))
    assert (len(train), len(test)) == (30, 6)
    assert train.images.shape[1:] == test.images.shape[1:] == (1, 6, 6)
    assert train.class_count == test.class_count == 3
    with pytest.raises(ConfigError, match="num_classes is 4 but the train split has 3 classes"):
        load_datasets(RunConfig({**values, "model.num_classes": 4}))
    # the check runs on each split: an eval split with fewer classes is refused too
    for name in ("images-idx3-ubyte", "labels-idx1-ubyte"):
        shutil.copyfile(tmp_path / f"bad-{name}", tmp_path / f"t10k-{name}")
    with pytest.raises(ConfigError, match="num_classes is 3 but the test split has 2 classes"):
        load_datasets(RunConfig(values))


def test_evaluate_batch_size_invariant():
    ds = make_synthetic(per_class=8, class_count=4, image_size=12, seed=3, split="test")
    norm = Normalization.from_train(ds)
    model = build_model(desk_config(bit_depth=2, num_classes=4),
                        rng=np.random.default_rng(0))
    results = [evaluate(model, ds, bs, norm)[:2] for bs in (5, 7, 32)]
    assert results[0] == results[1] == results[2]


def test_top5_counts_labels_among_the_five_largest_logits():
    # 6 classes, so top-5 leaves one out; the set holds images whose label
    # ranks exactly fifth, which a top-4 count would miss
    ds = make_synthetic(per_class=8, class_count=6, image_size=12, seed=3, split="test")
    norm = Normalization.from_train(ds)
    model = build_model(ModelConfig(stage_channels=(4, 8), blocks_per_stage=(1, 1), num_classes=6,
                                    bit_depth=2), rng=np.random.default_rng(0))
    n = len(ds.labels)
    _, top5, _ = evaluate(model, ds, n, norm)
    (xb, yb), = data.eval_batches(ds, n, norm=norm)
    with no_grad():
        z = model.forward(xb).data
    # a label's rank: how many logits of its image lie above its own
    ranks = [sum(v > row[y] for v in row) for row, y in zip(z.tolist(), yb.tolist())]
    assert 4 in ranks
    assert top5 == sum(r < 5 for r in ranks) / n


def test_pooled_weight_error_zero_at_full_precision():
    model = build_model(desk_config(bit_depth=32, num_classes=4),
                        rng=np.random.default_rng(0))
    assert pooled_weight_error(model) == 0.0


def test_pooled_weight_error_positive_when_quantized():
    model = build_model(desk_config(bit_depth=1, num_classes=4),
                        rng=np.random.default_rng(0))
    assert pooled_weight_error(model) > 0.0


# ----------------------------------------------------------------------
# the driver


def _run(tmp_path, name, resume=False, log=None, **extra):
    values = tiny_values(**extra)
    values["run.out_dir"] = str(tmp_path / name)
    cfg = RunConfig(values)
    rows = run_schedule(cfg, resume=resume, log=log)
    return cfg, rows


def test_run_covers_plan(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    phases = plan_phases(cfg)
    assert len(rows) == sum(p.epochs for p in phases)
    seen = [(r.phase, r.part, r.bit_depth) for r in rows]
    expected = [(p.index, p.part, p.bit_depth) for p in phases for _ in range(p.epochs)]
    assert seen == expected
    iters = [r.iteration for r in rows]
    assert iters == sorted(iters) and len(set(iters)) == len(iters)
    out = str(tmp_path / "run")
    files = sorted(os.listdir(out))
    for required in ("checkpoint.bin", "config.txt", "metrics.csv", "timing.csv"):
        assert required in files
    snapshots = [f for f in files if f.startswith("checkpoint_phase")]
    assert len(snapshots) == len(phases)
    assert Path(out, "config.txt").read_text() == cfg.canonical_text()


def test_learning_rate_decays_within_final_phase(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    final = [r for r in rows if r.part == "final"]
    base = float(cfg["optimizer.lr_base"])
    expected = [base * (1 - e / len(final)) for e in range(len(final))]
    np.testing.assert_allclose([r.lr for r in final], expected, rtol=0, atol=0)


def test_metrics_file_matches_returned_rows(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    on_disk = read_metrics(os.path.join(str(tmp_path / "run"), "metrics.csv"))
    assert [(r.phase, r.epoch, r.train_loss, r.eval_top1) for r in on_disk] == \
        [(r.phase, r.epoch, r.train_loss, r.eval_top1) for r in rows]


def test_identical_configs_reproduce_metrics_bytes(tmp_path):
    _run(tmp_path, "a")
    _run(tmp_path, "b")
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a == b


def test_seed_changes_metrics(tmp_path):
    _run(tmp_path, "a")
    _run(tmp_path, "b", **{"run.seed": 1})
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert a != b


def test_quant_error_column_recomputes_from_checkpoint(tmp_path):
    _, rows = _run(tmp_path, "run")
    assert all(r.mean_abs_quant_error > 0 for r in rows)
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    model, _ = model_from_checkpoint(ck)
    assert pooled_weight_error(model) == rows[-1].mean_abs_quant_error


def test_final_checkpoint_evaluates_to_last_row(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    assert ck.config_digest == cfg.digest()
    assert ck.metadata["iteration"] == rows[-1].iteration
    model, cfg_back = model_from_checkpoint(ck)
    assert cfg_back.digest() == cfg.digest()
    _, test = load_datasets(cfg_back)
    norm = Normalization.from_dict(ck.metadata["normalization"])
    top1, top5, _ = evaluate(model, test, int(cfg["data.batch_size"]), norm)
    assert top1 == rows[-1].eval_top1
    assert top5 == rows[-1].eval_top5


def test_eval_at_other_batch_size_matches(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    model, cfg_back = model_from_checkpoint(ck)
    _, test = load_datasets(cfg_back)
    norm = Normalization.from_dict(ck.metadata["normalization"])
    top1, top5, _ = evaluate(model, test, 5, norm)
    assert top1 == rows[-1].eval_top1
    assert top5 == rows[-1].eval_top5


class _InterruptAfter:
    """Log callback that kills the run after a fixed number of epochs."""

    def __init__(self, rows_allowed):
        self.remaining = rows_allowed

    def __call__(self, message):
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """metrics.csv and final checkpoint.bin bytes of one full tiny run."""
    tmp = tmp_path_factory.mktemp("uninterrupted")
    _run(tmp, "full")
    return {f: (tmp / "full" / f).read_bytes() for f in ("metrics.csv", "checkpoint.bin")}


# The tiny plan has 7 epochs. The interrupt fires after an epoch's metrics
# row and before its checkpoint, so rows_allowed r resumes from the
# checkpoint after epoch r - 1: r = 2..7 covers every epoch boundary (2 is
# the first phase boundary, 6 and 7 are inside the 3-epoch final phase).
@pytest.mark.parametrize("rows_allowed", range(2, 8))
def test_resume_reproduces_uninterrupted_run(tmp_path, uninterrupted, rows_allowed):
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(rows_allowed))
    _run(tmp_path, "cut", resume=True)
    for f, full in uninterrupted.items():
        assert (tmp_path / "cut" / f).read_bytes() == full, f


def test_resume_drops_a_torn_last_row(tmp_path, uninterrupted):
    # the checkpoint covers 3 epochs; the crash tore the 4th epoch's row
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    metrics = tmp_path / "cut" / "metrics.csv"
    text = metrics.read_bytes()
    metrics.write_bytes(text[:text.rindex(b"\n", 0, -1) + 10])
    _run(tmp_path, "cut", resume=True)
    for f, full in uninterrupted.items():
        assert (tmp_path / "cut" / f).read_bytes() == full, f


def test_crash_between_checkpoint_write_and_rename(tmp_path, uninterrupted, monkeypatch):
    # the 6th checkpoint.bin save (after the final phase's 2nd epoch) dies
    # once its temp file is written and before it is renamed into place
    out = tmp_path / "cut"
    rename = os.replace
    saves = []
    previous = {}

    def crashing_replace(src, dst):
        if os.path.basename(dst) == "checkpoint.bin":
            saves.append(src)
            if len(saves) == 6:
                assert os.path.getsize(src) > 0
                previous["bytes"] = (out / "checkpoint.bin").read_bytes()
                raise OSError("crash before rename")
        rename(src, dst)

    monkeypatch.setattr(os, "replace", crashing_replace)
    with pytest.raises(OSError, match="crash before rename"):
        _run(tmp_path, "cut")
    monkeypatch.undo()
    assert (out / "checkpoint.bin").read_bytes() == previous["bytes"]
    assert not list(out.glob("*.tmp"))
    _run(tmp_path, "cut", resume=True)
    for f, full in uninterrupted.items():
        assert (out / f).read_bytes() == full, f


class _KillOnFlush:
    """A file whose flush SIGKILLs the process before anything is flushed."""

    def __init__(self, f):
        self._f = f

    def __getattr__(self, name):
        return getattr(self._f, name)

    def flush(self):
        os.kill(os.getpid(), signal.SIGKILL)


# How often the tiny plan meets each event: it saves a phase snapshot 5 times
# and checkpoint.bin 7 times (12 renames, each with an fsync of the temp
# file and one of the directory), syncs both csv files before each checkpoint
# and appends 7 rows.
EVENTS = {"replace": 12, "replaced": 12, "fsync": 38, "append": 7}
# the call each event hooks
HOOKED = {"replace": (os, "replace"), "replaced": (os, "replace"), "fsync": (os, "fsync"),
          "append": (MetricsWriter, "append")}


def _arm(event, kill_at, counts=None):
    """Hook the event's calls: count them into counts, or SIGKILL the process
    at the kill_at-th. "replace" dies inside os.replace before the file
    moves, "replaced" right after it returns, "fsync" inside os.fsync, and
    "append" inside MetricsWriter.append, once metrics.csv holds the row and
    before timing.csv does. Returns the (owner, name, hooked) to set."""
    owner, name = HOOKED[event]
    real = getattr(owner, name)

    def hooked(*args):
        if counts is not None:
            counts[event] += 1
            return real(*args)
        hooked.calls += 1
        if hooked.calls != kill_at:
            return real(*args)
        if event == "replaced":
            real(*args)
        elif event == "append":
            args[0]._timing = _KillOnFlush(args[0]._timing)
            real(*args)
        os.kill(os.getpid(), signal.SIGKILL)

    hooked.calls = 0
    return owner, name, hooked


@pytest.fixture(scope="module")
def uninterrupted_dir(tmp_path_factory):
    """Every file of one full tiny run, by name."""
    tmp = tmp_path_factory.mktemp("uninterrupted_dir")
    counts = dict.fromkeys(EVENTS, 0)
    with pytest.MonkeyPatch.context() as mp:
        for event in EVENTS:
            mp.setattr(*_arm(event, 0, counts))
        _run(tmp, "full")
    assert counts == EVENTS
    return {f.name: f.read_bytes() for f in (tmp / "full").iterdir()}


def _kill_then_resume(tmp_path, uninterrupted_dir, event, kill_at):
    """Fork after import, train in the child until the event's kill_at-th call
    SIGKILLs it, then resume (a rerun when no checkpoint.bin was written yet):
    the run must end with the full run's files, byte for byte, and no other.
    Returns the file names the kill left."""
    pid = os.fork()
    if pid == 0:
        try:
            setattr(*_arm(event, kill_at))
            _run(tmp_path, "cut")
        finally:
            os._exit(1)
    _, status = os.waitpid(pid, 0)
    assert os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL
    out = tmp_path / "cut"
    left = sorted(f.name for f in out.iterdir())
    if event == "append":  # the kill fell between the two files' writes
        rows = [len((out / f).read_bytes().splitlines()) for f in ("metrics.csv", "timing.csv")]
        assert rows == [kill_at + 1, kill_at]  # a header and kill_at rows against kill_at - 1
    _run(tmp_path, "cut", resume=(out / "checkpoint.bin").exists())
    assert sorted(f.name for f in out.iterdir()) == sorted(uninterrupted_dir)
    for f in ("metrics.csv", "checkpoint.bin"):
        assert (out / f).read_bytes() == uninterrupted_dir[f], f
    for f in out.glob("checkpoint_phase*.bin"):
        assert f.read_bytes() == uninterrupted_dir[f.name], f.name
    return left


# A kill inside the k-th rename, before it moves the file, leaves its temp
# file behind for the resume to overwrite.
@pytest.mark.parametrize("kill_at", range(1, 13))
def test_kill_inside_a_rename_then_resume_leaves_no_stray_file(tmp_path, uninterrupted_dir, kill_at):
    left = _kill_then_resume(tmp_path, uninterrupted_dir, "replace", kill_at)
    assert any(name.endswith(".tmp") for name in left)


@pytest.mark.parametrize("event, kill_at", [(event, k) for event in ("replaced", "fsync", "append")
                                            for k in range(1, EVENTS[event] + 1)])
def test_kill_at_each_write_event_then_resume_matches_the_full_run(tmp_path, uninterrupted_dir,
                                                                    event, kill_at):
    _kill_then_resume(tmp_path, uninterrupted_dir, event, kill_at)


def test_csv_rows_are_fsynced_before_each_checkpoint_rename(tmp_path, monkeypatch):
    # a checkpoint on disk must never cover rows that are not: at each rename
    # of checkpoint.bin, both csv files were fsynced at their current size
    out = tmp_path / "run"
    synced = {}  # inode -> size at its last fsync
    renames = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        synced[st.st_ino] = st.st_size
        real_fsync(fd)

    def replace(src, dst):
        if os.path.basename(dst) == "checkpoint.bin":
            renames.append([synced.get(st.st_ino) == st.st_size
                            for st in (os.stat(out / f) for f in ("metrics.csv", "timing.csv"))])
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    _run(tmp_path, "run")
    assert renames == [[True, True]] * 7


def test_phase_snapshot_is_on_disk_before_checkpoint_bin_reaches_its_phase_end(tmp_path, monkeypatch):
    # checkpoint.bin is never ahead of a kept snapshot: at each rename of
    # checkpoint.bin that ends a phase, that phase's snapshot already exists
    # and holds the bytes being renamed
    out = tmp_path / "run"
    phases = plan_phases(RunConfig(tiny_values()))
    ends = []
    real_replace = os.replace

    def replace(src, dst):
        if os.path.basename(dst) == "checkpoint.bin":
            ck = load_checkpoint(src)
            if ck.epochs_done == phases[ck.phase_index].epochs:
                snapshot = out / f"checkpoint_phase{ck.phase_index:03d}.bin"
                ends.append(snapshot.exists() and snapshot.read_bytes() == Path(src).read_bytes())
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    _run(tmp_path, "run")
    assert ends == [True] * len(phases)


@pytest.mark.parametrize("damage", ["missing", "short"])
@pytest.mark.parametrize("name", ["metrics.csv", "timing.csv"])
def test_resume_refuses_a_missing_or_short_file(tmp_path, name, damage):
    # the checkpoint covers 3 epochs; the damaged file keeps 2 rows or none
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    out = tmp_path / "cut"
    if damage == "missing":
        (out / name).unlink()
    else:
        lines = (out / name).read_bytes().splitlines(keepends=True)
        (out / name).write_bytes(b"".join(lines[:3]))
    before = {f.name: f.read_bytes() for f in out.glob("*.csv")}
    with pytest.raises((ValueError, OSError), match=name):
        _run(tmp_path, "cut", resume=True)
    assert {f.name: f.read_bytes() for f in out.glob("*.csv")} == before


@pytest.mark.parametrize("corrupt, expected", [
    (lambda state: state.update({"m.fc.bias": np.zeros(1, np.float32)}), "('m.fc.bias', (1,), (4,))"),
    (lambda state: state.pop("v.fc.bias"), "only in target: ['v.fc.bias']"),
], ids=["misshaped", "missing"])
def test_resume_checks_optimizer_state(tmp_path, corrupt, expected):
    # cut after the first of the final phase's 3 epochs, so resume loads
    # the phase's Adam moments
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(6))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    assert ck.phase_index == 4 and ck.epochs_done == 1
    corrupt(ck.optimizer_state)
    save_checkpoint(path, ck)
    before = (out / "metrics.csv").read_bytes()
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert f"{path} optimizer state" in str(err.value) and expected in str(err.value)
    assert (out / "metrics.csv").read_bytes() == before


@pytest.mark.parametrize("corrupt, expected", [
    (lambda tensors: tensors.update({"fc.bias": np.zeros(1, np.float32)}), "('fc.bias', (1,), (4,))"),
    (lambda tensors: tensors.pop("stage1.block0.bn2.running_var"),
     "only in target: ['stage1.block0.bn2.running_var']"),
], ids=["misshaped", "missing"])
def test_resume_checks_model_tensors(tmp_path, corrupt, expected):
    # the checkpoint covers 3 epochs; its model tensors no longer fit the model
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    corrupt(ck.tensors)
    save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert f"{path} does not fit the model" in str(err.value) and expected in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


# The tiny plan's final phase (index 4) has 3 epochs of 2 iterations; the
# checkpoint taken after its first epoch holds epoch 1, iteration 10, step 2.
@pytest.mark.parametrize("corrupt, expected", [
    (lambda ck: setattr(ck, "phase_index", 99), "phase index 99 is not one of the plan's 5 phases"),
    (lambda ck: setattr(ck, "phase_index", -1), "phase index -1 is not one of the plan's 5 phases"),
    (lambda ck: setattr(ck, "epochs_done", -3), "-3 epochs done is outside phase 4's 0..3"),
    (lambda ck: setattr(ck, "epochs_done", 0), "holds epoch 0, iteration 10"),
    (lambda ck: setattr(ck, "epochs_done", 4), "4 epochs done is outside phase 4's 0..3"),
    (lambda ck: ck.metadata.update(iteration=11), "holds epoch 1, iteration 11 and optimizer step 2"),
    (lambda ck: setattr(ck, "step_count", 3), "holds epoch 1, iteration 10 and optimizer step 3"),
], ids=["phase-past-the-plan", "phase-negative", "epochs-negative", "epochs-zero",
        "epochs-past-the-phase", "iteration", "optimizer-step"])
def test_resume_refuses_a_cursor_the_plan_does_not_hold(tmp_path, corrupt, expected):
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(6))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    assert (ck.phase_index, ck.epochs_done, ck.metadata["iteration"], ck.step_count) == (4, 1, 10, 2)
    corrupt(ck)
    save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert path in str(err.value) and expected in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


def test_resume_refuses_a_phase_end_checkpoint_with_another_optimizer_step(tmp_path):
    # the checkpoint covers 3 epochs and ends phase 2, whose optimizer took 2 steps
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    assert (ck.phase_index, ck.epochs_done, ck.step_count) == (2, 1, 2)
    ck.step_count += 1
    save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert path in str(err.value) and "holds epoch 1, iteration 6 and optimizer step 3" in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


def test_resume_refuses_a_checkpoint_of_zero_epochs(tmp_path):
    # the phase-end checkpoint of phase 2 (global epochs 0..2), re-saved as
    # phase 2 at 0 epochs with the iteration, optimizer step and fresh Adam
    # moments that cursor implies: it covers no epoch of its phase, so
    # resume refuses it rather than replay the phase from its start
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    assert (ck.phase_index, ck.epochs_done, ck.metadata["iteration"], ck.step_count) == (2, 1, 6, 2)
    ck.epochs_done, ck.step_count = 0, 0
    ck.metadata["iteration"] = 4
    model, cfg = model_from_checkpoint(ck)
    ck.optimizer_state = dict(optim.make_optimizer(model.trainable(), cfg.optimizer_config()).state_tensors())
    save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert path in str(err.value) and "holds epoch 0, iteration 4 and optimizer step 0" in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


def test_resume_refuses_config_text_that_does_not_hash_to_its_digest(tmp_path):
    # the digest still matches the run's config; the text beside it was edited
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4))
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    ck = load_checkpoint(path)
    ck.metadata["config"] = ck.metadata["config"].replace("synth_size = 12", "synth_size = 14")
    save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True)
    assert path in str(err.value) and "does not hash" in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


def _write_idx_corpus(root, seed):
    """A one-channel, 4-class IDX corpus of 8x8 images; the seed picks the pixels."""
    rng = np.random.default_rng(seed)
    root.mkdir()
    for prefix, n in (("train", 32), ("t10k", 16)):
        write_idx(root / f"{prefix}-images-idx3-ubyte", rng.integers(0, 256, (n, 8, 8)))
        write_idx(root / f"{prefix}-labels-idx1-ubyte", np.arange(n) % 4)


@pytest.mark.parametrize("swap, expected", [
    ("corpus", "was trained on a split with normalization {'mean': ["),
    ("dataset-name", "was trained on a split with dataset 'cifar-10', but the training split now has 'idx'"),
], ids=["corpus", "dataset-name"])
def test_resume_refuses_another_training_split(tmp_path, monkeypatch, swap, expected):
    # BITCYCLE_DATA is not in the config digest: a resume may find another
    # corpus of the same shape there, which only the checkpoint's metadata tells
    for name, seed in (("a", 0), ("b", 1)):
        _write_idx_corpus(tmp_path / name, seed)
    monkeypatch.setenv("BITCYCLE_DATA", str(tmp_path / "a"))
    idx = {"data.format": "idx", "model.in_channels": 1}
    with pytest.raises(KeyboardInterrupt):
        _run(tmp_path, "cut", log=_InterruptAfter(4), **idx)
    out = tmp_path / "cut"
    path = str(out / "checkpoint.bin")
    if swap == "corpus":
        monkeypatch.setenv("BITCYCLE_DATA", str(tmp_path / "b"))
    else:
        ck = load_checkpoint(path)
        ck.metadata["dataset"] = "cifar-10"
        save_checkpoint(path, ck)
    before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
    with pytest.raises(CheckpointError) as err:
        _run(tmp_path, "cut", resume=True, **idx)
    assert path in str(err.value) and expected in str(err.value)
    assert {f: (out / f).read_bytes() for f in before} == before


def test_on_phase_start_under_resume_sees_only_phases_that_start(tmp_path):
    # rows_allowed 4 resumes from the end of phase 2, so phases 3 and 4 start
    # in the resumed run; rows_allowed 6 resumes inside phase 4, which started
    # before the cut
    starts = {}
    for rows_allowed in (4, 6):
        name = f"cut{rows_allowed}"
        with pytest.raises(KeyboardInterrupt):
            _run(tmp_path, name, log=_InterruptAfter(rows_allowed))
        seen = starts[rows_allowed] = {}

        def capture(phase, model):
            seen[phase.index] = {k: v.data.copy() for k, v in model.params.items()}

        values = tiny_values()
        values["run.out_dir"] = str(tmp_path / name)
        run_schedule(RunConfig(values), resume=True, on_phase_start=capture)
    assert {r: list(seen) for r, seen in starts.items()} == {4: [3, 4], 6: []}
    handed = load_checkpoint(str(tmp_path / "cut4" / "checkpoint_phase002.bin")).tensors
    assert starts[4][3].keys() == handed.keys()
    for k, arr in starts[4][3].items():
        assert np.array_equal(arr, handed[k]), k


def test_non_finite_loss_stops_before_the_update(tmp_path, monkeypatch):
    # a NaN pixel in the second batch of global epoch 2 (phase 2, its first
    # epoch; two batches per epoch) makes that step's loss NaN
    out = tmp_path / "run"
    clean = data.batches
    saved = {}

    def poisoned(ds, batch_size, seed, epoch, **kw):
        for i, (xb, yb) in enumerate(clean(ds, batch_size, seed, epoch, **kw)):
            if epoch == 2 and i == 0:
                saved.update({f: (out / f).read_bytes() for f in ("checkpoint.bin", "metrics.csv")})
            if epoch == 2 and i == 1:
                x = xb.data.copy()
                x[0, 0, 0, 0] = np.nan
                xb = Tensor(x)
            yield xb, yb

    monkeypatch.setattr(data, "batches", poisoned)
    with pytest.raises(NonFiniteLossError) as err:
        _run(tmp_path, "run")
    assert "phase 2 " in str(err.value) and "epoch 1/1" in str(err.value) and "iteration 6" in str(err.value)
    assert sorted(saved) == ["checkpoint.bin", "metrics.csv"]
    for f, before in saved.items():
        assert (out / f).read_bytes() == before
    ck = load_checkpoint(str(out / "checkpoint.bin"))
    assert (ck.phase_index, ck.epochs_done) == (1, 1)
    assert all(np.isfinite(t).all() for t in ck.tensors.values())


def test_non_finite_gradient_stops_before_the_update(tmp_path, monkeypatch):
    # iteration 6 (phase 2, its first epoch, second batch) has a finite loss,
    # but its backward leaves NaN in the classifier's gradient and +inf in a
    # block conv's, which comes first in model.trainable() order
    out = tmp_path / "run"
    values = tiny_values()
    values["run.out_dir"] = str(out)
    models = []
    clean = Tensor.backward
    saved = {}

    def poisoned(self, *args, **kw):
        clean(self, *args, **kw)
        saved["steps"] = saved.get("steps", 0) + 1
        if saved["steps"] == 6:
            saved.update({f: (out / f).read_bytes() for f in ("checkpoint.bin", "metrics.csv")})
            params = models[-1].params
            params["fc.weight"].grad[0, 0] = np.nan
            params["stage1.block0.conv1.weight"].grad[0, 0, 0, 0] = np.inf

    monkeypatch.setattr(Tensor, "backward", poisoned)
    with pytest.raises(NonFiniteLossError) as err:
        run_schedule(RunConfig(values), on_phase_start=lambda phase, model: models.append(model))
    msg = str(err.value)
    assert "gradient for stage1.block0.conv1.weight in phase 2 " in msg
    assert "epoch 1/1" in msg and "iteration 6" in msg
    for f in ("checkpoint.bin", "metrics.csv"):
        assert (out / f).read_bytes() == saved[f]
    ck = load_checkpoint(str(out / "checkpoint.bin"))
    assert (ck.phase_index, ck.epochs_done) == (1, 1)
    assert all(np.isfinite(t).all() for t in ck.tensors.values())
    assert all(np.isfinite(p.data).all() for p in models[-1].params.values())


def test_non_finite_weight_stops_before_the_metrics_row(tmp_path, monkeypatch):
    # iteration 6's update leaves +inf in a block conv's weight and NaN in
    # the classifier's; the conv comes first in model.trainable() order
    out = tmp_path / "run"
    clean = optim.Adam.step
    saved = {}

    def poisoned(self, lr):
        clean(self, lr)
        saved["steps"] = saved.get("steps", 0) + 1
        if saved["steps"] == 6:
            saved.update({f: (out / f).read_bytes() for f in ("checkpoint.bin", "metrics.csv")})
            params = dict(self.params)
            params["fc.weight"].data[0, 0] = np.nan
            params["stage1.block0.conv1.weight"].data[0, 0, 0, 0] = np.inf

    monkeypatch.setattr(optim.Adam, "step", poisoned)
    with pytest.raises(NonFiniteLossError) as err:
        _run(tmp_path, "run")
    msg = str(err.value)
    assert "weight stage1.block0.conv1.weight after the update in phase 2 " in msg
    assert "epoch 1/1" in msg and "iteration 6" in msg
    for f in ("checkpoint.bin", "metrics.csv"):
        assert (out / f).read_bytes() == saved[f]
    ck = load_checkpoint(str(out / "checkpoint.bin"))
    assert (ck.phase_index, ck.epochs_done) == (1, 1)
    assert all(np.isfinite(t).all() for t in ck.tensors.values())


def test_resume_on_finished_run_is_a_no_op(tmp_path):
    cfg, rows = _run(tmp_path, "run")
    again = run_schedule(cfg, resume=True)
    assert [(r.phase, r.epoch) for r in again] == [(r.phase, r.epoch) for r in rows]


def test_rerun_into_a_run_directory_is_refused(tmp_path):
    cfg, _ = _run(tmp_path, "run")
    out = tmp_path / "run"
    files = ("checkpoint.bin", "config.txt", "metrics.csv", "timing.csv")
    before = {f: ((out / f).read_bytes(), (out / f).stat().st_mtime_ns) for f in files}
    with pytest.raises(CheckpointError, match="--resume") as err:
        run_schedule(cfg)
    assert str(out) in str(err.value)
    assert {f: ((out / f).read_bytes(), (out / f).stat().st_mtime_ns) for f in files} == before


@contextlib.contextmanager
def _held_by_another_run(tmp_path, name, resume):
    """Fork a run into tmp_path/name that stops inside its first
    on_phase_start, where a pipe tells the parent it is; yields its pid while
    it holds the directory, then kills it."""
    ready_r, ready_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            def hold(phase, model):
                os.write(ready_w, b"x")
                signal.pause()

            values = tiny_values()
            values["run.out_dir"] = str(tmp_path / name)
            run_schedule(RunConfig(values), resume=resume, on_phase_start=hold)
        finally:
            os._exit(1)
    os.close(ready_w)
    try:
        assert select.select([ready_r], [], [], 60)[0] and os.read(ready_r, 1) == b"x"
        yield pid
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(ready_r)


@pytest.mark.parametrize("resume", [True, False], ids=["resume", "fresh"])
def test_a_second_writer_is_refused_while_a_run_holds_the_directory(tmp_path, resume):
    # two resumes of one cut run, or two fresh starts into one empty
    # directory: the second is refused, naming the directory and the
    # holder's pid, before either csv file changes
    out = tmp_path / "run"
    if resume:
        with pytest.raises(KeyboardInterrupt):
            _run(tmp_path, "run", log=_InterruptAfter(4))
    with _held_by_another_run(tmp_path, "run", resume) as pid:
        before = {f: (out / f).read_bytes() for f in ("metrics.csv", "timing.csv")}
        with pytest.raises(CheckpointError) as err:
            _run(tmp_path, "run", resume=resume)
        assert {f: (out / f).read_bytes() for f in before} == before
    assert str(out) in str(err.value) and f"pid {pid}" in str(err.value)
    assert (out / "run.lock").read_text() == f"{pid}\n"


def test_failed_phase_snapshot_leaves_no_partial_file(tmp_path, monkeypatch):
    def failing_copy(src, dst):
        with open(src, "rb") as f, open(dst, "wb") as g:
            g.write(f.read(100))
        raise OSError("disk full")

    monkeypatch.setattr(shutil, "copyfile", failing_copy)
    with pytest.raises(OSError, match="disk full"):
        _run(tmp_path, "run")
    # the snapshot is saved whole; the copy onto checkpoint.bin is what fails
    assert sorted(os.listdir(tmp_path / "run")) == \
        ["checkpoint_phase000.bin", "config.txt", "metrics.csv", "run.lock", "timing.csv"]


def test_resume_without_checkpoint_fails(tmp_path):
    values = tiny_values()
    values["run.out_dir"] = str(tmp_path / "empty")
    with pytest.raises(CheckpointError, match="does not exist"):
        run_schedule(RunConfig(values), resume=True)


def test_resume_rejects_other_config(tmp_path):
    _run(tmp_path, "run")
    values = tiny_values(**{"optimizer.lr_base": 0.5})
    values["run.out_dir"] = str(tmp_path / "run")
    with pytest.raises(CheckpointError, match="different config"):
        run_schedule(RunConfig(values), resume=True)


def test_single_mode_runs(tmp_path):
    values = tiny_values(**{"schedule.mode": "single", "schedule.bit_depth": 2,
                            "schedule.epochs": 2})
    values["run.out_dir"] = str(tmp_path / "single")
    rows = run_schedule(RunConfig(values))
    assert [(r.part, r.bit_depth, r.epoch) for r in rows] == \
        [("single", 2, 1), ("single", 2, 2)]


def test_periodic_checkpoints_in_a_single_phase_follow_checkpoint_every(tmp_path, monkeypatch):
    # every 2 epochs inside the phase, and once at its end
    real = schedule.save_checkpoint
    saved = []

    def recording(path, ck):
        saved.append(ck.epochs_done)
        real(path, ck)

    monkeypatch.setattr(schedule, "save_checkpoint", recording)
    _run(tmp_path, "single", **{"schedule.mode": "single", "schedule.bit_depth": 2,
                                "schedule.epochs": 5, "run.checkpoint_every": 2})
    assert saved == [2, 4, 5]


def test_single_mode_warm_start_changes_trajectory(tmp_path):
    warm_values = tiny_values(**{"schedule.mode": "single", "schedule.bit_depth": 2,
                                 "schedule.epochs": 2})
    warm_values["run.out_dir"] = str(tmp_path / "teacher")
    run_schedule(RunConfig(warm_values))
    ckpt = str(tmp_path / "teacher" / "checkpoint.bin")

    cold = tiny_values(**{"schedule.mode": "single", "schedule.bit_depth": 1,
                          "schedule.epochs": 2})
    cold["run.out_dir"] = str(tmp_path / "cold")
    cold_rows = run_schedule(RunConfig(cold))

    hot = dict(cold)
    hot["schedule.initial_weights"] = ckpt
    hot["run.out_dir"] = str(tmp_path / "hot")
    hot_rows = run_schedule(RunConfig(hot))
    assert [r.train_loss for r in hot_rows] != [r.train_loss for r in cold_rows]


def test_warm_start_from_other_architecture_refused(tmp_path):
    _run(tmp_path, "teacher", **{"schedule.mode": "single", "schedule.epochs": 1})
    ckpt = str(tmp_path / "teacher" / "checkpoint.bin")
    out = tmp_path / "student"
    out.mkdir()
    (out / "metrics.csv").write_bytes(b"earlier run\n")
    values = tiny_values(**{"model.blocks_per_stage": (2, 1),
                            "schedule.initial_weights": ckpt})
    values["run.out_dir"] = str(out)
    with pytest.raises(CheckpointError) as err:
        run_schedule(RunConfig(values))
    msg = str(err.value)
    assert f"schedule.initial_weights {ckpt}" in msg
    assert "stage0.block1.conv1.weight" in msg and "stage0.block1.bn2.running_var" in msg
    assert (out / "metrics.csv").read_bytes() == b"earlier run\n"
    assert not (out / "config.txt").exists()


def test_warm_start_from_a_checkpoint_whose_config_text_was_edited_is_refused(tmp_path):
    _run(tmp_path, "teacher", **{"schedule.mode": "single", "schedule.epochs": 1})
    ckpt = str(tmp_path / "teacher" / "checkpoint.bin")
    ck = load_checkpoint(ckpt)
    ck.metadata["config"] = ck.metadata["config"].replace("synth_size = 12", "synth_size = 14")
    save_checkpoint(ckpt, ck)
    out = tmp_path / "student"
    out.mkdir()
    (out / "metrics.csv").write_bytes(b"earlier run\n")
    values = tiny_values(**{"schedule.initial_weights": ckpt})
    values["run.out_dir"] = str(out)
    with pytest.raises(CheckpointError) as err:
        run_schedule(RunConfig(values))
    assert str(err.value).startswith(f"schedule.initial_weights {ckpt}: ")
    assert "does not hash" in str(err.value)
    assert sorted(os.listdir(out)) == ["metrics.csv", "run.lock"]
    assert (out / "metrics.csv").read_bytes() == b"earlier run\n"


def test_misshaped_checkpoint_tensor_is_named(tmp_path):
    _run(tmp_path, "run", **{"schedule.mode": "single", "schedule.epochs": 1})
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    good = ck.tensors["fc.weight"].shape
    bad = (good[0] + 1, good[1])
    ck.tensors["fc.weight"] = np.zeros(bad, np.float32)
    with pytest.raises(ValueError) as err:
        model_from_checkpoint(ck)
    assert f"('fc.weight', {bad}, {good})" in str(err.value)


@pytest.mark.parametrize("corrupt, expected", [
    (lambda meta: meta.update(config=meta["config"].replace("synth_size = 12", "synth_size = 14")),
     "the config text does not hash to the config digest"),
    (lambda meta: meta.update(config=meta["config"].replace("run.seed", "run.sead")),
     "config:27: unknown key 'run.sead'"),
    (lambda meta: meta.update(config=meta["config"].replace("augment = true", "augment = maybe")),
     "config: bad value for 'data.augment'"),
    (lambda meta: meta.update(config=meta["config"].replace("kind = adam", "kind = adamw")),
     "invalid config: optimizer kind"),
    (lambda meta: meta.pop("config"), "the metadata has no 'config' entry"),
], ids=["digest", "unknown-key", "bad-value", "invalid", "no-config"])
def test_model_from_checkpoint_names_the_file(tmp_path, corrupt, expected):
    _run(tmp_path, "run", **{"schedule.mode": "single", "schedule.bit_depth": 2,
                             "schedule.epochs": 1})
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    corrupt(ck.metadata)
    with pytest.raises(CheckpointError) as err:
        model_from_checkpoint(ck, "runs/x/checkpoint.bin")
    assert str(err.value).startswith("runs/x/checkpoint.bin") and expected in str(err.value)


@pytest.mark.parametrize("field, value, expected", [
    ("phase_index", 1, "ck.bin: phase index 1 is not one of the plan's 1 phases"),
    ("epochs_done", 2, "ck.bin: 2 epochs done is outside phase 0's 0..1"),
    ("epochs_done", -1, "ck.bin: -1 epochs done is outside phase 0's 0..1"),
])
def test_model_from_checkpoint_refuses_a_cursor_past_the_plan(tmp_path, field, value, expected):
    _run(tmp_path, "run", **{"schedule.mode": "single", "schedule.epochs": 1})
    ck = load_checkpoint(str(tmp_path / "run" / "checkpoint.bin"))
    setattr(ck, field, value)
    with pytest.raises(CheckpointError, match=re.escape(expected)):
        model_from_checkpoint(ck, "ck.bin")


def test_batch_size_larger_than_train_set_rejected(tmp_path):
    values = tiny_values(**{"data.batch_size": 4096})
    values["run.out_dir"] = str(tmp_path / "run")
    with pytest.raises(ConfigError, match="exceeds the training set size"):
        run_schedule(RunConfig(values))
