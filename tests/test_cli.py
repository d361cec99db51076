import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bitcycle
from bitcycle.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from bitcycle.cli import _THREAD_VARS, main
from bitcycle.config import RunConfig, file_values
from bitcycle.metrics import read_metrics
from bitcycle.schedule import run_schedule

from test_data import write_cifar10_file
from test_schedule import _InterruptAfter

TINY = """
model.stage_channels = 4, 8
model.blocks_per_stage = 1, 1
model.num_classes = 4
data.synth_classes = 4
data.synth_per_class = 8
data.synth_size = 12
data.batch_size = 16
schedule.target_k = 1
schedule.start_bits = 2
schedule.cycles = 0
schedule.soft_epochs = 1
schedule.cyclic_epochs = 1
schedule.final_epochs = 1
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_expand_default_plan(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert main(["expand", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    body = [l for l in out.splitlines()
            if re.match(r"\s*\d+\s+(soft_transfer|cyclic|cyclic_tail|final)\b", l)]
    assert len(body) == 26
    assert out.splitlines()[-1].startswith("26 phases")


def test_expand_no_cycles(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("schedule.cycles = 0\n")
    assert main(["expand", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    body = [l for l in out.splitlines()
            if re.match(r"\s*\d+\s+(soft_transfer|cyclic|cyclic_tail|final)\b", l)]
    assert len(body) == 8


def test_expand_short_descent(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("schedule.start_bits = 3\n")
    assert main(["expand", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    soft = [l for l in out.splitlines() if "soft_transfer" in l]
    assert len(soft) == 1
    assert re.search(r"soft_transfer\s+3\b", soft[0])


def test_expand_rejects_bad_inputs(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    rc = main(["expand", "--config", str(cfg), "--override", "schedule.target_k=0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_smoke(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--config", tiny_cfg, "--out", out, "--quiet"])
    assert rc == 0
    assert "done: 2 epochs" in capsys.readouterr().out
    files = sorted(os.listdir(out))
    assert "checkpoint.bin" in files
    assert "metrics.csv" in files
    snapshots = [f for f in files if f.startswith("checkpoint_phase")]
    assert len(snapshots) == 2
    assert len(read_metrics(os.path.join(out, "metrics.csv"))) == 2


def test_train_validates_before_touching_disk(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    rc = main(["train", "--config", tiny_cfg, "--out", out, "--quiet",
               "--override", "schedule.target_k=0"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_train_rerun_reproduces_metrics(tiny_cfg, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["train", "--config", tiny_cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["train", "--config", tiny_cfg, "--out", out_b, "--quiet"]) == 0
    a = Path(out_a, "metrics.csv").read_bytes()
    b = Path(out_b, "metrics.csv").read_bytes()
    assert a == b


def test_seed_flag_changes_run(tiny_cfg, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["train", "--config", tiny_cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["train", "--config", tiny_cfg, "--out", out_b, "--quiet",
                 "--seed", "11"]) == 0
    a = Path(out_a, "metrics.csv").read_bytes()
    b = Path(out_b, "metrics.csv").read_bytes()
    assert a != b


def test_eval_matches_last_row(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    ckpt = os.path.join(out, "checkpoint.bin")
    assert main(["eval", "--checkpoint", ckpt]) == 0
    printed = capsys.readouterr().out
    m = re.search(r"top1=([^ ]+) top5=([^ ]+) ", printed)
    assert m, printed
    last = read_metrics(os.path.join(out, "metrics.csv"))[-1]
    assert float(m.group(1)) == last.eval_top1
    assert float(m.group(2)) == last.eval_top5

    rows = read_metrics(os.path.join(out, "eval.csv"))
    assert len(rows) == 1
    assert rows[0].part == "eval"
    assert rows[0].eval_top1 == last.eval_top1


def test_eval_creates_its_out_directory(tiny_cfg, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", run, "--quiet"]) == 0
    out = tmp_path / "new" / "dir"
    assert main(["eval", "--checkpoint", os.path.join(run, "checkpoint.bin"),
                 "--out", str(out)]) == 0
    assert len(read_metrics(str(out / "eval.csv"))) == 1


CIFAR_TRAIN = [f"data_batch_{i}.bin" for i in range(1, 6)]


def write_cifar_files(root, names, per_file=10, seed=0):
    """CIFAR-10 files of per_file random records each, labels cycling through 0..9."""
    rng = np.random.default_rng(seed)
    root.mkdir(exist_ok=True)
    for name in names:
        write_cifar10_file(root / name, [(i % 10, rng.integers(0, 256, 3072, dtype=np.uint8))
                                         for i in range(per_file)])


def cifar_cfg(tmp_path, root):
    path = tmp_path / "cifar.cfg"
    path.write_text("model.stage_channels = 4, 8\nmodel.blocks_per_stage = 1, 1\n"
                    f"data.format = cifar\ndata.root = {root}\ndata.batch_size = 10\n"
                    "schedule.mode = single\nschedule.bit_depth = 2\nschedule.epochs = 1\n")
    return str(path)


def test_eval_reads_only_the_eval_split(tmp_path, capsys):
    full = tmp_path / "full"
    write_cifar_files(full, CIFAR_TRAIN + ["test_batch.bin"])
    run = str(tmp_path / "run")
    assert main(["train", "--config", cifar_cfg(tmp_path, full), "--out", run, "--quiet"]) == 0
    only_test = tmp_path / "only_test"
    only_test.mkdir()
    shutil.copyfile(full / "test_batch.bin", only_test / "test_batch.bin")
    scores = []
    for root in (full, only_test):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", os.path.join(run, "checkpoint.bin"),
                     "--data", str(root)]) == 0
        scores.append(re.search(r"top1=\S+ top5=\S+", capsys.readouterr().out).group())
    assert scores[0] == scores[1]


def test_expand_counts_iterations_from_the_training_files_alone(tmp_path, capsys):
    root = tmp_path / "only_train"
    write_cifar_files(root, CIFAR_TRAIN)
    assert main(["expand", "--config", cifar_cfg(tmp_path, root)]) == 0
    # 5 files of 10 records at batch size 10
    assert capsys.readouterr().out.splitlines()[-1] == "1 phases, 1 epochs, 5 iterations"


def test_eval_batch_size_invariant(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet"]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    assert main(["eval", "--checkpoint", ckpt]) == 0
    assert main(["eval", "--checkpoint", ckpt, "--batch-size", "5"]) == 0
    rows = read_metrics(os.path.join(out, "eval.csv"))
    assert len(rows) == 2
    assert rows[0].eval_top1 == rows[1].eval_top1
    assert rows[0].eval_top5 == rows[1].eval_top5


def test_eval_defaults_to_the_runs_own_eval_batch_size(tiny_cfg, tmp_path, capsys):
    # batch size moves the eval loss in its last bits, so only the run's own
    # eval batch size reproduces what the run scored
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet",
                 "--override", "data.eval_batch_size=3"]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    scores = []
    for extra in ([], ["--batch-size", "3"]):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpt, *extra]) == 0
        scores.append(re.search(r"top1=(\S+) top5=(\S+) loss=(\S+)", capsys.readouterr().out).groups())
    assert scores[0] == scores[1]
    last = read_metrics(os.path.join(out, "metrics.csv"))[-1]
    assert scores[0][:2] == (repr(last.eval_top1), repr(last.eval_top5))


@pytest.mark.parametrize("batch_size", ["0", "-4"])
def test_eval_refuses_a_batch_size_below_one(tiny_cfg, tmp_path, capsys, batch_size):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet"]) == 0
    ckpt = os.path.join(out, "checkpoint.bin")
    assert main(["eval", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "eval.csv"), "rb") as f:
        before = f.read()
    assert main(["eval", "--checkpoint", ckpt, "--batch-size", batch_size]) == 1
    assert f"got {batch_size}" in capsys.readouterr().err
    with open(os.path.join(out, "eval.csv"), "rb") as f:
        assert f.read() == before


def test_eval_refusing_its_batch_size_makes_no_out_directory(tiny_cfg, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", run, "--quiet"]) == 0
    out = tmp_path / "new"
    assert main(["eval", "--checkpoint", os.path.join(run, "checkpoint.bin"),
                 "--out", str(out), "--batch-size", "0"]) == 1
    assert not out.exists()


def test_expand_reports_a_malformed_corpus(tmp_path, capsys):
    root = tmp_path / "corpus"
    root.mkdir()
    for name in ("train.bin", "test.bin"):
        (root / name).write_bytes(bytes(4000))  # not a whole number of records
    cfg = tmp_path / "cifar.cfg"
    cfg.write_text(f"data.format = cifar\ndata.root = {root}\n")
    assert main(["expand", "--config", str(cfg)]) == 1
    assert "train.bin" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "expand"])
def test_a_truncated_idx_header_is_an_error_not_a_traceback(tmp_path, capsys, command):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "train-images-idx3-ubyte").write_bytes(bytes.fromhex("0000080300000002"))
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(f"data.format = idx\ndata.root = {root}\n")
    out = ["--out", str(tmp_path / "run")] if command == "train" else []
    assert main([command, "--config", str(cfg), *out]) == 1
    assert "train-images-idx3-ubyte: IDX header has 4 dimension bytes" in capsys.readouterr().err


def test_eval_missing_checkpoint(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    rc = main(["eval", "--checkpoint", missing, "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "eval.csv")


def test_thread_count_precedence(tmp_path, monkeypatch, capsys):
    # --threads beats --override, which beats the file, which beats the default of 1
    for var in _THREAD_VARS:
        monkeypatch.setenv(var, "unset")
    cfg = tmp_path / "t.cfg"
    cfg.write_text("run.threads = 3\n")
    assert file_values(str(cfg), [])["run.threads"] == 3
    assert file_values(str(cfg), ["run.threads=5"])["run.threads"] == 5
    assert main(["expand", "--config", str(cfg), "--threads", "7",
                 "--override", "run.threads=5"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "7"
    cfg.write_text("")
    assert main(["expand", "--config", str(cfg)]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_file_values_loads_no_numpy(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("run.threads = 3\n")
    script = (
        "import sys\n"
        "import bitcycle.cli\n"
        "from bitcycle.config import file_values\n"
        f"v = file_values({str(cfg)!r}, ['run.seed=4'])\n"
        "print(v['run.threads'], v['run.seed'], 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(bitcycle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["3", "4", "False"]


def test_package_import_loads_no_numpy():
    script = "import sys\nimport bitcycle\nprint('numpy' in sys.modules)\n"
    src = os.path.dirname(os.path.dirname(bitcycle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


def test_python_dash_m_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(bitcycle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    helped = subprocess.run([sys.executable, "-m", "bitcycle", "--help"], env=env,
                            capture_output=True, text=True)
    assert helped.returncode == 0 and "{train,eval,expand}" in helped.stdout
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    refused = subprocess.run([sys.executable, "-m", "bitcycle", "expand", "--config", str(cfg),
                              "--override", "run.threads=x"], env=env, capture_output=True, text=True)
    assert refused.returncode == 1 and refused.stderr.startswith("error:")


def test_bad_thread_override_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    rc = main(["expand", "--config", str(cfg), "--override", "run.threads=x"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'run.threads'" in err


def test_threads_env_pinned(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    assert main(["expand", "--config", str(cfg), "--threads", "2"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_threads_below_one_are_refused_before_pinning(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert main(["expand", "--config", str(cfg), "--threads", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "threads" in err
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_eval_refuses_a_foreign_eval_csv(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    path = os.path.join(out, "eval.csv")
    with open(path, "w") as f:
        f.write("a,b,c\n1,2,3\n")
    assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    assert Path(path).read_text() == "a,b,c\n1,2,3\n"


def test_eval_refuses_an_eval_csv_with_a_torn_last_line(tiny_cfg, tmp_path, capsys):
    out = str(tmp_path / "run")
    assert main(["train", "--config", tiny_cfg, "--out", out, "--quiet"]) == 0
    capsys.readouterr()
    path = os.path.join(out, "eval.csv")
    with open(os.path.join(out, "metrics.csv"), "rb") as f:
        torn = f.read()[:-5]
    with open(path, "wb") as f:
        f.write(torn)
    assert main(["eval", "--checkpoint", os.path.join(out, "checkpoint.bin")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and path in err
    with open(path, "rb") as f:
        assert f.read() == torn


SMOKE_CFG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "configs", "smoke_synth.cfg")


@pytest.fixture(scope="module")
def smoke_checkpoint(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("smoke") / "run")
    assert main(["train", "--config", SMOKE_CFG, "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "checkpoint.bin"), "rb") as f:
        return f.read()


def _nudge_first_mean(meta):
    meta["normalization"]["mean"][0] += 1e-9  # far below a float32 step


@pytest.mark.parametrize("corrupt, expected", [
    (lambda meta: meta.update(config=meta["config"].replace("synth_size = 12", "synth_size = 14")),
     "the config text does not hash to the config digest"),
    (lambda meta: meta.pop("config"), "the metadata has no 'config' entry"),
    (lambda meta: meta.pop("normalization"), "the metadata holds no normalization for 3 channels"),
    (lambda meta: meta["normalization"]["mean"].append(0.5),
     "no normalization for 3 channels (ValueError: mean and std hold 4 and 3 values)"),
    (_nudge_first_mean, "no normalization for 3 channels (ValueError: its values are not the float32 values"),
    *[(lambda meta, v=v: meta.update(iteration=v), f"iteration {v!r} is not a count of steps")
      for v in (None, [1], "x", 3.7, -1, True)],
], ids=["digest", "no-config", "no-normalization", "four-means", "mean-off-float32",
        "iteration-null", "iteration-list", "iteration-str", "iteration-float",
        "iteration-negative", "iteration-bool"])
def test_eval_refuses_checkpoint_metadata_that_does_not_fit(
        tmp_path, capsys, smoke_checkpoint, corrupt, expected):
    path = str(tmp_path / "checkpoint.bin")
    (tmp_path / "checkpoint.bin").write_bytes(smoke_checkpoint)
    ck = load_checkpoint(path)
    corrupt(ck.metadata)
    save_checkpoint(path, ck)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"error: {path}: ") and expected in err
    assert not (tmp_path / "eval.csv").exists()


def test_eval_of_a_checkpoint_with_one_flipped_byte(tmp_path, capsys, smoke_checkpoint):
    # every 7th byte of the header and the first tensors, and every 13th from
    # the metadata block (its length field included) to the CRC32 trailer; every
    # flip must be refused with an error line that names the file
    (tmp_path / "good.bin").write_bytes(smoke_checkpoint)
    meta = json.dumps(load_checkpoint(str(tmp_path / "good.bin")).metadata,
                      sort_keys=True, separators=(",", ":")).encode()
    start = len(smoke_checkpoint) - len(meta) - 4 - 4
    offsets = [*range(0, 400, 7), *range(start, len(smoke_checkpoint), 13)]
    path = str(tmp_path / "flipped.bin")
    out = str(tmp_path / "out")
    unnamed, crashed, refused = [], [], 0
    for at in offsets:
        blob = bytearray(smoke_checkpoint)
        blob[at] ^= 0x01
        with open(path, "wb") as f:
            f.write(blob)
        try:
            rc = main(["eval", "--checkpoint", path, "--out", out])
        except Exception as e:  # a traceback from the command line
            crashed.append((at, repr(e)))
            continue
        err = capsys.readouterr().err
        if rc != 0:
            refused += 1
            if path not in err:
                unnamed.append((at, err))
    assert (crashed, unnamed) == ([], [])
    assert len(offsets) == 144 and refused == len(offsets)


@pytest.fixture(scope="module")
def mid_phase_checkpoint(tmp_path_factory):
    """The smoke run's checkpoint.bin after the first of the final phase's 2 epochs."""
    out = tmp_path_factory.mktemp("cut") / "run"
    with pytest.raises(KeyboardInterrupt):
        run_schedule(RunConfig.from_file(SMOKE_CFG, [f"run.out_dir={out}"]), log=_InterruptAfter(6))
    return (out / "checkpoint.bin").read_bytes()


@pytest.mark.parametrize("checkpoint", ["smoke_checkpoint", "mid_phase_checkpoint"])
def test_every_single_byte_flip_is_refused_naming_the_file(tmp_path, request, checkpoint):
    blob = request.getfixturevalue(checkpoint)
    path = tmp_path / "ck.bin"
    path.write_bytes(blob)
    # a phase-end save has no optimizer table; the mid-phase one's is swept too
    assert bool(load_checkpoint(str(path)).optimizer_state) == (checkpoint == "mid_phase_checkpoint")
    accepted, unnamed = [], []
    with open(path, "r+b") as f:
        for at in range(len(blob)):
            f.seek(at)
            f.write(bytes([blob[at] ^ 0x01]))
            f.flush()
            try:
                load_checkpoint(str(path))
                accepted.append(at)
            except CheckpointError as e:
                if str(path) not in str(e):
                    unnamed.append((at, str(e)))
            f.seek(at)
            f.write(blob[at:at + 1])
    assert (accepted, unnamed) == ([], [])


GOLDEN_V1 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "smoke_checkpoint_v1.bin")


def test_a_version_1_checkpoint_evaluates_and_saves_as_version_2(tmp_path, capsys):
    # the smoke run's final checkpoint as format version 1 wrote it: no CRC32,
    # and a full optimizer table and part, bit_depth and threads entries
    capsys.readouterr()
    assert main(["eval", "--checkpoint", GOLDEN_V1, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "phase 4 (final), bit depth 1, after 12 iterations\n" in out
    assert "top1=0.25 top5=1.0 loss=1.5718623995780945\n" in out
    v1 = load_checkpoint(GOLDEN_V1)
    path = str(tmp_path / "v2.bin")
    save_checkpoint(path, v1)
    assert Path(path).read_bytes()[4:8] == (2).to_bytes(4, "little")
    v2 = load_checkpoint(path)
    assert v2.tensors.keys() == v1.tensors.keys()
    for name, want in v1.tensors.items():
        assert v2.tensors[name].dtype == want.dtype
        np.testing.assert_array_equal(v2.tensors[name], want)
