import os
import re
import subprocess
import sys
from argparse import Namespace

import pytest

import bitcycle
from bitcycle.cli import _scan_threads, main
from bitcycle.metrics import read_metrics

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
    a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
    assert a == b


def test_seed_flag_changes_run(tiny_cfg, tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["train", "--config", tiny_cfg, "--out", out_a, "--quiet"]) == 0
    assert main(["train", "--config", tiny_cfg, "--out", out_b, "--quiet",
                 "--seed", "11"]) == 0
    a = open(os.path.join(out_a, "metrics.csv"), "rb").read()
    b = open(os.path.join(out_b, "metrics.csv"), "rb").read()
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


def test_eval_missing_checkpoint(tmp_path, capsys):
    missing = str(tmp_path / "nope.bin")
    rc = main(["eval", "--checkpoint", missing, "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "eval.csv")


def test_thread_scan_precedence(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("run.threads = 3\n")
    base = dict(config=str(cfg), override=[], threads=None)
    assert _scan_threads(Namespace(**base)) == 3
    assert _scan_threads(Namespace(**{**base, "override": ["run.threads=5"]})) == 5
    assert _scan_threads(Namespace(**{**base, "threads": 7,
                                      "override": ["run.threads=5"]})) == 7
    cfg.write_text("")
    assert _scan_threads(Namespace(**base)) == 1


def test_thread_scan_loads_no_numpy(tmp_path):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("run.threads = 3\n")
    script = (
        "import sys\n"
        "from argparse import Namespace\n"
        "from bitcycle.cli import _scan_threads\n"
        f"n = _scan_threads(Namespace(config={str(cfg)!r}, override=[], threads=None))\n"
        "print(n, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(bitcycle.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["3", "False"]


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
    assert open(path).read() == "a,b,c\n1,2,3\n"
