"""The smoke run against its committed golden output.

The golden ``metrics.csv`` and ``checkpoint.bin`` digest hold for the
OpenBLAS kernel family they were made under: another family rounds some
sums differently. So the bytes are compared only where numpy's BLAS runs
the same family; elsewhere every integer, string and accuracy column must
be equal and every other float column within GOLDEN_REL of the golden value.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import bitcycle
from bitcycle.config import RunConfig
from bitcycle.metrics import MetricsRow, read_metrics
from bitcycle.schedule import run_schedule

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
# the kernel families measured so far differ by at most 7.8e-8 relative
GOLDEN_REL = 1e-6
EXACT_FLOATS = ("eval_top1", "eval_top5")


def _golden() -> dict:
    with open(os.path.join(GOLDEN_DIR, "smoke.json")) as f:
        return json.load(f)


def blas_core() -> str:
    """The kernel family numpy's bundled OpenBLAS runs, or "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_against_golden(out_dir: str, exact: bool) -> None:
    golden = _golden()
    want_path = os.path.join(GOLDEN_DIR, golden["metrics"])
    got_path = os.path.join(out_dir, "metrics.csv")
    if exact:
        with open(got_path, "rb") as got, open(want_path, "rb") as want:
            assert got.read() == want.read()
        assert _sha256(os.path.join(out_dir, "checkpoint.bin")) == golden["checkpoint_sha256"]
        return
    got, want = read_metrics(got_path), read_metrics(want_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for f in fields(MetricsRow):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if f.type == "float" and f.name not in EXACT_FLOATS:
                assert a == pytest.approx(b, rel=GOLDEN_REL, abs=0), (w.phase, w.epoch, f.name)
            else:
                assert a == b, (w.phase, w.epoch, f.name)


def test_smoke_run_matches_golden(tmp_path):
    golden = _golden()
    run_schedule(RunConfig.from_file(os.path.join(ROOT, golden["config"]),
                                     [f"run.out_dir={tmp_path}"]))
    _check_against_golden(str(tmp_path), exact=blas_core() == golden["blas_core"])


def test_smoke_run_under_another_kernel_is_within_tolerance(tmp_path):
    # Haswell kernels round some sums unlike SkylakeX, the golden's family
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell",
           "PYTHONPATH": os.path.dirname(os.path.dirname(bitcycle.__file__))}
    subprocess.run([sys.executable, "-m", "bitcycle", "train", "--quiet",
                    "--config", os.path.join(ROOT, _golden()["config"]), "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    _check_against_golden(str(tmp_path), exact=False)
