import os
import re
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from bitcycle.checkpoint import (
    Checkpoint,
    CheckpointError,
    load_checkpoint,
    replace_atomically,
    save_checkpoint,
)


def _sample(seed=0):
    rng = np.random.default_rng(seed)
    return Checkpoint(
        config_digest="ab" * 32,
        phase_index=3,
        epochs_done=7,
        tensors={
            "conv1.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
            "bn1.gamma": np.ones(8, dtype=np.float32),
            "fc.bias": rng.normal(size=10).astype(np.float64),
        },
        optimizer_state={
            "m.conv1.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
            "v.conv1.weight": np.abs(rng.normal(size=(8, 3, 3, 3))).astype(np.float32),
        },
        step_count=421,
        metadata={"part": "final", "bit_depth": 1, "iteration": 421},
    )


def test_round_trip_exact(tmp_path):
    path = str(tmp_path / "ck.bin")
    ck = _sample()
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.config_digest == ck.config_digest
    assert back.phase_index == 3 and back.epochs_done == 7
    assert back.step_count == 421
    assert back.metadata == ck.metadata
    assert set(back.tensors) == set(ck.tensors)
    for name in ck.tensors:
        assert back.tensors[name].dtype == ck.tensors[name].dtype
        np.testing.assert_array_equal(back.tensors[name], ck.tensors[name])
    for name in ck.optimizer_state:
        np.testing.assert_array_equal(back.optimizer_state[name], ck.optimizer_state[name])


def test_save_load_save_is_byte_identical(tmp_path):
    a = str(tmp_path / "a.bin")
    b = str(tmp_path / "b.bin")
    save_checkpoint(a, _sample(seed=5))
    save_checkpoint(b, load_checkpoint(a))
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_tensor_order_does_not_matter(tmp_path):
    ck = _sample()
    reordered = Checkpoint(
        config_digest=ck.config_digest,
        phase_index=ck.phase_index,
        epochs_done=ck.epochs_done,
        tensors=dict(reversed(list(ck.tensors.items()))),
        optimizer_state=dict(reversed(list(ck.optimizer_state.items()))),
        step_count=ck.step_count,
        metadata={"iteration": 421, "bit_depth": 1, "part": "final"},
    )
    a = str(tmp_path / "a.bin")
    b = str(tmp_path / "b.bin")
    save_checkpoint(a, ck)
    save_checkpoint(b, reordered)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_no_temp_file_left_behind(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    assert sorted(os.listdir(tmp_path)) == ["ck.bin"]


def test_overwrite_replaces_atomically(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample(seed=1))
    first = Path(path).read_bytes()
    save_checkpoint(path, _sample(seed=2))
    second = Path(path).read_bytes()
    assert first != second
    assert sorted(os.listdir(tmp_path)) == ["ck.bin"]


def test_temp_file_is_fsynced_whole_before_the_rename(tmp_path, monkeypatch):
    # both writers: save_checkpoint and the phase snapshot's copy of it
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("dirsync" if stat.S_ISDIR(st.st_mode) else "fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        st = os.stat(src)
        calls.append(("replace", st.st_ino, st.st_size))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    latest, snapshot = str(tmp_path / "ck.bin"), str(tmp_path / "ck_phase000.bin")
    save_checkpoint(latest, _sample())
    with replace_atomically(snapshot) as tmp:
        shutil.copyfile(latest, tmp)
    size = os.path.getsize(latest)
    assert [c[0] for c in calls] == ["fsync", "replace", "dirsync"] * 2
    assert calls[0][1:] == calls[1][1:] and calls[3][1:] == calls[4][1:]
    assert calls[0][2] == calls[3][2] == size
    assert calls[0][1] == os.stat(latest).st_ino and calls[3][1] == os.stat(snapshot).st_ino


def test_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    # the rename is an entry in the directory: only a directory fsync makes it durable
    path = tmp_path / "ck.bin"
    path.write_bytes(b"old")
    seen = []
    real_fsync = os.fsync

    def fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            seen.append((os.fstat(fd).st_ino, path.read_bytes()))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with replace_atomically(str(path)) as tmp:
        with open(tmp, "wb") as f:
            f.write(b"new")
    assert seen == [(os.stat(tmp_path).st_ino, b"new")]


def test_bad_magic_rejected(tmp_path):
    path = str(tmp_path / "ck.bin")
    with open(path, "wb") as f:
        f.write(b"WHAT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    blob = bytearray(Path(path).read_bytes())
    blob[4:8] = (99).to_bytes(4, "little")
    with open(path, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_reports_offset(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    blob = Path(path).read_bytes()
    with open(path, "wb") as f:
        f.write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated at byte"):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    with open(path, "ab") as f:
        f.write(b"junk")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


def test_scalar_and_empty_tensors(tmp_path):
    path = str(tmp_path / "ck.bin")
    ck = Checkpoint(
        config_digest="d",
        phase_index=0,
        epochs_done=0,
        tensors={
            "scalar": np.array(3.5, dtype=np.float32),
            "empty": np.zeros((0, 4), dtype=np.float32),
        },
    )
    save_checkpoint(path, ck)
    back = load_checkpoint(path)
    assert back.tensors["scalar"].shape == ()
    assert back.tensors["scalar"].item() == 3.5
    assert back.tensors["empty"].shape == (0, 4)


def test_unsupported_dtype_rejected(tmp_path):
    ck = Checkpoint(
        config_digest="d", phase_index=0, epochs_done=0,
        tensors={"bad": np.zeros(3, dtype=np.int16)},
    )
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(str(tmp_path / "ck.bin"), ck)


def test_metadata_survives_nested(tmp_path):
    path = str(tmp_path / "ck.bin")
    meta = {"normalization": {"mean": [0.5, 0.4, 0.3], "std": [0.2, 0.2, 0.2]},
            "dataset": "synthetic", "iteration": 12}
    ck = _sample()
    ck.metadata = meta
    save_checkpoint(path, ck)
    assert load_checkpoint(path).metadata == meta


def _corrupt(path, at, value):
    blob = bytearray(Path(path).read_bytes())
    blob[at] = value
    with open(path, "wb") as f:
        f.write(bytes(blob))


def test_a_string_that_is_not_utf8_names_the_file(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    _corrupt(path, 10, 0xFF)  # the digest's first byte
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: the string ending at byte 74 is not UTF-8")):
        load_checkpoint(path)


@pytest.mark.parametrize("byte", [0xFF, ord("}")], ids=["not-utf8", "not-json"])
def test_metadata_that_does_not_decode_names_the_file(tmp_path, byte):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    _corrupt(path, os.path.getsize(path) - 6, byte)  # the metadata's last value
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: the metadata is not UTF-8 JSON")):
        load_checkpoint(path)


def _splice(path, old, new):
    blob = Path(path).read_bytes()
    assert blob.count(old) == 1
    with open(path, "wb") as f:
        f.write(blob.replace(old, new))


def test_a_shape_numpy_cannot_hold_names_the_file(tmp_path):
    # tensor "t" of shape (0,) is made to claim 65 zero-length dimensions
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, Checkpoint(config_digest="d", phase_index=0, epochs_done=0,
                                     tensors={"t": np.zeros(0, np.float32)}))
    _splice(path, b"\x01\x00t\x00\x01" + bytes(4), b"\x01\x00t\x00\x41" + bytes(4 * 65))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: 't' has a 65-d shape")):
        load_checkpoint(path)


def test_a_step_count_of_two_values_names_the_file(tmp_path):
    path = str(tmp_path / "ck.bin")
    save_checkpoint(path, _sample())
    step = (421).to_bytes(8, "little")
    _splice(path, b"step_count\x02\x00" + step,
            b"step_count\x02\x01" + (2).to_bytes(4, "little") + step * 2)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: step_count holds 2 values")):
        load_checkpoint(path)
