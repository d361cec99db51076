"""Binary checkpoints for training runs.

Layout (all integers little-endian):

    magic   b"BCQT"
    u32     format version (currently 1)
    u16+s   config digest (hex, utf-8)
    i32     phase index of the phase this checkpoint was taken in
    i32     epochs completed within that phase
    table   model tensors
    table   optimizer state tensors
    u32+s   JSON metadata (canonical: sorted keys, no whitespace)

where a table is:

    u32     entry count
    entry*  u16+s name, u8 dtype code, u8 ndim, u32*ndim dims, raw payload

Entries are written in sorted name order and the JSON is canonical, so
saving a loaded checkpoint reproduces the original file byte for byte.
Writes go to a temp file in the same directory and are moved into place
with os.replace, so a crash never leaves a truncated checkpoint behind.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"BCQT"
VERSION = 1

_DTYPE_CODES = {np.dtype("<f4"): 0, np.dtype("<f8"): 1, np.dtype("<i8"): 2}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    config_digest: str
    phase_index: int
    epochs_done: int
    tensors: dict[str, np.ndarray]
    optimizer_state: dict[str, np.ndarray] = field(default_factory=dict)
    step_count: int = 0
    metadata: dict = field(default_factory=dict)


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"string too long for checkpoint: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


def _pack_table(table: dict[str, np.ndarray]) -> bytes:
    parts = [struct.pack("<I", len(table))]
    for name in sorted(table):
        arr = np.asarray(table[name])  # tobytes() below already emits C order
        dt = arr.dtype.newbyteorder("<")
        if dt not in _DTYPE_CODES:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        parts.append(_pack_str(name))
        parts.append(struct.pack("<BB", _DTYPE_CODES[dt], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype(dt, copy=False).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, buf: bytes, origin: str):
        self.buf = buf
        self.pos = 0
        self.origin = origin

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"{self.origin}: truncated at byte {self.pos} (wanted {n} more)"
            )
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i32(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def string(self) -> str:
        (n,) = struct.unpack("<H", self.take(2))
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{self.origin}: the string ending at byte {self.pos} "
                                  f"is not UTF-8 ({e})") from None

    def table(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for _ in range(self.u32()):
            name = self.string()
            code, ndim = struct.unpack("<BB", self.take(2))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{self.origin}: unknown dtype code {code} for {name!r}")
            shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
            dt = _CODE_DTYPES[code]
            count = math.prod(shape)  # exact: no corrupt shape wraps around to a small count
            raw = self.take(count * dt.itemsize)
            try:
                out[name] = np.frombuffer(raw, dtype=dt).reshape(shape).copy()
            except ValueError as e:  # a shape numpy cannot hold
                raise CheckpointError(f"{self.origin}: {name!r} has a {ndim}-d shape "
                                      f"numpy cannot hold ({e})") from None
        return out


def _fsync(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def replace_atomically(path: str):
    """Yield the temp path path + ".tmp"; on success it replaces path, on failure it is removed.

    The temp name is fixed, so a temp file a killed process left behind is
    overwritten and renamed by the next save of the same path. The temp
    file's bytes reach the disk (fsync) before the rename, so a crash cannot
    leave path naming a file whose contents were never written, and the
    directory is fsynced after it, so the rename itself survives a power
    failure.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    try:
        yield tmp
        _fsync(tmp)
        os.replace(tmp, path)
        _fsync(directory)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    meta = json.dumps(ckpt.metadata, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join([
        MAGIC,
        struct.pack("<I", VERSION),
        _pack_str(ckpt.config_digest),
        struct.pack("<ii", ckpt.phase_index, ckpt.epochs_done),
        _pack_table(ckpt.tensors),
        _pack_table({**ckpt.optimizer_state, "step_count": np.array(ckpt.step_count, dtype="<i8")}),
        struct.pack("<I", len(meta)),
        meta,
    ])
    with replace_atomically(path) as tmp, open(tmp, "wb") as f:
        f.write(blob)


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf, path)
    if r.take(4) != MAGIC:
        raise CheckpointError(f"{r.origin}: not a checkpoint file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise CheckpointError(f"{r.origin}: unsupported checkpoint version {version}")
    digest = r.string()
    phase_index = r.i32()
    epochs_done = r.i32()
    tensors = r.table()
    opt = r.table()
    (meta_len,) = struct.unpack("<I", r.take(4))
    try:
        metadata = json.loads(r.take(meta_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{r.origin}: the metadata is not UTF-8 JSON ({e})") from None
    if r.pos != len(buf):
        raise CheckpointError(f"{r.origin}: trailing bytes start at offset {r.pos}")
    step = opt.pop("step_count", np.array(0))
    if step.size != 1:
        raise CheckpointError(f"{r.origin}: step_count holds {step.size} values, not 1")
    return Checkpoint(
        config_digest=digest,
        phase_index=phase_index,
        epochs_done=epochs_done,
        tensors=tensors,
        optimizer_state=opt,
        step_count=int(step.item()),
        metadata=metadata,
    )
