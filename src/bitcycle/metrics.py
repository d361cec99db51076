"""Per-epoch training metrics.

Rows land in two files inside the run directory:

    metrics.csv   one row per completed epoch; pure function of config,
                  seed, and thread count, so reruns produce identical bytes
    timing.csv    wall-clock seconds per epoch, kept out of metrics.csv
                  precisely because timings never reproduce

Both files are flushed after every row, so a partial run always leaves a
valid prefix. A resumed run keeps the header and the first K complete
lines of each file as they are on disk, where K is the number of epochs
its checkpoint covers, and appends from there.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, fields

TIMING_HEADER = "phase,epoch,wall_seconds"


@dataclass
class MetricsRow:
    phase: int
    part: str
    bit_depth: int
    epoch: int
    iteration: int
    lr: float
    train_loss: float
    eval_top1: float
    eval_top5: float
    mean_abs_quant_error: float
    wall_seconds: float = 0.0

    def csv_line(self) -> str:
        # floats print as repr so read_metrics gets the exact value back
        return ",".join(repr(float(getattr(self, f.name))) if f.type == "float"
                        else str(getattr(self, f.name)) for f in _COLUMNS)


# metrics.csv holds every field but wall_seconds, which goes to timing.csv
_COLUMNS = [f for f in fields(MetricsRow) if f.name != "wall_seconds"]
_PARSERS = {"int": int, "str": str, "float": float}
METRICS_HEADER = ",".join(f.name for f in _COLUMNS)


def read_metrics(path: str) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != METRICS_HEADER.split(","):
            raise ValueError(f"{path}: unexpected metrics header {header}")
        for rec in reader:
            if len(rec) != len(_COLUMNS):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(_COLUMNS)} fields, "
                                 f"got {len(rec)}")
            rows.append(MetricsRow(**{f.name: _PARSERS[f.type](v) for f, v in zip(_COLUMNS, rec)}))
    return rows


def _prefix_length(path: str, header: str, rows: int | None = None) -> int:
    """Bytes taken by the header and the first `rows` complete lines of path, or by
    every line when rows is None, which refuses a torn last line."""
    with open(path, "rb") as f:
        if f.readline() != header.encode() + b"\n":
            raise ValueError(f"{path} does not start with the header {header!r}")
        lines = iter(f.readline, b"") if rows is None else (f.readline() for _ in range(rows))
        for line in lines:
            if not line.endswith(b"\n"):
                raise ValueError(f"{path} ends in a torn line with no final newline" if rows is None
                                 else f"cannot resume: {path} holds fewer than the {rows} rows "
                                 "the checkpoint covers")
        return f.tell()


def eval_appender(out_dir: str):
    """Refuse an out_dir/eval.csv a metrics row cannot join; return a function appending
    one, which makes a missing out_dir and eval.csv and starts a new file with the header."""
    path = os.path.join(out_dir, "eval.csv")
    if os.path.exists(path):
        _prefix_length(path, METRICS_HEADER)

    def append(row: MetricsRow) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(path, "a", newline="") as f:
            f.write((METRICS_HEADER + "\n" if f.tell() == 0 else "") + row.csv_line() + "\n")

    return append


class MetricsWriter:
    """Appends rows to metrics.csv and timing.csv; done=K resumes both after row K."""

    def __init__(self, out_dir: str, done: int | None = None):
        os.makedirs(out_dir, exist_ok=True)
        self.metrics_path = os.path.join(out_dir, "metrics.csv")
        self.timing_path = os.path.join(out_dir, "timing.csv")
        files = ((self.metrics_path, METRICS_HEADER), (self.timing_path, TIMING_HEADER))
        if done is None:
            for path, header in files:
                with open(path, "w", newline="") as f:
                    f.write(header + "\n")
        else:
            # both files are checked before either is cut
            cuts = [(path, _prefix_length(path, header, done)) for path, header in files]
            for path, length in cuts:
                os.truncate(path, length)
        self._metrics = open(self.metrics_path, "a", newline="")
        self._timing = open(self.timing_path, "a", newline="")

    def append(self, row: MetricsRow) -> None:
        self._metrics.write(row.csv_line() + "\n")
        self._timing.write(f"{row.phase},{row.epoch},{row.wall_seconds:.3f}\n")
        self._metrics.flush()
        self._timing.flush()

    def close(self) -> None:
        self._metrics.close()
        self._timing.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
