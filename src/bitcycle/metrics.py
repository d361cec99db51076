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
from dataclasses import dataclass

METRICS_HEADER = (
    "phase,part,bit_depth,epoch,iteration,lr,train_loss,"
    "eval_top1,eval_top5,mean_abs_quant_error"
)
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
        fields = [
            str(self.phase), self.part, str(self.bit_depth), str(self.epoch),
            str(self.iteration), repr(float(self.lr)), repr(float(self.train_loss)),
            repr(float(self.eval_top1)), repr(float(self.eval_top5)),
            repr(float(self.mean_abs_quant_error)),
        ]
        return ",".join(fields)


def read_metrics(path: str) -> list[MetricsRow]:
    rows: list[MetricsRow] = []
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != METRICS_HEADER.split(","):
            raise ValueError(f"{path}: unexpected metrics header {header}")
        for rec in reader:
            if len(rec) != 10:
                raise ValueError(f"{path}:{reader.line_num}: expected 10 fields, got {len(rec)}")
            rows.append(MetricsRow(
                phase=int(rec[0]), part=rec[1], bit_depth=int(rec[2]),
                epoch=int(rec[3]), iteration=int(rec[4]), lr=float(rec[5]),
                train_loss=float(rec[6]), eval_top1=float(rec[7]),
                eval_top5=float(rec[8]), mean_abs_quant_error=float(rec[9]),
            ))
    return rows


def _prefix_length(path: str, header: str, rows: int) -> int:
    """Bytes taken by the header and the first `rows` complete lines of path."""
    with open(path, "rb") as f:
        if f.readline() != header.encode() + b"\n":
            raise ValueError(f"{path} does not start with the header {header!r}")
        for _ in range(rows):
            if not f.readline().endswith(b"\n"):
                raise ValueError(f"cannot resume: {path} holds fewer than the {rows} rows "
                                 "the checkpoint covers")
        return f.tell()


class MetricsWriter:
    """Appends rows to metrics.csv and timing.csv; keep_rows=K resumes both after row K."""

    def __init__(self, out_dir: str, keep_rows: int | None = None):
        os.makedirs(out_dir, exist_ok=True)
        self.metrics_path = os.path.join(out_dir, "metrics.csv")
        self.timing_path = os.path.join(out_dir, "timing.csv")
        files = ((self.metrics_path, METRICS_HEADER), (self.timing_path, TIMING_HEADER))
        if keep_rows is None:
            for path, header in files:
                with open(path, "w", newline="") as f:
                    f.write(header + "\n")
        else:
            # both files are checked before either is cut
            cuts = [(path, _prefix_length(path, header, keep_rows)) for path, header in files]
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
