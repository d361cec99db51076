import os
import re
from pathlib import Path

import pytest

from bitcycle.metrics import METRICS_HEADER, MetricsRow, MetricsWriter, read_metrics


def _row(phase, epoch, part="final", **kw):
    base = dict(
        phase=phase, part=part, bit_depth=1, epoch=epoch, iteration=phase * 100 + epoch,
        lr=0.001, train_loss=1.0 / 3.0, eval_top1=0.5, eval_top5=0.9,
        mean_abs_quant_error=0.0625, wall_seconds=1.25,
    )
    base.update(kw)
    return MetricsRow(**base)


def test_header_and_round_trip(tmp_path):
    d = str(tmp_path)
    with MetricsWriter(d) as w:
        w.append(_row(0, 1))
        w.append(_row(0, 2, train_loss=0.25))
    lines = Path(d, "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert len(lines) == 3
    rows = read_metrics(os.path.join(d, "metrics.csv"))
    assert rows[0].train_loss == 1.0 / 3.0
    assert rows[1].train_loss == 0.25
    assert rows[0].part == "final"
    assert rows[0].iteration == 1


def test_wall_seconds_kept_out_of_metrics(tmp_path):
    d = str(tmp_path)
    with MetricsWriter(d) as w:
        w.append(_row(0, 1, wall_seconds=9.75))
    metrics_text = Path(d, "metrics.csv").read_text()
    timing_text = Path(d, "timing.csv").read_text()
    assert "wall" not in metrics_text
    assert "9.75" not in metrics_text
    assert timing_text.splitlines()[0] == "phase,epoch,wall_seconds"
    assert "9.750" in timing_text


def test_rows_visible_while_writer_open(tmp_path):
    d = str(tmp_path)
    w = MetricsWriter(d)
    w.append(_row(0, 1))
    rows = read_metrics(os.path.join(d, "metrics.csv"))
    assert len(rows) == 1
    w.close()


def test_float_fields_round_trip_exactly(tmp_path):
    d = str(tmp_path)
    vals = [1.0 / 3.0, 0.1 + 0.2, 1e-8, 0.0007298342, 2.0 / 7.0]
    with MetricsWriter(d) as w:
        for i, v in enumerate(vals):
            w.append(_row(0, i + 1, train_loss=v, eval_top1=v, mean_abs_quant_error=v))
    rows = read_metrics(os.path.join(d, "metrics.csv"))
    for row, v in zip(rows, vals):
        assert row.train_loss == v
        assert row.eval_top1 == v
        assert row.mean_abs_quant_error == v


def test_fresh_writer_truncates_old_file(tmp_path):
    d = str(tmp_path)
    with MetricsWriter(d) as w:
        w.append(_row(0, 1))
        w.append(_row(0, 2))
    with MetricsWriter(d) as w:
        w.append(_row(0, 1))
    assert len(read_metrics(os.path.join(d, "metrics.csv"))) == 1


def test_resume_truncates_past_cursor(tmp_path):
    d = str(tmp_path)
    with MetricsWriter(d) as w:
        for phase in range(3):
            for epoch in (1, 2, 3):
                w.append(_row(phase, epoch, wall_seconds=phase + epoch / 10))
    with MetricsWriter(d, done=5) as w:
        w.append(_row(1, 3, train_loss=0.111))
    rows = read_metrics(os.path.join(d, "metrics.csv"))
    keys = [(r.phase, r.epoch) for r in rows]
    assert keys == [(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3)]
    assert rows[-1].train_loss == 0.111
    timing = Path(d, "timing.csv").read_text().splitlines()
    assert len(timing) == 1 + 6
    assert timing[1].startswith("0,1,")


def test_resume_with_no_existing_file_is_refused(tmp_path):
    with pytest.raises(FileNotFoundError, match="metrics.csv"):
        MetricsWriter(str(tmp_path), done=0)
    assert not (tmp_path / "timing.csv").exists()


def test_resume_refuses_foreign_header_before_cutting(tmp_path):
    d = str(tmp_path)
    with MetricsWriter(d) as w:
        w.append(_row(0, 1))
        w.append(_row(0, 2))
    metrics = (tmp_path / "metrics.csv").read_bytes()
    (tmp_path / "timing.csv").write_text("epoch,seconds\n0,1.0\n")
    with pytest.raises(ValueError, match="timing.csv"):
        MetricsWriter(d, done=1)
    assert (tmp_path / "metrics.csv").read_bytes() == metrics


def test_read_names_a_row_without_ten_fields(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text(METRICS_HEADER + "\n" + _row(0, 1).csv_line() + "\n0,fin\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: expected 10 fields, got 2")):
        read_metrics(str(path))


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "metrics.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="unexpected metrics header"):
        read_metrics(str(path))
