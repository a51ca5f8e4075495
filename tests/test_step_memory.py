"""The step memory script (tests/step_memory.py) prints one row per unit
forward and per tape record backward of a train step, and restores the
record helper it wraps."""

import step_memory
from wavecnn import models
from wavecnn.models import build
from wavecnn.tensor import RandomSource

SMALL = dict(arch="m3", width=1 / 16, batch=2, length=3200)


def test_rows_cover_every_unit_and_record():
    rows = step_memory.step_rows(**SMALL)
    graph = build("m3", rng=RandomSource(0), channel_scale=1 / 16)
    res = graph.forward(RandomSource(1).normal((2, 3200, 1)), mode="train", rng=RandomSource(2))
    phases = [r.phase for r in rows]
    assert [r.unit for r in rows if r.phase == "forward"] == [u.label for u in graph.units]
    assert phases == ["forward"] * len(graph.units) + ["loss"] + ["backward"] * len(res.tape) + ["l2", "adam"]
    backward = [(r.unit, r.op) for r in rows if r.phase == "backward"]
    assert backward[0] == ("dense", "affine_backward")
    assert backward[-1] == ("conv1", "conv1d_backward")
    assert all(r.peak >= r.live >= 0 and r.seconds >= 0 for r in rows)
    assert max(r.peak for r in rows) > 0


def test_main_prints_a_row_each_and_the_peak(capsys):
    assert step_memory.main(["--arch", "m3", "--width", "0.0625", "--batch", "2",
                             "--length", "3200"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["phase", "unit", "op"]
    body = [line.split() for line in lines[1:-1]]
    assert len(body) == len(step_memory.step_rows(**SMALL))
    peak = max(body, key=lambda cols: float(cols[-2]))[-2]  # rounding keeps the order
    assert lines[-1].startswith(f"step peak {peak} MiB: ")


def test_record_helper_is_restored():
    record = models._record
    step_memory.step_rows(**SMALL)
    assert models._record is record
