"""The pairs driver (tests/bench_pairs.py) on canned run.py output: the
schema of what it writes and its arithmetic. Nothing is run or timed."""

import json

import bench_pairs
import pytest

SPEC = {"end_to_end": [
    {"name": "clips_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
]}


def _stdout(clips, rss, failed=0):
    """What run.py prints: the header line, an info line, the result line."""
    header = {"header": {"python": "3.11", "numpy": "2.4", "blas": "openblas", "nproc": 2,
                         "WAVECNN_THREADS": 2, "git": "unknown"}}
    result = {"correct": failed == 0, "attempted": 3, "failed": failed, "metrics": {
        "clips_per_s": {"value": clips, "unit": "clips/s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"}}}
    return "\n".join(json.dumps(line) for line in (header, {"info": {}}, result)) + "\n"


# (parent clips/s, change clips/s, parent MiB, change MiB) per pair
PAIRS = [(10.0, 12.0, 100.0, 80.0), (11.0, 10.0, 104.0, 82.0),
         (12.0, 15.0, 102.0, 90.0), (13.0, 13.0, 101.0, 81.0)]


def _pairs(failed_change=0):
    runs = []
    for i, (pc, cc, pm, cm) in enumerate(PAIRS):
        parent = bench_pairs.parse_run(_stdout(pc, pm))
        change = bench_pairs.parse_run(_stdout(cc, cm, failed_change if i == 0 else 0))
        assert parent[0]["nproc"] == 2
        runs.append({"seed": 1 + i, "order": bench_pairs.pair_order(i),
                     "parent": parent[1], "change": change[1]})
    return {"train-m3": runs}


def test_order_alternates_within_pairs():
    assert [bench_pairs.pair_order(i) for i in range(3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change")]


def test_schema_and_arithmetic():
    out = bench_pairs.summarize(SPEC, _pairs(failed_change=2))
    w = out["train-m3"]
    assert w["failed_checks"] == {"parent": 0, "change": 2}
    assert w["seeds"] == [1, 2, 3, 4]
    assert w["orders"][1] == ["change", "parent"]
    clips, rss = w["metrics"]["clips_per_s"], w["metrics"]["peak_rss_mb"]
    assert set(clips) == {"parent", "change", "median_ratio", "pairs_won", "pairs",
                          "parent_iqr_over_third_of_bound",
                          "medians_apart_beyond_parent_iqr", "values"}
    assert clips["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert clips["change"]["median"] == 12.5
    # ratios 1.2, 10/11, 1.25, 1.0; higher is better, a tie is not a win
    assert clips["median_ratio"] == pytest.approx((1.2 + 1.0) / 2)
    assert clips["pairs_won"] == 2 and clips["pairs"] == 4
    # parent IQR 1.5 > 11.5 * 0.25 / 3; the medians are 1.0 apart
    assert clips["parent_iqr_over_third_of_bound"]
    assert not clips["medians_apart_beyond_parent_iqr"]
    # lower is better: every pair won; parent IQR 1.75 vs 101.5 * 0.15 / 3
    assert rss["pairs_won"] == 4
    assert rss["parent"] == {"median": 101.5, "q1": 100.75, "q3": 102.5}
    # ratios in order: 82/104, 80/100, 81/101, 90/102
    assert rss["median_ratio"] == pytest.approx((80 / 100 + 81 / 101) / 2)
    assert not rss["parent_iqr_over_third_of_bound"]
    assert rss["medians_apart_beyond_parent_iqr"]
    assert rss["values"]["change"] == [80.0, 82.0, 90.0, 81.0]
    json.dumps(out)  # the file is plain JSON
