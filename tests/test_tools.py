"""The summary of ``tools/bench_pairs.py``, on made-up pairs (no benchmark
is run)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

from bench_pairs import end_to_end_bounds, summarize  # noqa: E402


def _pairs(parent, change, name="op_s", unit="s"):
    return [
        {"seed": 201 + i, "parent": {name: {"value": a, "unit": unit}}, "change": {name: {"value": c, "unit": unit}}}
        for i, (a, c) in enumerate(zip(parent, change))
    ]


def test_summary_gives_medians_quartiles_and_lower_pairs():
    # the change is lower in pairs 1, 2 and 4, and equal in pair 5
    summary = summarize(_pairs([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 3.5, 2.0, 5.0]), {"op_s": 0.25})
    op = summary["op_s"]
    assert op["unit"] == "s"
    assert op["parent"]["median"] == 3.0
    assert op["parent"]["quartiles"] == [2.0, 4.0]
    assert op["change"]["median"] == 2.0
    assert op["change"]["quartiles"] == [1.0, 3.5]
    assert op["lower_in"] == "3 of 5"


def test_summary_covers_every_metric_and_a_single_pair():
    pairs = [
        {
            "parent": {"op_s": {"value": 2.0, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MiB"}},
            "change": {"op_s": {"value": 1.0, "unit": "s"}, "peak_rss_mb": {"value": 41.0, "unit": "MiB"}},
        }
    ]
    summary = summarize(pairs, end_to_end_bounds())
    assert set(summary) == {"op_s", "peak_rss_mb"}
    assert summary["op_s"]["lower_in"] == "1 of 1"
    assert summary["peak_rss_mb"]["lower_in"] == "0 of 1"
    assert summary["peak_rss_mb"]["change"] == pytest.approx({"median": 41.0, "quartiles": [41.0, 41.0]})


@pytest.mark.parametrize(("worse", "beyond"), [(1.3, True), (1.2, False)])
def test_summary_flags_a_median_worse_than_its_bound(worse, beyond):
    # 30% worse on op_s exceeds a bound of 0.25, and 20% worse does not
    summary = summarize(_pairs([1.0, 1.1, 0.9], [worse, 1.1 * worse, 0.9 * worse]), {"op_s": 0.25})
    op = summary["op_s"]
    assert op["move"] == pytest.approx(worse - 1)
    assert op["bound"] == 0.25
    assert op["beyond_bound"] is beyond

