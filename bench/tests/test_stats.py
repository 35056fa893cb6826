"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import fail_share, relative_times, self_times, summary  # noqa: E402


def test_summary_median_and_quartiles():
    s = summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert s["n"] == 5 and s["p50"] == 3.0
    assert (s["min"], s["max"]) == (1.0, 5.0)
    # exclusive method: positions (n + 1) p = 1.5 and 4.5
    assert (s["q1"], s["q3"]) == (1.5, 4.5)
    assert (s["q1"], s["q3"]) == tuple(
        statistics.quantiles([1, 2, 3, 4, 5], n=4)[::2])


def test_summary_even_count_and_single_value():
    assert summary([4.0, 1.0, 3.0, 2.0])["p50"] == 2.5
    assert summary([7.0]) == {"n": 1, "p50": 7.0, "q1": 7.0, "q3": 7.0,
                              "min": 7.0, "max": 7.0}
    with pytest.raises(ValueError):
        summary([])


def test_self_times_nested_spans():
    spans = [
        (0.0, 10.0, None),   # job
        (1.0, 6.0, 0),       # grid_eval
        (2.0, 3.0, 1),       #   kernel_matrix
        (2.5, 2.75, 2),      #     bvn_cdf
        (4.0, 5.5, 1),       #   kernel_matrix
        (7.0, 9.0, 0),       # mh_sample
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.5, 0.75, 0.25, 1.5, 2.0])
    # self times partition the root span
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_self_times_clip_children_to_parent_and_merge_overlaps():
    spans = [(0.0, 4.0, None), (-1.0, 1.0, 0), (0.5, 2.0, 0), (3.5, 9.0, 0)]
    # covered: [0, 2] and [3.5, 4]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_fail_share():
    assert fail_share(2, 605) == pytest.approx(2 / 605)
    assert fail_share(0, 3) == 0.0
    with pytest.raises(ValueError):
        fail_share(1, 0)
    with pytest.raises(ValueError):
        fail_share(4, 3)


def test_relative_times_divide_by_geometric_mean_of_neighbouring_probes():
    assert relative_times([6.0, 9.0], [(0.2, 0.2), (0.25, 0.36)]) == \
        pytest.approx([30.0, 30.0])
    # a host twice as slow doubles job and probes alike
    assert relative_times([12.0], [(0.4, 0.4)]) == \
        relative_times([6.0], [(0.2, 0.2)])
    with pytest.raises(ValueError):
        relative_times([1.0], [])
