"""The benchmark's own arithmetic."""

import math

import pytest

from measure import (
    failure_share,
    first_mask_ms,
    highest_reportable,
    nearest_rank,
    ratio,
    relative_spread,
    samples_beyond,
    self_time,
    union_length,
)
from report import span_self_times


class TestSelfTime:
    def test_no_children(self):
        assert self_time(0.0, 10.0, []) == 10.0

    def test_nested_children(self):
        # A child with its own child: only the direct child is subtracted.
        assert self_time(0.0, 10.0, [(2.0, 6.0)]) == 6.0

    def test_overlapping_children_counted_once(self):
        assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0)]) == 5.0

    def test_child_inside_another_child(self):
        assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == 3.0

    def test_children_clipped_to_parent(self):
        assert self_time(5.0, 10.0, [(0.0, 6.0), (9.0, 20.0)]) == 3.0

    def test_disjoint_and_touching_children(self):
        assert self_time(0.0, 10.0, [(0.0, 2.0), (2.0, 3.0), (7.0, 8.0)]) == 6.0

    def test_union_ignores_empty_intervals(self):
        assert union_length([(3.0, 3.0), (5.0, 4.0)]) == 0.0

    def test_span_tree_self_times_add_up(self):
        # root [0, 10) > a [1, 6) > b [2, 3); root > c [7, 9)
        spans = [
            [0, "root", 0.0, 10.0, None, None],
            [1, "a", 1.0, 6.0, 0, None],
            [2, "b", 2.0, 3.0, 1, None],
            [3, "c", 7.0, 9.0, 0, None],
        ]
        selfs = span_self_times(spans)
        assert selfs == [3.0, 4.0, 1.0, 2.0]
        assert math.isclose(sum(selfs), 10.0)


class TestPercentileRule:
    def test_nearest_rank_is_a_sample(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert nearest_rank(values, 50.0) == 3.0
        assert nearest_rank(values, 90.0) == 5.0
        assert nearest_rank(values, 0.0) == 1.0

    def test_nearest_rank_needs_samples(self):
        with pytest.raises(ValueError):
            nearest_rank([], 50.0)

    def test_samples_beyond(self):
        assert samples_beyond(100, 90.0) == 10
        assert samples_beyond(99, 90.0) == 9

    @pytest.mark.parametrize(
        "count, expected",
        [(19, None), (20, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
         (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
    )
    def test_highest_with_ten_beyond(self, count, expected):
        assert highest_reportable(count) == expected


class TestFirstMask:
    FRAME_MS = 1000.0 / 30.0

    def test_first_rendered_frame_plus_latency(self):
        frames = [(0, 16.5, 0), (1, 16.5, 0), (2, 20.0, 1), (3, 16.5, 2)]
        assert first_mask_ms(frames, self.FRAME_MS, 4000.0) == 2 * self.FRAME_MS + 20.0

    def test_never_shown_is_censored_at_horizon(self):
        frames = [(i, 16.5, 0) for i in range(120)]
        assert first_mask_ms(frames, self.FRAME_MS, 4000.0) == 4000.0

    def test_late_display_capped_at_horizon(self):
        assert first_mask_ms([(119, 90.0, 1)], self.FRAME_MS, 4000.0) == 4000.0


class TestFailureShare:
    def test_counts(self):
        assert failure_share(0, 480) == 0.0
        assert failure_share(120, 480) == 0.25

    def test_nothing_attempted_is_a_failure(self):
        assert failure_share(0, 0) == 1.0

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            failure_share(5, 4)
        with pytest.raises(ValueError):
            failure_share(-1, 4)

    def test_ratio_with_empty_base(self):
        assert ratio(3, 0) == 0.0
        assert ratio(3, 4) == 0.75


def test_relative_spread_matches_quartiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles (exclusive): q1 = 11.75, median 14.5, q3 = 17.25
    assert math.isclose(relative_spread(values), 5.5 / 14.5)
