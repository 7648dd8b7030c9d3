import pytest

from stats import due_latencies, median, percentile


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile(values, 0.5) == 1
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # order does not matter
    assert percentile([7.0], 95) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median():
    assert median([1.0, 2.0, 3.0, 4.0, 100.0]) == 3.0
    assert median([2.0, 1.0]) == 1.5


def test_due_latency_charges_the_wait_behind_a_stall():
    # Requests due every 100 ms; the server stalls 300 ms on the second,
    # so the third, due at 200 ms, is answered at 410 ms: 210 ms late,
    # although it was answered only 10 ms after the stall ended.
    due = [0.0, 0.1, 0.2, 0.3]
    answered = [0.05, 0.4, 0.41, 0.42]
    assert due_latencies(due, answered) == pytest.approx([0.05, 0.3, 0.21, 0.12])


def test_due_latency_rejects_mismatched_or_impossible_times():
    with pytest.raises(ValueError):
        due_latencies([0.0, 1.0], [0.5])
    with pytest.raises(ValueError):
        due_latencies([1.0], [0.5])
