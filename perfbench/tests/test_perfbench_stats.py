import pytest

import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0
    assert stats.percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_samples_beyond_and_highest_supported():
    assert stats.beyond(1000, 99) == 10
    assert stats.beyond(999, 99) == 9
    assert stats.highest_supported(1000) == 99.0
    assert stats.highest_supported(999) == 90.0
    assert stats.highest_supported(20) == 50.0
    assert stats.highest_supported(19) is None
    assert stats.highest_supported(10_000) == 99.9


def test_describe_states_count_and_flags_undersampled_tail():
    text = stats.describe([float(i) for i in range(1000)], 99)
    assert "n=1000" in text and "10 beyond" in text and "fewer" not in text
    assert "fewer than 10 samples beyond" in stats.describe([1.0, 2.0, 3.0], 99)
