import statistics

import numpy as np
import pytest

from perfbench.stats import median, median_se, percentile, quartiles, spread


@pytest.mark.parametrize("n", [1, 2, 5, 10, 101])
def test_percentile_matches_linear_interpolation(n):
    xs = np.random.default_rng(n).normal(size=n)
    for q in (0, 10, 25, 50, 90, 100):
        assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)
    assert median(list(xs)) == pytest.approx(np.median(xs), abs=1e-12)


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_quartiles_follow_statistics_quantiles():
    xs = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert quartiles(xs) == (2.75, 5.5, 8.25)
    ys = np.random.default_rng(0).exponential(size=10)
    assert list(quartiles(ys)) == statistics.quantiles(ys, n=4)


def test_spread_is_quartile_distance_over_median():
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(5.5 / 5.5)
    assert spread([4.0] * 10) == 0.0


def test_median_se_is_near_the_sampling_spread_of_the_median():
    rng = np.random.default_rng(1)
    medians = [np.median(rng.normal(size=64)) for _ in range(2000)]
    estimates = [median_se(rng.normal(size=64)) for _ in range(200)]
    assert np.median(estimates) == pytest.approx(np.std(medians), rel=0.15)
    assert median_se([3.0] * 8) == 0.0
