import numpy as np
import pytest

from iuq.ci import empirical_quantile, percentile_ci


class TestEmpiricalQuantile:
    def test_median_convention(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_alpha_one_is_maximum(self):
        assert empirical_quantile([3.0, 1.0, 9.0], 1.0) == 9.0

    def test_matches_sort_oracle(self, rng):
        values = rng.normal(size=1000)
        srt = np.sort(values)
        for alpha in rng.uniform(0.001, 1.0, size=20):
            rank = int(np.ceil(values.size * alpha))
            assert empirical_quantile(values, alpha) == srt[rank - 1]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)

    def test_bad_alpha_errors(self):
        for alpha in (0.0, True):
            with pytest.raises(ValueError):
                empirical_quantile([1.0], alpha)


class TestPercentileCI:
    def test_constant_estimates_collapse(self):
        ci = percentile_ci(np.full(50, 3.25), 0.05)
        assert (ci.lower, ci.upper) == (3.25, 3.25)

    def test_one_to_hundred(self):
        ci = percentile_ci(np.arange(1.0, 101.0), 0.10)
        assert (ci.lower, ci.upper) == (5.0, 95.0)

    def test_matches_normal_quantiles(self, rng):
        draws = rng.standard_normal(10_000)
        ci = percentile_ci(draws, 0.05)
        assert ci.lower == pytest.approx(-1.96, abs=0.05)
        assert ci.upper == pytest.approx(1.96, abs=0.05)

    def test_endpoints_are_sample_elements(self, rng):
        values = rng.normal(size=231)
        ci = percentile_ci(values, 0.07)
        assert ci.lower in values and ci.upper in values

    def test_monotone_in_alpha(self, rng):
        values = rng.normal(size=500)
        wide = percentile_ci(values, 0.02)
        narrow = percentile_ci(values, 0.20)
        assert wide.lower <= narrow.lower and narrow.upper <= wide.upper

    def test_translation_equivariance(self, rng):
        values = rng.normal(size=321)
        base = percentile_ci(values, 0.1)
        shifted = percentile_ci(values + 2.5, 0.1)
        assert shifted.lower == pytest.approx(base.lower + 2.5)
        assert shifted.upper == pytest.approx(base.upper + 2.5)

    @pytest.mark.parametrize("estimates", [[], [1.0]], ids=["none", "one"])
    def test_fewer_than_two_estimates_rejected(self, estimates):
        with pytest.raises(ValueError, match="need at least two estimates"):
            percentile_ci(np.array(estimates), 0.05)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, float("nan"), True, "0.05"])
    def test_bad_alpha_errors(self, alpha):
        with pytest.raises(ValueError, match="alpha must lie in"):
            percentile_ci(np.arange(1.0, 101.0), alpha)

    @pytest.mark.parametrize("estimates, bad", [([np.nan, 1.0, 2.0], 1),
                                                ([1.0, np.inf, 2.0], 1),
                                                ([-np.inf, 1.0, np.nan, 2.0], 2)],
                             ids=["nan", "inf", "-inf and nan"])
    def test_non_finite_estimates_rejected(self, estimates, bad):
        # np.sort puts NaN last, so a NaN would otherwise become the upper end
        with pytest.raises(ValueError, match=f"{bad} of {len(estimates)} estimates are not finite"):
            percentile_ci(estimates, 0.05)

    def test_width_and_covers(self):
        ci = percentile_ci(np.arange(1.0, 101.0), 0.10)
        assert ci.width == 90.0
        assert ci.covers(5.0) and ci.covers(95.0) and not ci.covers(95.5)

    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5])
    @pytest.mark.parametrize("n", [2, 3, 999, 1000, 3045])
    def test_ends_are_the_two_empirical_quantiles(self, rng, n, alpha, tied):
        # the one sort must pick the order statistics of the two separate calls
        values = rng.integers(0, 4, size=n).astype(float) if tied else rng.normal(size=n)
        ci = percentile_ci(values, alpha)
        assert (ci.lower, ci.upper) == (empirical_quantile(values, alpha / 2.0),
                                        empirical_quantile(values, 1.0 - alpha / 2.0))
