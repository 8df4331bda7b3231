import math

import numpy as np
import pytest

from crmlab import (
    LabeledDataset,
    LoggedDataset,
    SoftmaxPolicy,
    argmax_accuracy,
    expected_reward_stochastic,
    ips_risk,
    mean_param_risk,
    temper,
    truncated_ips_risk,
    zero_policy,
)
from crmlab.estimators import _compensated_mean, _poem_statistic
from crmlab.policies import _matched_probs
from conftest import one_record, random_logged


class TestIpsRisk:
    def test_zero_rewards_give_one(self, logs400):
        data = LoggedDataset(
            logs400.features, logs400.actions, logs400.propensities,
            np.zeros(logs400.n), logs400.k, logs400.feature_norm_bound,
        )
        assert ips_risk(zero_policy(data.d, data.k), data) == 1.0

    def test_single_record_hand_value(self, half_prob_policy):
        assert ips_risk(half_prob_policy, one_record(0.5, 1.0)) == 0.0

    def test_logging_policy_on_full_reward_logs(self, logging_policy, logs400):
        # pi equals the stored propensity bit-for-bit, so the ratio is
        # exactly 1 and the risk exactly 0.
        data = LoggedDataset(
            logs400.features, logs400.actions, logs400.propensities,
            np.ones(logs400.n), logs400.k, logs400.feature_norm_bound,
        )
        assert ips_risk(logging_policy, data) == 0.0

    def test_dimension_mismatch(self, logs400):
        with pytest.raises(ValueError):
            ips_risk(zero_policy(logs400.d + 1, logs400.k), logs400)


class TestTruncatedIpsRisk:
    def test_small_propensity_clipped(self, half_prob_policy):
        data = one_record(0.005, 1.0)
        assert truncated_ips_risk(half_prob_policy, data, 0.01) == -49.0

    def test_tau_above_propensity(self, half_prob_policy):
        data = one_record(0.5, 1.0)
        value = truncated_ips_risk(half_prob_policy, data, 0.6)
        assert value == pytest.approx(1.0 - 0.5 / 0.6, rel=1e-15)

    def test_zero_rewards_give_one(self, half_prob_policy):
        assert truncated_ips_risk(half_prob_policy, one_record(0.3, 0.0), 0.01) == 1.0

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_tau_outside_open_interval(self, half_prob_policy, tau):
        with pytest.raises(ValueError):
            truncated_ips_risk(half_prob_policy, one_record(0.5, 1.0), tau)

    def test_never_below_untruncated(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            data = random_logged(rng, 50, 3, 4, min_propensity=0.01)
            pol = SoftmaxPolicy(rng.normal(size=(4, 3)), rng.normal(size=4))
            tau = float(rng.uniform(0.02, 0.5))
            assert truncated_ips_risk(pol, data, tau) >= ips_risk(pol, data)

    def test_range(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            data = random_logged(rng, 40, 2, 3, min_propensity=0.01)
            pol = SoftmaxPolicy(rng.normal(size=(3, 2)), np.zeros(3))
            tau = float(rng.uniform(0.02, 0.9))
            value = truncated_ips_risk(pol, data, tau)
            assert 1.0 - 1.0 / tau <= value <= 1.0


class TestMeanParamRisk:
    def test_zero_sigma_equals_truncated(self):
        rng = np.random.default_rng(16)
        data = random_logged(rng, 30, 3, 4)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)), rng.normal(size=4))
        B = data.feature_norm_bound
        assert mean_param_risk(pol, 0.0, B, data, 0.05) == truncated_ips_risk(
            pol, data, 0.05
        )

    def test_huge_sigma_tends_to_one(self):
        rng = np.random.default_rng(17)
        data = random_logged(rng, 30, 3, 4)
        pol = zero_policy(3, 4)
        value = mean_param_risk(pol, 1e6, data.feature_norm_bound, data, 0.05)
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_shrink_factor_hand_value(self, half_prob_policy):
        # One record with pi/max(p, tau) = 0.5/0.625 = 0.8, so the truncated
        # risk is 0.2; with sigma*B^2 = 2 the estimate is 1 - exp(-1)*0.8.
        data = one_record(0.625, 1.0)
        value = mean_param_risk(half_prob_policy, 2.0, 1.0, data, 0.01)
        assert value == pytest.approx(1.0 - math.exp(-1.0) * 0.8, rel=1e-15)
        assert value == pytest.approx(0.7056964470628461, rel=1e-13)

    def test_rejects_negative_sigma(self, half_prob_policy):
        with pytest.raises(ValueError):
            mean_param_risk(half_prob_policy, -1.0, 1.0, one_record(0.5, 1.0), 0.1)

    def test_rejects_bound_below_data_bound(self):
        rng = np.random.default_rng(18)
        data = random_logged(rng, 10, 3, 2)
        with pytest.raises(ValueError):
            mean_param_risk(
                zero_policy(3, 2), 0.1, data.feature_norm_bound * 0.5, data, 0.1
            )

    def test_nondecreasing_in_sigma_and_dominates_truncated(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            data = random_logged(rng, 40, 2, 3)
            pol = SoftmaxPolicy(rng.normal(size=(3, 2)), np.zeros(3))
            B = data.feature_norm_bound
            tau = 0.05
            sigmas = np.sort(rng.uniform(0.0, 2.0, size=5))
            values = [mean_param_risk(pol, float(s), B, data, tau) for s in sigmas]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[0] >= truncated_ips_risk(pol, data, tau)


def sample_variance(policy, data, tau):
    """The variance of the POEM statistic, as ``objective_value`` reads it."""
    pi = _matched_probs(policy, data)
    return _poem_statistic(pi, data.propensities, data.rewards, tau)[3]


class TestPoemSampleVariance:
    def test_constant_terms_give_zero(self, logging_policy, logs400):
        # Matched prob equals propensity, rewards forced to 1: u_i = 1 for
        # every record.
        data = LoggedDataset(
            logs400.features, logs400.actions, logs400.propensities,
            np.ones(logs400.n), logs400.k, logs400.feature_norm_bound,
        )
        assert sample_variance(logging_policy, data, 0.01) == 0.0

    def test_two_point_variance(self, half_prob_policy):
        X = np.zeros((2, 1))
        data = LoggedDataset(
            X, np.array([0, 0]), np.array([0.5, 0.5]),
            np.array([0.0, 1.0]), 2, 0.0,
        )
        assert sample_variance(half_prob_policy, data, 0.01) == 0.5

    def test_ratio_clipped_before_variance(self, half_prob_policy):
        # pi/p = 1000 on the rewarded record; with tau=0.01 the ratio caps
        # at 100, so the pair u = (100, 0) has variance 5000.
        X = np.zeros((2, 1))
        data = LoggedDataset(
            X, np.array([0, 0]), np.array([0.0005, 0.5]),
            np.array([1.0, 0.0]), 2, 0.0,
        )
        assert sample_variance(half_prob_policy, data, 0.01) == 5000.0

    def test_matches_two_pass_reference(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            data = random_logged(rng, 60, 3, 4, min_propensity=0.002)
            pol = SoftmaxPolicy(rng.normal(size=(4, 3)), np.zeros(4))
            tau = 0.01
            from crmlab import action_prob_matrix

            P = action_prob_matrix(pol, data.features)
            pi = P[np.arange(data.n), data.actions]
            u = data.rewards * np.minimum(pi / data.propensities, 1.0 / tau)
            reference = float(np.var(u, ddof=1))
            assert abs(sample_variance(pol, data, tau) - reference) <= 1e-10


class TestCompensatedMean:
    def test_exact_when_partial_sums_overflow(self):
        big = np.array([1e308, 1e308, -1e308, -1e308, 3.0])
        assert _compensated_mean(big) == 0.6
        assert _compensated_mean(np.full(4, 1.5e308)) == 1.5e308
        assert _compensated_mean(np.array([-1.7e308, -1.7e308])) == -1.7e308

    def test_out_of_range_quotient_is_infinite(self):
        assert _compensated_mean(np.full(2, 1.5e308), ddof=1) == math.inf
        assert _compensated_mean(np.full(2, -1.5e308), ddof=1) == -math.inf

    def test_nonfinite_terms_after_overflow(self):
        assert _compensated_mean(np.array([1e308, 1e308, math.inf])) == math.inf
        assert math.isnan(_compensated_mean(np.array([1e308, 1e308, math.nan])))

    def test_matches_unscaled_sum_in_range(self):
        rng = np.random.default_rng(5)
        terms = rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, 1000)
        assert _compensated_mean(terms) == math.fsum(terms.tolist()) / 1000
        assert _compensated_mean(terms, ddof=1) == math.fsum(terms.tolist()) / 999


class TestSupervisedMetrics:
    @pytest.fixture(scope="module")
    def labeled10(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(300, 10))
        labels = rng.integers(0, 10, size=300)
        return LabeledDataset(X, labels, 10)

    def test_uniform_stochastic_reward(self, labeled10):
        assert expected_reward_stochastic(zero_policy(10, 10), labeled10) == 0.1

    def test_perfect_policy_both_metrics_one(self):
        # One-hot contexts with huge aligned weights give probability 1 on
        # the true label after the exponentials of the other logits
        # underflow.
        X = np.eye(4)
        labels = np.arange(4)
        data = LabeledDataset(X, labels, 4)
        pol = SoftmaxPolicy(5000.0 * np.eye(4), np.zeros(4))
        assert expected_reward_stochastic(pol, data) == 1.0
        assert argmax_accuracy(pol, data) == 1.0

    def test_uniform_argmax_hits_label_zero(self, labeled10):
        expected = float(np.mean(labeled10.labels == 0))
        assert argmax_accuracy(zero_policy(10, 10), labeled10) == expected

    def test_argmax_tie_breaks_to_lowest_index(self):
        # Actions 1 and 2 share the largest logit; action 1 is chosen.
        data = LabeledDataset(np.zeros((2, 1)), np.array([1, 2]), 3)
        pol = SoftmaxPolicy(np.zeros((3, 1)), np.array([0.0, 1.0, 1.0]))
        assert argmax_accuracy(pol, data) == 0.5

    def test_argmax_invariant_under_positive_tempering(self, labeled10):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pol = SoftmaxPolicy(rng.normal(size=(10, 10)), rng.normal(size=10))
            base = argmax_accuracy(pol, labeled10)
            for kappa in (0.3, 1.0, 2.5, 17.0):
                assert argmax_accuracy(temper(pol, kappa), labeled10) == base

    def test_temper_zero_makes_stochastic_reward_uniform(self, labeled10):
        rng = np.random.default_rng(25)
        pol = SoftmaxPolicy(rng.normal(size=(10, 10)), rng.normal(size=10))
        assert expected_reward_stochastic(temper(pol, 0.0), labeled10) == 0.1

    def test_dimension_mismatch(self, labeled10):
        with pytest.raises(ValueError):
            expected_reward_stochastic(zero_policy(3, 10), labeled10)
