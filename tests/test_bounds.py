import dataclasses
import math

import numpy as np
import pytest

from crmlab import (
    Certificate,
    MixedLogitSpec,
    SoftmaxPolicy,
    StabilityParams,
    certificates,
    crm_bound_all_tau,
    crm_bound_fixed_tau,
    data_dep_c_term,
    data_dep_risk_bound,
    gaussian_kl_bound,
    gaussian_kl_exact,
    mcallester_bound,
    mean_param_risk,
    mixed_logit_risk_bound,
    zero_policy,
)
from conftest import random_logged


def policy_with_distance_sq(dist_sq, k=1, d=2):
    """Pair (a, b) of k x d policies with ||a - b||^2 == dist_sq."""
    a = np.zeros((k, d))
    b = np.zeros((k, d))
    b[0, 0] = math.sqrt(dist_sq)
    return SoftmaxPolicy(a, np.zeros(k)), SoftmaxPolicy(b, np.zeros(k))


class TestBoundInputs:
    """The input rules of both truncated bounds, (emp_risk, kl, n, delta, tau)."""

    BOUNDS = (crm_bound_fixed_tau, crm_bound_all_tau)

    def test_accepts_valid(self):
        for bound in self.BOUNDS:
            assert math.isfinite(bound(0.4, 3.0, 100, 0.1, 0.05))

    def test_rejects_small_n(self):
        for bound in self.BOUNDS:
            with pytest.raises(ValueError):
                bound(0.5, 0.0, 1, 0.1, 0.05)

    def test_rejects_emp_risk_below_floor(self):
        for bound in self.BOUNDS:
            with pytest.raises(ValueError):
                bound(-1.1, 0.0, 10, 0.1, 0.5)

    def test_accepts_emp_risk_at_floor(self):
        for bound in self.BOUNDS:
            assert math.isfinite(bound(-1.0, 0.0, 10, 0.1, 0.5))

    def test_rejects_infinite_kl(self):
        for bound in self.BOUNDS:
            with pytest.raises(ValueError):
                bound(0.5, math.inf, 10, 0.1, 0.5)


class TestMcallester:
    def test_zero_empirical_risk_fast_rate(self):
        value = mcallester_bound(0.0, 1.5, 51, 0.05)
        assert value == pytest.approx(2.0 * (1.5 + math.log(51 / 0.05)) / 50, rel=1e-15)

    def test_hand_value(self):
        value = mcallester_bound(0.5, 0.0, 101, 0.1)
        expected = (
            0.5
            + math.sqrt(2 * 0.5 * math.log(1010.0) / 100)
            + 2 * math.log(1010.0) / 100
        )
        assert value == pytest.approx(expected, rel=1e-15)

    def test_tends_to_empirical_risk(self):
        values = [mcallester_bound(0.3, 2.0, n, 0.1) for n in (10, 100, 10_000, 10**7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.3, abs=1e-2)

    def test_rejects_emp_risk_outside_unit_interval(self):
        with pytest.raises(ValueError):
            mcallester_bound(1.2, 0.0, 10, 0.1)
        with pytest.raises(ValueError):
            mcallester_bound(-0.1, 0.0, 10, 0.1)


class TestCrmFixedTau:
    def test_minimum_empirical_risk_kills_sqrt_term(self):
        tau, n, delta, kl = 0.2, 101, 0.1, 2.0
        pen = (kl + math.log(n / delta)) / (tau * (n - 1))
        assert crm_bound_fixed_tau(1.0 - 1.0 / tau, kl, n, delta, tau) == pytest.approx(
            1.0 - 1.0 / tau + 2.0 * pen, rel=1e-15
        )

    def test_hand_value(self):
        pen = math.log(1001 / 0.05) / (0.1 * 1000)
        expected = 0.5 + math.sqrt(2 * (0.5 - 1 + 10) * pen) + 2 * pen
        assert crm_bound_fixed_tau(0.5, 0.0, 1001, 0.05, 0.1) == pytest.approx(
            expected, rel=1e-15)


class TestCrmAllTau:
    def test_hand_value(self):
        pen = math.log(2 * 1001 / (0.05 * 0.1)) / (0.1 * 1000)
        expected = 0.5 + math.sqrt(4 * (0.5 - 1 + 20) * pen) + 4 * pen
        assert crm_bound_all_tau(0.5, 0.0, 1001, 0.05, 0.1) == pytest.approx(
            expected, rel=1e-15)

    def test_dominates_fixed_tau(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            tau = float(rng.uniform(0.01, 0.9))
            n = int(rng.integers(2, 5000))
            delta = float(rng.uniform(0.01, 0.5))
            kl = float(rng.uniform(0, 50))
            inputs = (float(rng.uniform(1 - 1 / tau, 1)), kl, n, delta, tau)
            assert crm_bound_all_tau(*inputs) >= crm_bound_fixed_tau(*inputs)

    def test_delta_halving_adds_ln2_inside_log(self):
        base = (0.5, 1.0, 500, 0.2, 0.1)
        halved = (0.5, 1.0, 500, 0.1, 0.1)
        scale = 0.1 * 499
        log_base = math.log(2 * 500 / (0.2 * 0.1))
        expected = 0.5 + math.sqrt(
            4 * (0.5 - 1 + 20) * (1.0 + log_base + math.log(2)) / scale
        ) + 4 * (1.0 + log_base + math.log(2)) / scale
        assert crm_bound_all_tau(*halved) == pytest.approx(expected, rel=1e-14)
        assert crm_bound_all_tau(*halved) > crm_bound_all_tau(*base)


class TestGaussianKl:
    def test_exact_zero_at_identical_distributions(self):
        pol = zero_policy(3, 2)
        assert gaussian_kl_exact(pol, 1.0, pol, 1.0, 6) == 0.0

    def test_exact_variance_only_term(self):
        pol = zero_policy(1, 2)
        value = gaussian_kl_exact(pol, 1.0, pol, math.e, 2)
        assert value == pytest.approx(1.0 / math.e, rel=1e-14)

    def test_exact_mean_shift_only(self):
        a, b = policy_with_distance_sq(2.0)
        assert gaussian_kl_exact(a, 1.0, b, 1.0, 2) == pytest.approx(1.0, rel=1e-15)

    def test_log_ratio_past_the_float_range(self):
        # sigma0/sigma overflows at sigma = 1e-320; the terms once read inf.
        # The true value is (k·d/2)·(ln 1 − ln 1e-320) = 4420.96 at k·d = 12.
        pol = zero_policy(4, 3)
        expected = 6.0 * -math.log(1e-320)
        params = StabilityParams(2.0, 0.01, 100, 0.1)
        slack = (2.0 / 0.01) ** 2 * 2.0 * math.log(40.0) / 100
        assert gaussian_kl_exact(pol, 1e-320, pol, 1.0, 12) == pytest.approx(
            expected - 6.0, rel=1e-14)
        assert gaussian_kl_bound(pol, 1e-320, pol, 1.0, 12) == pytest.approx(
            expected, rel=1e-14)
        assert data_dep_c_term(pol, 1e-320, pol, 1.0, params, 12) == \
            pytest.approx(slack + 2.0 * expected, rel=1e-12)
        assert round(expected, 2) == 4420.96

    def test_bound_variance_only_term(self):
        pol = zero_policy(2, 2)
        assert gaussian_kl_bound(pol, 1.0, pol, math.e, 4) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_bound_dominates_exact_with_equality_at_matched_variance(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            k, d = 2, 3
            a = SoftmaxPolicy(rng.normal(size=(k, d)), np.zeros(k))
            b = SoftmaxPolicy(rng.normal(size=(k, d)), np.zeros(k))
            sigma0 = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.05, sigma0))
            exact = gaussian_kl_exact(a, sigma, b, sigma0, k * d)
            bound = gaussian_kl_bound(a, sigma, b, sigma0, k * d)
            assert bound >= exact
            at_eq = gaussian_kl_bound(a, sigma0, b, sigma0, k * d)
            assert at_eq == gaussian_kl_exact(a, sigma0, b, sigma0, k * d)

    def test_bound_rejects_sigma_above_prior(self):
        pol = zero_policy(2, 2)
        with pytest.raises(ValueError):
            gaussian_kl_bound(pol, 2.0, pol, 1.0, 4)

    def test_nonpositive_variances_rejected(self):
        pol = zero_policy(2, 2)
        with pytest.raises(ValueError):
            gaussian_kl_exact(pol, 0.0, pol, 1.0, 4)
        with pytest.raises(ValueError):
            gaussian_kl_exact(pol, 1.0, pol, -1.0, 4)


class TestCTerm:
    # The c_term column of a certificate is twice the KL bound.
    def test_zero_at_identical(self, logs400):
        pol = zero_policy(logs400.d, logs400.k)
        spec = MixedLogitSpec(pol, 1.0, pol, 1.0)
        for row in certificates(spec, logs400, 0.05, 0.1, 1.0):
            assert row.kl_exact == row.kl_bound == row.c_term == 0.0

    def test_exactly_twice_kl_bound(self, logs400):
        rng = np.random.default_rng(32)
        k, d = logs400.k, logs400.d
        for _ in range(20):
            a = SoftmaxPolicy(rng.normal(size=(k, d)), np.zeros(k))
            b = SoftmaxPolicy(rng.normal(size=(k, d)), np.zeros(k))
            sigma0 = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.05, sigma0))
            spec = MixedLogitSpec(a, sigma, b, sigma0)
            for row in certificates(spec, logs400, 0.05, 0.1, 1.0):
                assert row.c_term == pytest.approx(
                    2.0 * gaussian_kl_bound(a, sigma, b, sigma0, k * d),
                    rel=1e-15,
                )

    def test_distance_only(self):
        a, b = policy_with_distance_sq(1.0)
        assert 2.0 * gaussian_kl_bound(a, 1.0, b, 1.0, 2) == pytest.approx(
            1.0, rel=1e-15
        )


class TestMixedLogitRiskBound:
    def test_zero_complexity_case(self, logs400):
        pol = zero_policy(logs400.d, logs400.k)
        spec = MixedLogitSpec(pol, 1.0, pol, 1.0)
        tau, delta = 0.05, 0.1
        n = logs400.n
        emp = mean_param_risk(pol, 1.0, logs400.feature_norm_bound, logs400, tau)
        pen = (0.0 + 2 * math.log(n / delta)) / (tau * (n - 1))
        expected = emp + math.sqrt((emp - 1 + 1 / tau) * pen) + pen
        assert mixed_logit_risk_bound(spec, logs400, tau, delta) == pytest.approx(
            expected, rel=1e-12
        )

    def test_strictly_increasing_in_prior_distance(self, logs400):
        prior = zero_policy(logs400.d, logs400.k)
        values = []
        for shift in (0.0, 0.5, 1.0, 2.0):
            W = np.zeros((logs400.k, logs400.d))
            W[0, 0] = shift
            spec = MixedLogitSpec(SoftmaxPolicy(W, np.zeros(logs400.k)), 0.5,
                                  prior, 1.0)
            values.append(mixed_logit_risk_bound(spec, logs400, 0.05, 0.1))
        assert all(a < b for a, b in zip(values, values[1:]))


class TestStability:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            StabilityParams(0.0, 0.1, 10, 0.1)
        with pytest.raises(ValueError):
            StabilityParams(1.0, -0.1, 10, 0.1)

    @pytest.mark.parametrize("args, message", [
        ((math.inf, 0.1, 10, 0.1), "lipschitz must be positive and finite, got inf"),
        ((1.0, math.inf, 10, 0.1), "lam must be positive and finite, got inf"),
        ((1.0, math.nan, 10, 0.1), "lam must be positive and finite, got nan"),
    ], ids=["lipschitz-inf", "lam-inf", "lam-nan"])
    def test_rejects_nonfinite_and_names_it(self, args, message):
        # An infinite lam once made the stability slack 0.
        with pytest.raises(ValueError, match=f"^{message}$"):
            StabilityParams(*args)


class TestDataDepCTerm:
    def test_matched_anchor_leaves_only_slack(self):
        pol = zero_policy(3, 2)
        params = StabilityParams(lipschitz=2.0, lam=0.01, n=400, delta=0.1)
        value = data_dep_c_term(pol, 1.0, pol, 1.0, params, 6)
        slack = (2.0 / 0.01) * math.sqrt(2 * math.log(4 / 0.1) / 400)
        assert value == pytest.approx(slack * slack / 1.0, rel=1e-14)

    def test_dominates_plain_c_term(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            a = SoftmaxPolicy(rng.normal(size=(2, 3)), np.zeros(2))
            w = SoftmaxPolicy(rng.normal(size=(2, 3)), np.zeros(2))
            sigma0 = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.05, sigma0))
            params = StabilityParams(2.0, 0.05, 100, 0.1)
            assert data_dep_c_term(a, sigma, w, sigma0, params, 6) >= (
                2.0 * gaussian_kl_bound(a, sigma, w, sigma0, 6)
            )

    def test_vanishing_lipschitz_recovers_c_term(self):
        a, w = policy_with_distance_sq(3.0, k=2, d=2)
        params = StabilityParams(1e-12, 0.05, 100, 0.1)
        value = data_dep_c_term(a, 0.5, w, 1.0, params, 4)
        assert value == pytest.approx(
            2.0 * gaussian_kl_bound(a, 0.5, w, 1.0, 4), rel=1e-6
        )

    def test_large_n_recovers_c_term(self):
        a, w = policy_with_distance_sq(3.0, k=2, d=2)
        params = StabilityParams(2.0, 0.05, 10**14, 0.1)
        value = data_dep_c_term(a, 0.5, w, 1.0, params, 4)
        assert value == pytest.approx(
            2.0 * gaussian_kl_bound(a, 0.5, w, 1.0, 4), rel=1e-5
        )


class TestDataDepRiskBound:
    def test_strictly_above_known_prior_bound(self, logs400):
        rng = np.random.default_rng(34)
        theta = SoftmaxPolicy(0.3 * rng.normal(size=(logs400.k, logs400.d)),
                              np.zeros(logs400.k))
        w_hat = SoftmaxPolicy(0.3 * rng.normal(size=(logs400.k, logs400.d)),
                              np.zeros(logs400.k))
        spec = MixedLogitSpec(theta, 0.5, w_hat, 1.0)
        params = StabilityParams(2 * logs400.feature_norm_bound, 0.01,
                                 logs400.n, 0.1)
        learned = data_dep_risk_bound(spec, logs400, 0.05, 0.1, params)
        known = mixed_logit_risk_bound(spec, logs400, 0.05, 0.1)
        assert learned > known


def certificate_cases(logs, delta=0.1):
    """Twelve (spec, ŵ, stability) triples on ``logs``: random posterior
    means, priors and learned priors at assorted variances, with the
    stability parameters at the log's n and confidence ``delta``."""
    rng = np.random.default_rng(37)
    k, d = logs.k, logs.d
    cases = []
    for scale in (0.0, 0.1, 0.5, 2.0):
        for sigma0 in (0.3, 1.0, 5.0):
            theta, prior, w_hat = (
                SoftmaxPolicy(scale * rng.normal(size=(k, d)), rng.normal(size=k))
                for _ in range(3)
            )
            sigma = float(rng.uniform(1e-4, sigma0))
            stability = StabilityParams(float(rng.uniform(0.5, 4.0)),
                                        float(rng.uniform(1e-3, 1.0)),
                                        logs.n, delta)
            cases.append((MixedLogitSpec(theta, sigma, prior, sigma0),
                          w_hat, stability))
    return cases


class TestCertificates:
    def test_fields_are_the_bound_table_columns(self, logs400):
        pol = zero_policy(logs400.d, logs400.k)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        params = StabilityParams(2.0, 0.01, logs400.n, 0.1)
        rows = certificates(spec, logs400, 0.05, 0.1, 1.0, learned=(pol, params))
        assert [f.name for f in dataclasses.fields(Certificate)] == [
            "bound", "n", "tau", "delta", "sigma", "sigma0", "emp_risk",
            "kl_exact", "kl_bound", "c_term", "value",
        ]
        assert [r.bound for r in rows] == ["fixed_tau", "all_tau", "learned_prior"]
        assert [r.bound for r in certificates(spec, logs400, 0.05, 0.1, 1.0)] \
            == ["fixed_tau", "all_tau"]
        # Every row reports the caller's delta, the learned one included.
        assert {(r.n, r.tau, r.delta, r.sigma, r.sigma0) for r in rows} == {
            (logs400.n, 0.05, 0.1, 0.5, 1.0)
        }

    @pytest.mark.parametrize("tau,delta", [(0.05, 0.1), (0.3, 0.01)])
    def test_library_bounds_read_their_rows(self, logs400, tau, delta):
        B = logs400.feature_norm_bound
        for spec, w_hat, stability in certificate_cases(logs400, delta):
            fixed = certificates(spec, logs400, tau, delta, B)[0]
            assert fixed.bound == "fixed_tau"
            assert mixed_logit_risk_bound(spec, logs400, tau, delta).hex() == \
                fixed.value.hex()
            learned_spec = MixedLogitSpec(spec.mean, spec.variance, w_hat,
                                          spec.prior_variance)
            learned = certificates(learned_spec, logs400, tau, delta, B,
                                   learned=(w_hat, stability))[-1]
            assert learned.bound == "learned_prior"
            assert data_dep_risk_bound(learned_spec, logs400, tau, delta,
                                       stability).hex() == learned.value.hex()

    def test_emp_risk_is_mean_param_risk_at_the_given_B(self, logs400):
        # A B above the log's own bound once left the printed emp_risk at
        # the log's B, so the printed value was not its bound.
        spec, w_hat, stability = certificate_cases(logs400)[5]
        B = 3.0 * logs400.feature_norm_bound
        expected = mean_param_risk(spec.mean, spec.variance, B, logs400, 0.05)
        assert expected != mean_param_risk(
            spec.mean, spec.variance, logs400.feature_norm_bound, logs400, 0.05
        )
        rows = certificates(spec, logs400, 0.05, 0.1, B,
                            learned=(w_hat, stability))
        assert [r.emp_risk for r in rows] == [expected] * 3
        bounds = (crm_bound_fixed_tau, crm_bound_all_tau, crm_bound_fixed_tau)
        for row, bound, delta in zip(rows, bounds, (0.1, 0.1, 0.05)):
            assert row.value == bound(expected, 0.5 * row.c_term, logs400.n,
                                      delta, 0.05)

    def test_complexity_terms_are_against_their_own_priors(self, logs400):
        spec, w_hat, stability = certificate_cases(logs400)[7]
        d_eff = logs400.k * logs400.d
        args = (spec.mean, spec.variance, spec.prior_mean, spec.prior_variance,
                d_eff)
        fixed, all_tau, learned = certificates(
            spec, logs400, 0.05, 0.1, 1.0, learned=(w_hat, stability)
        )
        for row in (fixed, all_tau, learned):
            assert row.kl_exact == gaussian_kl_exact(*args)
            assert row.kl_bound == gaussian_kl_bound(*args)
        assert fixed.c_term == all_tau.c_term == 2.0 * gaussian_kl_bound(*args)
        assert learned.c_term == data_dep_c_term(
            spec.mean, spec.variance, w_hat, spec.prior_variance, stability,
            d_eff,
        )

    def test_all_tau_row_at_smallest_subnormal_tau(self, logs400):
        # delta·tau underflows to 0 there; the bound is inf, not an error.
        pol = zero_policy(logs400.d, logs400.k)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        rows = certificates(spec, logs400, 5e-324, 0.1, 1.0)
        assert [r.value for r in rows] == [math.inf, math.inf]


class TestBoundMonotonicity:
    def test_monotone_in_kl_emp_and_n(self):
        rng = np.random.default_rng(36)
        for bound in (crm_bound_fixed_tau, crm_bound_all_tau):
            for _ in range(20):
                tau = float(rng.uniform(0.05, 0.5))
                delta = float(rng.uniform(0.05, 0.3))
                kl = float(rng.uniform(0, 10))
                emp = float(rng.uniform(1 - 1 / tau, 1))
                n = int(rng.integers(10, 2000))
                base = bound(emp, kl, n, delta, tau)
                more_kl = bound(emp, kl + 1, n, delta, tau)
                more_emp = bound(min(emp + 0.1, 1.0), kl, n, delta, tau)
                more_n = bound(emp, kl, 2 * n, delta, tau)
                assert more_kl >= base
                assert more_emp >= base
                assert more_n <= base

    def test_sigma_above_prior_message_states_requirement(self, logs400):
        pol = zero_policy(logs400.d, logs400.k)
        with pytest.raises(ValueError) as err:
            gaussian_kl_bound(pol, 2.0, pol, 1.0, 4)
        assert "must not exceed" in str(err.value)
