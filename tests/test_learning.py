import errno
import json
import logging
import math
import multiprocessing
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from crmlab import _jobs, learning
from crmlab import (
    LPR_FAMILY,
    OBJECTIVES,
    DivergenceError,
    LoggedDataset,
    MixedLogitSpec,
    SoftmaxPolicy,
    TrainConfig,
    argmax_accuracy,
    blob_task,
    certificates,
    closed_form_sigma,
    cross_validate,
    derive_seed,
    exact_risk,
    expected_reward_stochastic,
    ips_risk,
    learn_logging_policy,
    mean_param_risk,
    objective_gradient,
    objective_value,
    param_distance_sq,
    poem_build_surrogate,
    sample_labeled,
    save_train_report,
    solve_logging_nll_exact,
    simulate_logs,
    supervised_policy,
    task_logs,
    temper,
    train,
    truncated_ips_risk,
    two_step_learned_lpr,
    zero_policy,
    LabeledDataset,
)
from crmlab.policies import _matched_probs
from conftest import (
    fd_gradient,
    floor_propensity_logged,
    golden_section_min,
    one_record,
    random_logged,
    rel_gradient_error,
    smooth_logged,
    surrogate_gradient,
)


def cfg(objective, **kw):
    return TrainConfig(objective=objective, **kw)


class TestTrainConfig:
    def test_protocol_defaults(self):
        c = cfg("ips_l2")
        assert learning._LEARNING_RATE == 0.1
        assert learning._ADAGRAD_SMOOTHING == 1.0
        assert learning._BATCH_SIZE == 100
        assert c.tau == 0.01
        assert c.epochs == 500

    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError):
            cfg("reinforce")

    @pytest.mark.parametrize(
        "bad",
        [
            {"lam": -1.0},
            {"lambda_l2": -0.5},
            {"tau": 0.0},
            {"tau": 1.0},
            {"sigma0": 0.0},
            {"epochs": -1},
            {"sigma0": float("inf")},
            {"sigma0": float("nan")},
            {"tau": float("nan")},
            {"lam": float("nan")},
            {"lambda_l2": float("nan")},
        ],
    )
    def test_rejects_bad_fields(self, bad):
        with pytest.raises(ValueError):
            cfg("ips_l2", **bad)

    def test_zero_epochs_allowed(self):
        assert cfg("ips_l2", epochs=0).epochs == 0


class TestObjectiveValue:
    def test_zero_rewards_zero_lambda(self, half_prob_policy):
        data = one_record(0.5, 0.0)
        prior = zero_policy(1, 2)
        assert objective_value(cfg("ips_lpr", lam=0.0), half_prob_policy,
                               prior, data) == 0.0
        assert objective_value(cfg("ips_l2", lam=0.0), half_prob_policy,
                               None, data) == 0.0

    def test_wnll_penalty_vanishes_at_prior(self):
        rng = np.random.default_rng(40)
        data = smooth_logged(rng, 20, 3, 2)
        pol = SoftmaxPolicy(rng.normal(size=(2, 3)), np.zeros(2))
        with_penalty = objective_value(cfg("wnll_lpr", lam=7.0), pol, pol, data)
        without = objective_value(cfg("wnll_lpr", lam=0.0), pol, pol, data)
        assert with_penalty == without

    def test_single_record_hand_values(self, half_prob_policy):
        data = one_record(0.5, 1.0)
        prior = zero_policy(1, 2)
        assert objective_value(cfg("ips_lpr", lam=0.0), half_prob_policy,
                               prior, data) == -1.0
        wnll = objective_value(cfg("wnll_lpr", lam=0.0), half_prob_policy,
                               prior, data)
        assert wnll == pytest.approx(2.0 * math.log(2.0), rel=1e-15)

    def test_poem_two_point_hand_value(self, half_prob_policy):
        X = np.zeros((2, 1))
        data = LoggedDataset(X, np.array([0, 0]), np.array([0.5, 0.5]),
                             np.array([0.0, 1.0]), 2, 0.0)
        # u = (0, 1): mean 1/2, sample variance 1/2, sqrt(S/n) = 1/2.
        value = objective_value(cfg("poem", lam=1.0), half_prob_policy, None, data)
        assert value == pytest.approx(0.0, abs=1e-15)

    def test_poem_l2_adds_ridge(self):
        rng = np.random.default_rng(41)
        data = smooth_logged(rng, 20, 3, 2)
        pol = SoftmaxPolicy(rng.normal(size=(2, 3)), rng.normal(size=2))
        base = objective_value(cfg("poem", lam=0.7), pol, None, data)
        ridge = objective_value(cfg("poem_l2", lam=0.7, lambda_l2=0.3), pol,
                                None, data)
        assert ridge == pytest.approx(
            base + 0.3 * float(np.sum(pol.weights**2)), rel=1e-12
        )

    def test_logging_nll_uniform_policy(self):
        rng = np.random.default_rng(42)
        data = smooth_logged(rng, 30, 3, 4)
        value = objective_value(cfg("logging_nll", lam=0.0),
                                zero_policy(3, 4), None, data)
        assert value == pytest.approx(math.log(4.0), rel=1e-12)

    def test_prior_contract(self, half_prob_policy):
        data = one_record(0.5, 1.0)
        with pytest.raises(ValueError):
            objective_value(cfg("ips_lpr"), half_prob_policy, None, data)
        with pytest.raises(ValueError):
            objective_value(cfg("ips_l2"), half_prob_policy,
                            zero_policy(1, 2), data)

    def test_poem_needs_two_records(self, half_prob_policy):
        with pytest.raises(ValueError):
            objective_value(cfg("poem"), half_prob_policy, None,
                            one_record(0.5, 1.0))

    def test_lpr_with_zero_prior_equals_l2(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            data = smooth_logged(rng, 25, 3, 2)
            pol = SoftmaxPolicy(rng.normal(size=(2, 3)), rng.normal(size=2))
            zero_prior = zero_policy(3, 2)
            lam = float(rng.uniform(0, 2))
            c_lpr = cfg("ips_lpr", lam=lam, tau=0.15)
            c_l2 = cfg("ips_l2", lam=lam, tau=0.15)
            assert objective_value(c_lpr, pol, zero_prior, data) == \
                objective_value(c_l2, pol, None, data)
            gW1, gb1 = objective_gradient(c_lpr, pol, zero_prior, data)
            gW2, gb2 = objective_gradient(c_l2, pol, None, data)
            np.testing.assert_array_equal(gW1, gW2)
            np.testing.assert_array_equal(gb1, gb2)


class TestObjectiveGradient:
    def test_zero_reward_batch_zero_gradient(self):
        rng = np.random.default_rng(44)
        X = rng.normal(size=(10, 3))
        data = LoggedDataset(X, rng.integers(0, 2, size=10),
                             np.full(10, 0.5), np.zeros(10), 2,
                             float(np.linalg.norm(X, axis=1).max()))
        pol = SoftmaxPolicy(rng.normal(size=(2, 3)), rng.normal(size=2))
        prior = zero_policy(3, 2)
        for objective in ("ips_lpr", "wnll_lpr", "ips_l2", "poem", "poem_l2"):
            p = prior if objective.endswith("lpr") else None
            gW, gb = objective_gradient(cfg(objective, lam=0.0), pol, p, data)
            assert np.all(gW == 0.0), objective
            assert np.all(gb == 0.0), objective

    def test_penalty_only_gradient(self):
        rng = np.random.default_rng(45)
        X = rng.normal(size=(5, 3))
        data = LoggedDataset(X, np.zeros(5, dtype=int), np.full(5, 0.5),
                             np.zeros(5), 2,
                             float(np.linalg.norm(X, axis=1).max()))
        pol = SoftmaxPolicy(rng.normal(size=(2, 3)), rng.normal(size=2))
        gW, gb = objective_gradient(cfg("ips_l2", lam=1.0), pol, None, data)
        np.testing.assert_allclose(gW, 2.0 * pol.weights, rtol=1e-15)
        assert np.all(gb == 0.0)

    @pytest.mark.parametrize(
        "objective", ["ips_lpr", "wnll_lpr", "ips_l2", "poem", "poem_l2",
                      "logging_nll"]
    )
    def test_matches_finite_differences(self, objective):
        # Light check; the acceptance suite runs 100 points per variant.
        rng = np.random.default_rng(46)
        config = cfg(objective, lam=0.37, lambda_l2=0.21, tau=0.15)
        for _ in range(10):
            data = smooth_logged(rng, 15, 3, 3)
            pol = SoftmaxPolicy(0.5 * rng.normal(size=(3, 3)),
                                0.5 * rng.normal(size=3))
            prior = (SoftmaxPolicy(0.5 * rng.normal(size=(3, 3)),
                                   np.zeros(3))
                     if objective.endswith("lpr") else None)
            analytic = objective_gradient(config, pol, prior, data)
            numeric = fd_gradient(config, pol, prior, data)
            assert rel_gradient_error(analytic, numeric) <= 1e-4

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_returns_arrays_no_later_call_writes(self, objective):
        # Training reuses one workspace for every step; the public gradient
        # must hand out arrays that the next call leaves alone.
        rng = np.random.default_rng(51)
        data = random_logged(rng, 30, 3, 3)
        config = cfg(objective, lam=0.1, lambda_l2=0.1, tau=0.1)
        prior = zero_policy(3, 3) if objective in LPR_FAMILY else None
        policies = [SoftmaxPolicy(rng.normal(size=(3, 3)), rng.normal(size=3))
                    for _ in range(2)]
        first = objective_gradient(config, policies[0], prior, data)
        kept = [g.copy() for g in first]
        second = objective_gradient(config, policies[1], prior, data)
        assert not np.array_equal(first[0], second[0])
        for g, expected in zip(first, kept):
            np.testing.assert_array_equal(g, expected)


@pytest.fixture(scope="module")
def anchor_data():
    rng = np.random.default_rng(47)
    data = smooth_logged(rng, 40, 3, 3)
    anchor = SoftmaxPolicy(0.4 * rng.normal(size=(3, 3)),
                           0.4 * rng.normal(size=3))
    return anchor, data


class TestDimensionCheck:
    def test_every_entry_point_names_both_dimensions(self, task):
        # A policy with more actions than the log once got a finite risk and
        # certificate, one with fewer an IndexError, and a wrong-d policy
        # failed inside numpy's matmul in poem_build_surrogate.  The log, the
        # labeled data and the task all have k=3, d=5.
        data = random_logged(np.random.default_rng(50), 30, 5, 3)
        labeled = sample_labeled(blob_task(3, 5, noise=0.3, seed=1), 30, 2)
        surrogate = poem_build_surrogate(zero_policy(5, 3), data, 0.1, 0.5)
        B = data.feature_norm_bound
        for k, d in [(3, 4), (4, 5), (2, 5)]:
            policy = zero_policy(d, k)
            spec = MixedLogitSpec(policy, 0.01, policy, 1.0)
            calls = [
                lambda: ips_risk(policy, data),
                lambda: truncated_ips_risk(policy, data, 0.1),
                lambda: mean_param_risk(policy, 0.01, B, data, 0.1),
                lambda: certificates(spec, data, 0.1, 0.05, B),
                lambda: expected_reward_stochastic(policy, labeled),
                lambda: argmax_accuracy(policy, labeled),
                lambda: objective_value(cfg("ips_l2"), policy, None, data),
                lambda: objective_gradient(cfg("ips_l2"), policy, None, data),
                lambda: poem_build_surrogate(policy, data, 0.1, 0.5),
                lambda: surrogate.value(policy, data),
                lambda: simulate_logs(policy, labeled, seed=0),
                lambda: task_logs(task, policy, 10, seed=0),
                lambda: exact_risk(task, policy),
            ]
            for call in calls:
                with pytest.raises(ValueError, match=rf"^policy has k={k}, d={d}, "
                                                     rf"expected k=3, d=5$"):
                    call()

    def test_wrong_shape_prior_names_both_shapes(self):
        # objective_value and objective_gradient once failed inside numpy's
        # broadcasting instead.
        data = random_logged(np.random.default_rng(51), 30, 5, 4)
        policy, prior = zero_policy(5, 4), zero_policy(3, 4)
        config = cfg("ips_lpr", epochs=1)
        calls = [
            lambda: objective_value(config, policy, prior, data),
            lambda: objective_gradient(config, policy, prior, data),
            lambda: train(config, data, prior=prior),
            lambda: cross_validate(data, [1e-3], 2, config, prior=prior),
        ]
        for call in calls:
            with pytest.raises(ValueError,
                               match=r"^prior has k=4, d=3, expected k=4, d=5$"):
                call()


class TestPoemSurrogate:
    def test_zero_lambda_reduces_to_plain_ips(self, anchor_data):
        anchor, data = anchor_data
        s = poem_build_surrogate(anchor, data, 0.15, 0.0)
        assert np.all(s.alpha == 0.0)
        assert np.all(s.beta == -1.0)
        exact = objective_value(cfg("poem", lam=0.0, tau=0.15), anchor,
                                None, data)
        assert s.value(anchor, data) == pytest.approx(exact, rel=1e-14)

    def test_touches_exact_objective_at_anchor(self, anchor_data):
        anchor, data = anchor_data
        lam = 0.8
        s = poem_build_surrogate(anchor, data, 0.15, lam)
        exact = objective_value(cfg("poem", lam=lam, tau=0.15), anchor,
                                None, data)
        assert abs(s.value(anchor, data) - exact) <= 1e-8

    def test_dominates_nearby_policies(self, anchor_data):
        anchor, data = anchor_data
        rng = np.random.default_rng(48)
        lam = 0.8
        s = poem_build_surrogate(anchor, data, 0.15, lam)
        config = cfg("poem", lam=lam, tau=0.15)
        for _ in range(50):
            other = SoftmaxPolicy(
                anchor.weights + 0.3 * rng.normal(size=anchor.weights.shape),
                anchor.biases + 0.3 * rng.normal(size=anchor.biases.shape),
            )
            assert s.value(other, data) >= objective_value(
                config, other, None, data
            ) - 1e-12

    def test_gradient_matches_finite_differences(self, anchor_data):
        anchor, data = anchor_data
        rng = np.random.default_rng(49)
        s = poem_build_surrogate(anchor, data, 0.15, 0.8)
        for _ in range(5):
            pol = SoftmaxPolicy(
                anchor.weights + 0.2 * rng.normal(size=anchor.weights.shape),
                anchor.biases,
            )
            gW, gb = surrogate_gradient(s, pol, data)
            h = 1e-5
            fdW = np.zeros_like(gW)
            for idx in np.ndindex(pol.weights.shape):
                Wp, Wm = pol.weights.copy(), pol.weights.copy()
                Wp[idx] += h
                Wm[idx] -= h
                fdW[idx] = (
                    s.value(SoftmaxPolicy(Wp, pol.biases), data)
                    - s.value(SoftmaxPolicy(Wm, pol.biases), data)
                ) / (2 * h)
            err = np.linalg.norm(fdW - gW) / max(np.linalg.norm(fdW), 1e-8)
            assert err <= 1e-4

    @staticmethod
    def exact_poem_gradient(policy, data, tau, lam):
        """Closed-form gradient of mean(-u) + lam·sqrt(S/n) over (W, b):
        dF/du_i = −1/n + lam·(u_i − ū)/(sqrt(S/n)·n·(n−1)), times
        du_i/dz_i = r_i·pi_i/p_i below the ratio cap (0 above it), taken
        back through the softmax as e_{a_i} − P_i."""
        n = data.n
        logits = data.features @ policy.weights.T + policy.biases
        P = np.exp(logits - logits.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        ratio = P[np.arange(n), data.actions] / data.propensities
        u = data.rewards * np.minimum(ratio, 1.0 / tau)
        S = np.sum((u - u.mean()) ** 2) / (n - 1)
        dF_du = -1.0 / n + lam * (u - u.mean()) / (math.sqrt(S / n) * n * (n - 1))
        du_dz = np.where(ratio >= 1.0 / tau, 0.0, data.rewards * ratio)
        G = -P
        G[np.arange(n), data.actions] += 1.0
        G *= (dF_du * du_dz)[:, None]
        return G.T @ data.features, G.sum(axis=0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 3.0])
    @pytest.mark.parametrize("tau", [0.05, 0.3])
    def test_gradient_equals_exact_gradient_at_anchor(self, lam, tau):
        # Propensities reach 0.05, so at tau=0.3 some records hit the ratio
        # cap and both gradients must zero them alike.
        rng = np.random.default_rng(50)
        data = random_logged(rng, 60, 3, 3)
        anchor = SoftmaxPolicy(rng.normal(size=(3, 3)), rng.normal(size=3))
        s = poem_build_surrogate(anchor, data, tau, lam)
        exact = self.exact_poem_gradient(anchor, data, tau, lam)
        assert rel_gradient_error(surrogate_gradient(s, anchor, data),
                                  exact) <= 1e-12

    def test_gradient_returns_arrays_no_later_call_writes(self, anchor_data):
        # Training steps share one workspace; a step leaves nothing in it
        # that the next one reads.
        anchor, data = anchor_data
        s = poem_build_surrogate(anchor, data, 0.15, 0.8)
        other = SoftmaxPolicy(anchor.weights + 0.5, anchor.biases - 0.5)
        shared = learning._StepWorkspace(data.n, anchor.k, anchor.d)
        first = surrogate_gradient(s, anchor, data, shared)
        kept = [g.copy() for g in first]
        second = surrogate_gradient(s, other, data, shared)
        assert not np.array_equal(first[0], second[0])
        for g, expected, fresh in zip(first, kept,
                                      surrogate_gradient(s, anchor, data)):
            np.testing.assert_array_equal(g, expected)
            np.testing.assert_array_equal(g, fresh)

    def test_zero_variance_anchor_degenerates_without_logging(self, caplog):
        # The surrogate only marks the anchor; train logs it for its epoch.
        X = np.zeros((3, 1))
        data = LoggedDataset(X, np.zeros(3, dtype=int), np.full(3, 0.5),
                             np.zeros(3), 2, 0.0)
        with caplog.at_level(logging.DEBUG):
            s = poem_build_surrogate(zero_policy(1, 2), data, 0.1, 1.0)
        assert s.degenerate
        assert caplog.records == []

    def test_rejects_foreign_dataset(self, anchor_data):
        anchor, data = anchor_data
        s = poem_build_surrogate(anchor, data, 0.15, 0.5)
        with pytest.raises(ValueError):
            s.value(anchor, data.subset(range(10)))


class TestClosedFormSigma:
    def make_unit_mean_data(self, n, B=1.0, reward=1.0):
        # Propensity 1, so with reward 1 the mean clipped reward term is 1.
        # The zero contexts take any bound B >= 0, and k·d = 2.
        X = np.zeros((n, 1))
        return LoggedDataset(X, np.zeros(n, dtype=int), np.ones(n),
                             np.full(n, reward), 2, B)

    def test_interior_hand_value(self):
        data = self.make_unit_mean_data(11)
        assert closed_form_sigma(data, 0.1, 1e9) == 4.0

    def test_boundary_clamp(self):
        data = self.make_unit_mean_data(11)
        assert closed_form_sigma(data, 0.1, 1e-6) == 1e-6

    @pytest.mark.filterwarnings("error")
    def test_subnormal_tau_keeps_sigma_positive(self):
        # r/max(p, tau) overflows for every record, but tau·M = 1 exactly,
        # so sigma* = 2·9/(1·199·1) with k·d = 3·3.
        data = floor_propensity_logged(4e-309)
        sigma = closed_form_sigma(data, 4e-309, 1.0)
        assert sigma == 18.0 / 199.0
        assert 0.0 < sigma < math.inf

    def test_zero_rewards_return_prior_variance(self):
        data = self.make_unit_mean_data(5, reward=0.0)
        assert closed_form_sigma(data, 0.1, 0.7) == 0.7

    def test_zero_feature_bound_returns_prior_variance(self):
        # B = 0 (every feature zero) makes the sub-objective's data term
        # vanish, so its minimizer on (0, sigma0] is sigma0, rewards or not.
        data = self.make_unit_mean_data(11, B=0.0)
        assert closed_form_sigma(data, 0.1, 0.7) == 0.7
        assert closed_form_sigma(data, 4e-309, 0.7) == 0.7

    def test_matches_golden_section(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            data = random_logged(rng, 50, 3, 3, min_propensity=0.02)
            tau = float(rng.uniform(0.02, 0.3))
            B = data.feature_norm_bound
            d_eff = 9
            sigma0 = float(rng.uniform(0.5, 4.0))
            M = float(np.mean(data.rewards / np.maximum(data.propensities, tau)))
            scale = d_eff / (tau * (data.n - 1))

            def sub_objective(log_sigma):
                sigma = math.exp(log_sigma)
                return 0.5 * sigma * B * B * M - scale * math.log(sigma)

            best = math.exp(
                golden_section_min(sub_objective, math.log(1e-12),
                                   math.log(sigma0))
            )
            best = min(best, sigma0)
            got = closed_form_sigma(data, tau, sigma0)
            assert got == pytest.approx(best, rel=1e-6)

    def test_validation(self):
        data = self.make_unit_mean_data(5)
        with pytest.raises(ValueError):
            closed_form_sigma(data, 0.0, 1.0)
        for sigma0 in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="sigma0 must be positive"):
                closed_form_sigma(data, 0.1, sigma0)
        with pytest.raises(ValueError):
            closed_form_sigma(one_record(0.5, 1.0), 0.1, 1.0)
        # A negative or NaN B cannot reach it: the dataset rejects both.
        for B in (-1.0, math.nan):
            with pytest.raises(ValueError, match="feature_norm_bound"):
                self.make_unit_mean_data(5, B=B)


def count_objective_calls(monkeypatch):
    """Record every objective_value call that training makes from now on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return objective_value(*args, **kwargs)

    monkeypatch.setattr(learning, "objective_value", counted)
    return calls


def equal_u_logged(propensity=0.5):
    """Logs where the zero policy gives every record the same POEM u.

    Rewards and propensities are constant and k=2, so at the zero policy the
    sample variance of u is exactly zero and the surrogate drops the variance
    penalty, while the varied contexts still move the weights.  At the
    propensity 1e-6 and tau 1e-7 the u values spread so far after the first
    epoch that ``poem`` at lam=1e308 has an infinite epoch-end objective.
    """
    rng = np.random.default_rng(58)
    X = rng.normal(size=(120, 3))
    return LoggedDataset(X, rng.integers(0, 2, size=120),
                         np.full(120, propensity), np.ones(120), 2)


class TestTrain:
    def test_zero_epochs_returns_zero_policy(self, logs400):
        report = train(cfg("ips_l2", epochs=0), logs400)
        assert np.all(report.final_policy.weights == 0.0)
        assert np.all(report.final_policy.biases == 0.0)
        assert report.objective_trace == []
        assert report.sigma_star == closed_form_sigma(logs400, 0.01, 1.0)

    def test_bit_deterministic(self, logs400):
        a = train(cfg("ips_l2", lam=1e-3, epochs=20, seed=7), logs400)
        b = train(cfg("ips_l2", lam=1e-3, epochs=20, seed=7), logs400)
        np.testing.assert_array_equal(a.final_policy.weights,
                                      b.final_policy.weights)
        np.testing.assert_array_equal(a.final_policy.biases,
                                      b.final_policy.biases)
        assert a.objective_trace == b.objective_trace

    def test_seed_changes_result(self, logs400):
        a = train(cfg("ips_l2", lam=1e-3, epochs=20, seed=7), logs400)
        b = train(cfg("ips_l2", lam=1e-3, epochs=20, seed=8), logs400)
        assert not np.array_equal(a.final_policy.weights,
                                  b.final_policy.weights)

    def test_overregularized_lpr_pins_to_prior(self, logs400, logging_policy):
        report = train(cfg("ips_lpr", lam=1e3, epochs=200, seed=0), logs400,
                       prior=logging_policy)
        dist = math.sqrt(param_distance_sq(report.final_policy, logging_policy))
        assert dist <= 1e-2

    def test_divergence_abort_carries_location(self, logs400, logging_policy):
        with pytest.raises(DivergenceError) as err:
            train(cfg("ips_lpr", lam=1e308, epochs=2, seed=0), logs400,
                  prior=logging_policy)
        assert err.value.epoch == 0
        assert err.value.batch == 0

    @pytest.mark.parametrize("train_biases", [True, False])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_trace_free_fit_matches_traced(self, logs400, logging_policy,
                                           monkeypatch, objective,
                                           train_biases):
        # 350 records: three full batches and a partial one of 50.
        data = logs400.subset(range(350))
        config = cfg(objective, lam=1e-3, lambda_l2=1e-3, epochs=4, seed=5,
                     train_biases=train_biases)
        prior = logging_policy if objective in LPR_FAMILY else None
        traced = train(config, data, prior)
        calls = count_objective_calls(monkeypatch)
        lean = train(config, data, prior, _trace=False)
        np.testing.assert_array_equal(lean.final_policy.weights,
                                      traced.final_policy.weights)
        np.testing.assert_array_equal(lean.final_policy.biases,
                                      traced.final_policy.biases)
        assert len(traced.objective_trace) == 4
        assert lean.objective_trace == []
        # The certificate holds on a well-conditioned run, so the trace-free
        # fit never evaluates the full objective.
        assert calls == []

    def test_failed_certificate_consults_objective(self, logs400,
                                                   monkeypatch):
        # A feature-norm bound of 1e300 is valid but makes the logit bound
        # S = ‖W‖·B + ‖b‖ useless once W moves, so every epoch falls back.
        wide = LoggedDataset(logs400.features, logs400.actions,
                             logs400.propensities, logs400.rewards,
                             logs400.k, 1e300)
        config = cfg("wnll_lpr", lam=1e-3, epochs=3, seed=4)
        prior = zero_policy(wide.d, wide.k)
        traced = train(config, wide, prior)
        calls = count_objective_calls(monkeypatch)
        lean = train(config, wide, prior, _trace=False)
        assert len(calls) == 3
        np.testing.assert_array_equal(lean.final_policy.weights,
                                      traced.final_policy.weights)

    def test_degenerate_epoch_logs_one_warning(self, caplog):
        # Only the zero-policy anchor of epoch 0 has zero variance.
        with caplog.at_level(logging.WARNING, logger="crmlab.learning"):
            train(cfg("poem", lam=1.0, epochs=3, seed=0), equal_u_logged())
        assert [rec.getMessage() for rec in caplog.records] == [
            "epoch 0: anchor sample variance is zero; dropping the variance "
            "penalty"
        ]

    def test_nonfinite_epoch_objective_raises_on_both_paths(self,
                                                            monkeypatch):
        data = equal_u_logged(1e-6)
        config = cfg("poem", lam=1e308, tau=1e-7, epochs=2, seed=0)
        with pytest.raises(DivergenceError) as traced:
            train(config, data)
        calls = count_objective_calls(monkeypatch)
        with pytest.raises(DivergenceError) as lean:
            train(config, data, _trace=False)
        assert len(calls) == 1
        for err in (traced, lean):
            assert err.value.epoch == 0
            assert err.value.batch is None
        assert str(lean.value) == str(traced.value)

    @pytest.mark.parametrize("objective", ["poem", "poem_l2"])
    def test_traced_poem_epoch_makes_one_full_data_pass(self, logs400,
                                                        monkeypatch,
                                                        objective):
        # The epoch-end evaluation computes the POEM moments at the
        # parameters where the next epoch builds its surrogate, and the
        # surrogate reuses them: E epochs make E + 1 full-data softmax
        # passes, the first surrogate's included.  A trace-free run whose
        # certificate holds evaluates nothing at its epoch ends: E passes.
        epochs = 4
        config = cfg(objective, lam=0.1, lambda_l2=1e-3, epochs=epochs,
                     seed=3)
        passes = []

        def counted(policy, data, *args):
            passes.append(data.n)
            return _matched_probs(policy, data, *args)

        monkeypatch.setattr(learning, "_matched_probs", counted)
        traced = train(config, logs400)
        assert passes == [logs400.n] * (epochs + 1)
        passes.clear()
        lean = train(config, logs400, _trace=False)
        assert passes == [logs400.n] * epochs
        np.testing.assert_array_equal(lean.final_policy.weights,
                                      traced.final_policy.weights)
        assert traced.objective_trace[-1] == objective_value(
            config, traced.final_policy, None, logs400)

    def test_overflowing_gradient_sum_does_not_abort(self):
        # Two equal records at propensity and tau 1e-300: every gradient
        # entry is finite, but two of them sum past the float maximum.
        x = np.array([[5e8, 5e8]] * 2)
        data = LoggedDataset(x, np.array([0, 0]), np.full(2, 1e-300),
                             np.ones(2), 2, float(np.linalg.norm(x[0])))
        config = cfg("ips_l2", tau=1e-300, epochs=2)
        gW, gb = objective_gradient(config, zero_policy(2, 2), None, data)
        assert np.isfinite(gW).all() and np.isfinite(gb).all()
        with np.errstate(over="ignore"):
            assert not math.isfinite(gW.sum() + gb.sum())
        report = train(config, data)
        assert all(math.isfinite(v) for v in report.objective_trace)
        lean = train(config, data, _trace=False)
        np.testing.assert_array_equal(lean.final_policy.weights,
                                      report.final_policy.weights)

    @pytest.mark.parametrize("objective", ["ips_l2", "poem", "poem_l2"])
    def test_record_terms_summing_past_float_max(self, objective):
        # Each record term is near 1/tau = 1e307; their sum overflows but
        # every mean is representable, so training ends in a result.
        config = cfg(objective, tau=1e-307, epochs=2)
        data = floor_propensity_logged()
        report = train(config, data)
        assert len(report.objective_trace) == 2
        assert all(math.isfinite(v) for v in report.objective_trace)
        lean = train(config, data, _trace=False)
        np.testing.assert_array_equal(lean.final_policy.weights,
                                      report.final_policy.weights)

    def test_trace_length_equals_epochs(self, logs400):
        report = train(cfg("poem", lam=0.5, epochs=7, seed=1), logs400)
        assert len(report.objective_trace) == 7
        assert all(math.isfinite(v) for v in report.objective_trace)

    def test_frozen_biases_stay_zero(self, logs400):
        report = train(cfg("ips_l2", lam=1e-3, epochs=10, seed=2,
                           train_biases=False), logs400)
        assert np.all(report.final_policy.biases == 0.0)

    def test_sigma_star_none_for_logging_objective(self, logs400):
        report = train(cfg("logging_nll", lam=0.01, epochs=3, seed=0), logs400)
        assert report.sigma_star is None

    def test_prior_contract(self, logs400, logging_policy):
        with pytest.raises(ValueError):
            train(cfg("ips_lpr", epochs=1), logs400)
        with pytest.raises(ValueError):
            train(cfg("poem", epochs=1), logs400, prior=logging_policy)


class TestObjectiveCertificate:
    """The trace-free fit's epoch-end check: True only where the exact
    objective is certainly finite, and False (never an error) otherwise."""

    @staticmethod
    def certified(config, data, W, b=None, W0=None):
        b = np.zeros(W.shape[0]) if b is None else b
        return learning._objective_certified(config, W, b, W0, data)

    @pytest.mark.parametrize("objective", OBJECTIVES)
    def test_holds_near_the_zero_policy(self, logs400, objective):
        W = np.full((logs400.k, logs400.d), 0.1)
        W0 = np.zeros_like(W) if objective in LPR_FAMILY else None
        assert self.certified(cfg(objective, lam=1.0), logs400, W, W0=W0)

    def test_fails_on_large_logits(self, logs400):
        W = np.full((logs400.k, logs400.d), 1e3)
        assert not self.certified(cfg("ips_l2"), logs400, W)
        b = np.full(logs400.k, 1e3)
        assert not self.certified(cfg("ips_l2"), logs400, 0.0 * W, b)

    def test_fails_on_nan_norm_bound(self, logs400):
        # Dataset validation rejects a NaN bound; a dataset that carries one
        # anyway (set past validation here) must not pass the certificate.
        with pytest.raises(ValueError, match="feature_norm_bound"):
            LoggedDataset(logs400.features, logs400.actions,
                          logs400.propensities, logs400.rewards,
                          logs400.k, float("nan"))
        data = logs400.subset(np.arange(logs400.n))
        object.__setattr__(data, "feature_norm_bound", float("nan"))
        assert not self.certified(cfg("ips_l2"), data,
                                  np.zeros((data.k, data.d)))

    def test_fails_on_unbounded_data_terms(self, logs400):
        W = np.zeros((logs400.k, logs400.d))
        assert not self.certified(cfg("ips_l2", tau=1e-200), logs400, W)

    def test_fails_on_unbounded_penalties(self, logs400):
        W = np.ones((logs400.k, logs400.d))
        assert not self.certified(cfg("ips_l2", lam=1e308), logs400, W)
        assert not self.certified(cfg("poem", lam=1e308), logs400, 0 * W)
        assert not self.certified(cfg("poem_l2", lambda_l2=1e308), logs400, W)


class TestLearnLoggingPolicy:
    def test_rejects_zero_lambda(self, logs400):
        with pytest.raises(ValueError):
            learn_logging_policy(logs400, lam=0.0)

    def test_biases_stay_zero(self, logs400):
        fit = learn_logging_policy(logs400, epochs=5, seed=0)
        assert np.all(fit.biases == 0.0)

    def test_recovers_uniform_policy(self):
        from crmlab import action_prob_matrix

        rng = np.random.default_rng(5)
        X = rng.normal(size=(3000, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        labeled = LabeledDataset(X, rng.integers(0, 3, size=3000), 3)
        logs = simulate_logs(zero_policy(4, 3), labeled, seed=104)
        fit = learn_logging_policy(logs, seed=3)
        fresh = rng.normal(size=(300, 4))
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        P = action_prob_matrix(fit, fresh)
        tv = 0.5 * np.abs(P - 1.0 / 3.0).sum(axis=1).max()
        assert tv <= 0.05

    def test_duplicate_records_leave_objective_invariant(self):
        rng = np.random.default_rng(52)
        data = smooth_logged(rng, 20, 3, 2)
        doubled = data.subset(list(range(20)) * 2)
        pol = SoftmaxPolicy(rng.normal(size=(2, 3)), np.zeros(2))
        config = cfg("logging_nll", lam=0.01)
        assert objective_value(config, pol, None, data) == \
            objective_value(config, pol, None, doubled)
        g1 = objective_gradient(config, pol, None, data)
        g2 = objective_gradient(config, pol, None, doubled)
        np.testing.assert_allclose(g1[0], g2[0], rtol=1e-12, atol=1e-15)

    def test_duplicate_records_leave_exact_fit_invariant(self):
        rng = np.random.default_rng(53)
        data = smooth_logged(rng, 30, 3, 2)
        doubled = data.subset(list(range(30)) * 2)
        a = solve_logging_nll_exact(data, 0.05)
        b = solve_logging_nll_exact(doubled, 0.05)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)


def peaked_blob_logs(k, d, n, seed):
    """Blob-task logs of a sharply tempered supervised policy: the fit has
    large weights, so Newton from zero takes many steps (at k=10 one of
    them backtracks) and ends below the objective's rounding resolution."""
    task = blob_task(k, d, noise=0.05, seed=seed)
    labeled = sample_labeled(task, n, seed)
    policy = temper(supervised_policy(labeled, epochs=20), 50.0)
    return simulate_logs(policy, labeled, seed)


class TestSolveLoggingNllExact:
    def test_gradient_certifies_optimality(self):
        from crmlab import action_prob_matrix

        cases = [
            (smooth_logged(np.random.default_rng(54), 60, 4, 3), 0.05),
            (peaked_blob_logs(10, 20, 2000, 1), 1e-4),
            (peaked_blob_logs(5, 8, 500, 4), 1e-6),
        ]
        for data, lam in cases:
            fit = solve_logging_nll_exact(data, lam)
            P = action_prob_matrix(fit, data.features)
            G = P.copy()
            G[np.arange(data.n), data.actions] -= 1.0
            grad = G.T @ data.features / data.n + 2 * lam * fit.weights
            assert float(np.linalg.norm(grad)) <= 2 * lam * 1e-8

    def test_beats_adagrad_fit(self):
        rng = np.random.default_rng(55)
        data = smooth_logged(rng, 80, 3, 3)
        lam = 0.05
        exact = solve_logging_nll_exact(data, lam)
        approx = learn_logging_policy(data, lam=lam, epochs=100, seed=0)
        config = cfg("logging_nll", lam=lam)
        assert objective_value(config, exact, None, data) <= \
            objective_value(config, approx, None, data) + 1e-12

    def test_rejects_nonpositive_lambda(self, logs400):
        with pytest.raises(ValueError):
            solve_logging_nll_exact(logs400, 0.0)

    def test_tiny_lambda_stops_at_the_rounding_floor(self):
        # At lam <= 1e-8 the target 2·lam·1e-10 sits below the rounding of
        # the computed gradient; the solver once ran out of steps there.
        task = blob_task(5, 8, noise=0.3, seed=4)
        labeled = sample_labeled(task, 400, 4)
        data = simulate_logs(temper(supervised_policy(labeled), 20.0), labeled, 4)
        floor = np.finfo(float).eps * data.feature_norm_bound
        for lam in (1e-8, 1e-10, 1e-12):
            fit = solve_logging_nll_exact(data, lam)
            grad = objective_gradient(cfg("logging_nll", lam=lam), fit, None,
                                      data)[0]
            assert float(np.linalg.norm(grad)) <= floor

    def test_step_cap_without_certificate_raises(self, logs400, monkeypatch):
        monkeypatch.setattr(learning, "_NEWTON_STEPS", 1)
        with pytest.raises(FloatingPointError):
            solve_logging_nll_exact(logs400, 0.01)

    def test_runs_without_scipy(self):
        # A None entry in sys.modules makes every scipy import fail.
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import crmlab\n"
            "rng = np.random.default_rng(0)\n"
            "X = rng.normal(size=(50, 3))\n"
            "data = crmlab.LoggedDataset(X, rng.integers(0, 2, size=50),\n"
            "    np.full(50, 0.5), np.zeros(50), 2,\n"
            "    float(np.linalg.norm(X, axis=1).max()))\n"
            "crmlab.solve_logging_nll_exact(data, 0.05)\n"
        )
        src = pathlib.Path(learning.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestTwoStepLearnedPrior:
    def test_rejects_non_lpr_objective(self, logs400):
        with pytest.raises(ValueError):
            two_step_learned_lpr(logs400, cfg("ips_l2", epochs=1))

    def test_deterministic(self, logs2000):
        a = two_step_learned_lpr(logs2000, cfg("ips_lpr", lam=1e-3,
                                               epochs=5, seed=11))
        b = two_step_learned_lpr(logs2000, cfg("ips_lpr", lam=1e-3,
                                               epochs=5, seed=11))
        np.testing.assert_array_equal(a.final_policy.weights,
                                      b.final_policy.weights)

    def test_large_lambda_collapses_to_learned_prior(self, logs2000):
        config = cfg("ips_lpr", lam=1e3, epochs=150, seed=11)
        report = two_step_learned_lpr(logs2000, config)
        learned = learn_logging_policy(
            logs2000, seed=derive_seed(11, "learn-logging")
        )
        dist = math.sqrt(param_distance_sq(report.final_policy, learned))
        assert dist <= 1e-2


def use_cv_workers(monkeypatch, workers):
    """Run cross_validate's jobs on at most ``workers`` processes."""
    monkeypatch.setattr(_jobs, "worker_count",
                        lambda jobs: min(jobs, workers))


def hex_table(table):
    """A CV table with every float spelled out bit for bit."""
    return [(row.lam.hex(), [s.hex() for s in row.fold_scores],
             row.mean_score.hex()) for row in table]


class TestCrossValidate:
    def test_single_element_grid(self, logs400, logging_policy):
        best, table = cross_validate(
            logs400, [1e-4], 3, cfg("ips_lpr", epochs=10, seed=99),
            prior=logging_policy,
        )
        assert best == 1e-4
        assert len(table) == 1
        assert len(table[0].fold_scores) == 3

    def test_divergent_lambda_never_selected(self, logs400, logging_policy):
        best, table = cross_validate(
            logs400, [1e-3, 1e308], 3, cfg("ips_lpr", epochs=10, seed=99),
            prior=logging_policy,
        )
        assert best == 1e-3
        assert table[1].mean_score == float("-inf")
        assert math.isfinite(table[0].mean_score)

    def test_every_value_diverged_raises(self, task, logging_policy):
        logs = task_logs(task, logging_policy, 60, 1)
        with pytest.raises(FloatingPointError,
                           match="diverged for every grid value"):
            cross_validate(logs, [1e308], 2, cfg("ips_l2", epochs=2))

    def test_epoch_end_divergence_scores_minus_inf(self, monkeypatch):
        # The monkeypatched counter sees only calls made in this process.
        use_cv_workers(monkeypatch, 1)
        calls = count_objective_calls(monkeypatch)
        best, table = cross_validate(
            equal_u_logged(1e-6), [1e-3, 1e308], 2,
            cfg("poem", tau=1e-7, epochs=2, seed=5),
        )
        assert best == 1e-3
        assert math.isfinite(table[0].mean_score)
        assert table[1].fold_scores == (float("-inf"),) * 2
        # Only the lam=1e308 jobs fail the certificate, once each at epoch 0.
        assert len(calls) == 2

    def test_record_terms_summing_past_float_max(self):
        # The small lambda's jobs overflow only inside the record sum and
        # score a finite value; the 1e308 lambda's jobs diverge (2·lam
        # overflows in the penalty gradient) and score -inf.  Neither aborts
        # the grid.
        best, table = cross_validate(
            floor_propensity_logged(), [1e-3, 1e308], 2,
            cfg("ips_l2", tau=1e-307, epochs=2),
        )
        assert best == 1e-3
        assert all(math.isfinite(s) for s in table[0].fold_scores)
        assert table[1].fold_scores == (float("-inf"),) * 2

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -1.0],
                             ids=["inf", "nan", "negative"])
    def test_bad_grid_value_raises_before_any_job(self, monkeypatch, logs400,
                                                  bad):
        use_cv_workers(monkeypatch, 2)
        jobs, forks = [], []
        monkeypatch.setattr(learning, "_cv_job",
                            lambda *args: jobs.append(args) or 0.0)

        def no_fork():
            forks.append(os.getpid())
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError) as err:
            cross_validate(logs400, [1e-3, bad], 2, cfg("ips_l2"))
        assert str(err.value) == f"lam must be nonnegative and finite, got {bad}"
        assert jobs == [] and forks == []
        assert multiprocessing.active_children() == []

    def test_ties_break_to_smaller_lambda(self, logs400, logging_policy):
        # A zero-epoch budget makes every grid value train to the same zero
        # policy, so all scores tie.
        best, table = cross_validate(
            logs400, [1e-3, 1e-8, 1e-5], 3, cfg("ips_lpr", epochs=0, seed=99),
            prior=logging_policy,
        )
        assert best == 1e-8
        scores = {row.mean_score for row in table}
        assert len(scores) == 1

    def test_fold_scores_are_holdout_reward_estimates(self, logs400):
        best, table = cross_validate(
            logs400, [1e-3], 4, cfg("ips_l2", epochs=5, seed=7),
        )
        from crmlab import kfold_split

        folds = kfold_split(logs400.n, 4, derive_seed(7, "cv-folds"))
        row = table[0]
        for fold, (train_idx, holdout_idx) in enumerate(folds):
            job_cfg = cfg(
                "ips_l2", lam=1e-3, epochs=5,
                seed=derive_seed(7, f"cv:lam={1e-3!r}:fold={fold}"),
            )
            report = train(job_cfg, logs400.subset(train_idx))
            holdout = logs400.subset(holdout_idx)
            expected = 1.0 - truncated_ips_risk(report.final_policy, holdout,
                                                0.01)
            assert row.fold_scores[fold] == expected

    def test_jobs_train_the_configured_epochs(self, logs400):
        # Each job trains config.epochs epochs, 101 here, with no cap.
        _, table = cross_validate(
            logs400, [1e-3], 2, cfg("ips_l2", epochs=101, seed=7),
        )
        from crmlab import kfold_split

        train_idx, holdout_idx = kfold_split(logs400.n, 2, derive_seed(7, "cv-folds"))[0]
        job_cfg = cfg("ips_l2", lam=1e-3, epochs=101,
                      seed=derive_seed(7, f"cv:lam={1e-3!r}:fold=0"))
        report = train(job_cfg, logs400.subset(train_idx))
        holdout = logs400.subset(holdout_idx)
        assert table[0].fold_scores[0] == 1.0 - truncated_ips_risk(
            report.final_policy, holdout, 0.01)

    def test_table_is_bit_identical_at_any_worker_count(self, monkeypatch,
                                                        logs400,
                                                        logging_policy):
        # 1e308 diverges, so every worker count also merges -inf scores.
        tables = []
        for workers in (1, 2, 3):
            use_cv_workers(monkeypatch, workers)
            best, table = cross_validate(
                logs400, [1e-3, 1e308, 1e-5], 3,
                cfg("ips_lpr", epochs=10, seed=99), prior=logging_policy,
            )
            tables.append((best.hex(), hex_table(table)))
        assert table[1].fold_scores == (float("-inf"),) * 3
        assert tables[1] == tables[0] and tables[2] == tables[0]

    def test_jobs_run_in_forked_workers(self, monkeypatch, logs400):
        # Each job scores its worker's process id.
        monkeypatch.setattr(learning, "_cv_job",
                            lambda *args: float(os.getpid()))
        grid = [1e-3, 1e-2, 1e-1]
        for workers in (1, 2):
            use_cv_workers(monkeypatch, workers)
            _, table = cross_validate(logs400, grid, 2, cfg("ips_l2"))
            pids = {s for row in table for s in row.fold_scores}
            if workers == 1:
                assert pids == {float(os.getpid())}
            else:
                assert float(os.getpid()) not in pids and len(pids) <= 2

    def test_platform_without_fork_runs_jobs_in_process(self, monkeypatch,
                                                        logs400):
        monkeypatch.setattr(learning, "_cv_job",
                            lambda *args: float(os.getpid()))
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        use_cv_workers(monkeypatch, 2)
        _, table = cross_validate(logs400, [1e-3, 1e-2], 2, cfg("ips_l2"))
        assert {s for row in table for s in row.fold_scores} == {
            float(os.getpid())}

    def test_workers_are_capped_by_jobs_and_usable_cpus(self):
        assert _jobs.worker_count(1) == 1
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        assert _jobs.worker_count(10**6) == cpus

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_value_diverged_raises_at_any_worker_count(
            self, monkeypatch, task, logging_policy, workers):
        use_cv_workers(monkeypatch, workers)
        logs = task_logs(task, logging_policy, 60, 1)
        with pytest.raises(FloatingPointError,
                           match="diverged for every grid value"):
            cross_validate(logs, [1e308, sys.float_info.max], 2,
                           cfg("ips_l2", epochs=2))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_job_error_reaches_caller_with_its_type(self, monkeypatch,
                                                    logs400, workers):
        use_cv_workers(monkeypatch, workers)
        real_train = learning.train

        def failing_train(config, data, prior=None, **kwargs):
            if config.lam == 1e-5:
                raise ZeroDivisionError(f"job at lam={config.lam!r}")
            return real_train(config, data, prior, **kwargs)

        monkeypatch.setattr(learning, "train", failing_train)
        with pytest.raises(ZeroDivisionError, match="^job at lam=1e-05$"):
            cross_validate(logs400, [1e-3, 1e-5], 2, cfg("ips_l2", epochs=2))

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_daemon_worker_runs_jobs_in_process(self, monkeypatch, logs400):
        # A daemonic process may not start children, so a cross_validate
        # inside a multiprocessing pool worker must take the serial path.
        use_cv_workers(monkeypatch, 2)
        args = (logs400, [1e-3, 1e308], 2, cfg("ips_l2", epochs=3, seed=3))
        best, table = cross_validate(*args)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            daemon_best, daemon_table = pool.apply(cross_validate, args)
        assert daemon_best == best
        assert hex_table(daemon_table) == hex_table(table)

    def test_validation(self, logs400, logging_policy):
        with pytest.raises(ValueError):
            cross_validate(logs400, [], 3, cfg("ips_l2"))
        with pytest.raises(ValueError):
            cross_validate(logs400, [1e-3], 1, cfg("ips_l2"))
        with pytest.raises(ValueError):
            cross_validate(logs400, [1e-3], 3, cfg("logging_nll"))
        with pytest.raises(ValueError):
            cross_validate(logs400, [1e-3], 3, cfg("ips_lpr"))
        with pytest.raises(ValueError):
            cross_validate(logs400, [1e-3], 3, cfg("ips_l2"),
                           prior=logging_policy)


class TestWnllConvexity:
    def test_segment_inequality(self):
        rng = np.random.default_rng(57)
        data = smooth_logged(rng, 30, 3, 3)
        prior = SoftmaxPolicy(rng.normal(size=(3, 3)), np.zeros(3))
        config = cfg("wnll_lpr", lam=0.4, tau=0.15)

        def f(W):
            return objective_value(config, SoftmaxPolicy(W, np.zeros(3)),
                                   prior, data)

        for _ in range(200):
            W1 = rng.normal(size=(3, 3))
            W2 = rng.normal(size=(3, 3))
            f1, f2 = f(W1), f(W2)
            for t in (0.25, 0.5, 0.75):
                lhs = f(t * W1 + (1 - t) * W2)
                assert lhs <= t * f1 + (1 - t) * f2 + 1e-9


class TestReportSerialization:
    def test_train_report_round_trip(self, tmp_path, logs400):
        config = cfg("ips_l2", lam=1e-3, epochs=4, seed=3)
        report = train(config, logs400)
        path = tmp_path / "report.json"
        save_train_report(path, report, config)
        doc = json.loads(path.read_text())
        assert doc["objective"] == "ips_l2"
        assert doc["epochs"] == 4
        assert doc["objective_trace"] == report.objective_trace
        assert doc["final_objective"] == report.objective_trace[-1]
        assert doc["sigma_star"] == report.sigma_star
