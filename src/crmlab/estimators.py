"""Risk and reward estimators over logged bandit feedback.

Risk is one minus expected reward throughout, so every estimator here is of
the form ``1 - (weighted reward average)``.  Importance weighting corrects
for the logging policy's sampling bias; truncation trades variance for bias.
Two truncation styles coexist deliberately and are never mixed:

* denominator truncation ``max(p_i, tau)`` for the plain risk estimators
  that feed the PAC-Bayes bound machinery;
* ratio truncation ``min(pi/p_i, 1/tau)`` only inside the variance statistic
  used by the variance-regularized objective.

Summations are compensated (exact compensated summation via ``math.fsum``):
record counts reach 1e5+ and per-record terms span orders of magnitude, so
naive accumulation would lose digits.  Terms are always reduced in record
order, keeping results independent of any caller-side parallelism.
"""

from __future__ import annotations

import math

import numpy as np

from .datasets import LabeledDataset, LoggedDataset
from .policies import SoftmaxPolicy, action_prob_matrix

__all__ = [
    "ips_risk",
    "truncated_ips_risk",
    "mean_param_risk",
    "poem_sample_variance",
    "expected_reward_stochastic",
    "argmax_accuracy",
]


def _compensated_mean(terms: np.ndarray, ddof: int = 0) -> float:
    """Exactly rounded sum of ``terms`` divided by ``len(terms) - ddof``.

    ``math.fsum`` raises OverflowError when finite terms sum past the float
    maximum.  The terms are then summed scaled by a power of two that keeps
    every partial sum in range, and the quotient is scaled back: the same
    value the unscaled sum would give with an unbounded exponent, and ±inf
    only when the quotient itself is out of range.  Scaling is exact except
    for terms below ``4·len(terms)`` times the smallest normal float.
    """
    count = terms.shape[0] - ddof
    try:
        return math.fsum(terms.tolist()) / count
    except OverflowError:
        shift = 2.0 ** (terms.shape[0].bit_length() + 1)
        return math.fsum((terms / shift).tolist()) / count * shift


def _poem_statistic(
    pi: np.ndarray, p: np.ndarray, r: np.ndarray, tau: float, moments: bool = True
) -> tuple:
    """Ratio-truncated weighted rewards and their sample moments.

    Returns ``(ratio, u, mean_u, var_u)``: ratio = pi/p,
    u = r·min(ratio, 1/tau), mean_u the compensated mean of u and var_u its
    two-pass sample variance with divisor n − 1.  ``moments=False`` skips
    both compensated sums and returns None for mean_u and var_u.
    """
    ratio = pi / p
    u = r * np.minimum(ratio, 1.0 / tau)
    if not moments:
        return ratio, u, None, None
    mean_u = _compensated_mean(u)
    centered = u - mean_u
    # Squares of u past sqrt(float max), reachable with a subnormal tau, are
    # inf: the variance is then inf, which its callers report as divergence.
    with np.errstate(over="ignore"):
        squares = centered * centered
    return ratio, u, mean_u, _compensated_mean(squares, ddof=1)


def _check_dims(
    policy: SoftmaxPolicy, data: LoggedDataset | LabeledDataset
) -> None:
    if policy.d != data.d:
        raise ValueError(f"policy has d={policy.d} features, data has d={data.d}")


def _matched_action_probs(policy: SoftmaxPolicy, data: LoggedDataset) -> np.ndarray:
    _check_dims(policy, data)
    P = action_prob_matrix(policy, data.features)
    return P[np.arange(data.n), data.actions]


def _check_tau(tau: float) -> float:
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return float(tau)


def ips_risk(policy: SoftmaxPolicy, data: LoggedDataset) -> float:
    """Inverse-propensity-scored risk estimate.

    Parameters
    ----------
    policy : SoftmaxPolicy
        Target policy whose risk is estimated.
    data : LoggedDataset
        Logged feedback gathered under a full-support logging policy.

    Returns
    -------
    float
        ``1 - (1/n) sum_i r_i * pi(a_i|x_i) / p_i``.  Unbiased for the true
        risk of ``policy`` because the propensities are the logging
        policy's exact action probabilities.
    """
    pi = _matched_action_probs(policy, data)
    return 1.0 - _compensated_mean(data.rewards * pi / data.propensities)


def truncated_ips_risk(policy: SoftmaxPolicy, data: LoggedDataset, tau: float) -> float:
    """Truncated variant of :func:`ips_risk`.

    Propensities are floored at ``tau`` in the denominator:
    ``1 - (1/n) sum_i r_i * pi(a_i|x_i) / max(p_i, tau)``.

    The result always lies in ``[1 - 1/tau, 1]`` for rewards in [0, 1] and
    is never below the untruncated estimate.

    Parameters
    ----------
    policy : SoftmaxPolicy
    data : LoggedDataset
    tau : float
        Truncation level in (0, 1).
    """
    tau = _check_tau(tau)
    pi = _matched_action_probs(policy, data)
    denom = np.maximum(data.propensities, tau)
    return 1.0 - _compensated_mean(data.rewards * pi / denom)


def mean_param_risk(
    mean: SoftmaxPolicy, sigma: float, B: float, data: LoggedDataset, tau: float
) -> float:
    """Risk estimate for a Gaussian-weight policy from its mean parameters.

    Scales the truncated importance-weighted reward of the mean policy by
    ``exp(-sigma * B^2 / 2)``, the analytic lower bound on how much
    Gaussian weight noise of variance ``sigma`` can shrink any softmax
    probability when context norms are at most ``B``:

    ``1 - (exp(-sigma B^2 / 2)/n) sum_i r_i pi_mean(a_i|x_i)/max(p_i, tau)``.

    At ``sigma = 0`` this equals :func:`truncated_ips_risk` exactly; it is
    nondecreasing in ``sigma`` and tends to 1.

    Parameters
    ----------
    mean : SoftmaxPolicy
        Mean of the Gaussian weight distribution.
    sigma : float
        Isotropic weight variance, >= 0.
    B : float
        Context norm bound; must be at least the dataset's stored bound.
    data : LoggedDataset
    tau : float
        Truncation level in (0, 1).
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if B < data.feature_norm_bound * (1.0 - 1e-12):
        raise ValueError(
            f"B={B} is below the dataset feature norm bound "
            f"{data.feature_norm_bound}"
        )
    tau = _check_tau(tau)
    pi = _matched_action_probs(mean, data)
    denom = np.maximum(data.propensities, tau)
    shrink = math.exp(-0.5 * sigma * B * B)
    return 1.0 - shrink * _compensated_mean(data.rewards * pi / denom)


def poem_sample_variance(policy: SoftmaxPolicy, data: LoggedDataset, tau: float) -> float:
    """Unbiased sample variance of the ratio-truncated weighted rewards.

    The per-record statistic is ``u_i = r_i * min(pi(a_i|x_i)/p_i, 1/tau)``
    (ratio truncation, not denominator truncation); the variance uses
    divisor ``n - 1`` and a two-pass computation, so it is immune to the
    catastrophic cancellation of single-pass formulas.

    Parameters
    ----------
    policy : SoftmaxPolicy
    data : LoggedDataset
        Must contain at least two records.
    tau : float
        Ratio cap is ``1/tau``.
    """
    tau = _check_tau(tau)
    if data.n < 2:
        raise ValueError("sample variance needs at least two records")
    pi = _matched_action_probs(policy, data)
    return _poem_statistic(pi, data.propensities, data.rewards, tau)[3]


def expected_reward_stochastic(policy: SoftmaxPolicy, test: LabeledDataset) -> float:
    """Mean probability the policy samples the true label on labeled data.

    Parameters
    ----------
    policy : SoftmaxPolicy
    test : LabeledDataset

    Returns
    -------
    float
        ``(1/n) sum_i pi(label_i | x_i)``, the expected reward of the
        stochastic policy under 0/1 match rewards.
    """
    _check_dims(policy, test)
    P = action_prob_matrix(policy, test.features)
    return _compensated_mean(P[np.arange(len(test)), test.labels])


def argmax_accuracy(policy: SoftmaxPolicy, test: LabeledDataset) -> float:
    """Fraction of labeled examples where the argmax action is the label.

    Ties in the logits resolve to the lowest action index.
    """
    _check_dims(policy, test)
    logits = test.features @ policy.weights.T + policy.biases
    return float(np.mean(np.argmax(logits, axis=1) == test.labels))
