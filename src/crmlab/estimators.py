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
from .policies import (
    SoftmaxPolicy, _check_dims, _check_level, _check_nonnegative,
    _check_norm_bound, _matched_probs, _softmax_rows,
)

__all__ = [
    "ips_risk",
    "truncated_ips_risk",
    "mean_param_risk",
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


def _reward_mean(
    policy: SoftmaxPolicy, data: LoggedDataset, denom: np.ndarray
) -> float:
    """Compensated mean of r_i·π(a_i|x_i)/denom_i: the importance-weighted
    reward of every risk estimator here."""
    return _compensated_mean(data.rewards * _matched_probs(policy, data) / denom)


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
    return 1.0 - _reward_mean(policy, data, data.propensities)


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
    _check_level("tau", tau)
    return 1.0 - _reward_mean(policy, data, np.maximum(data.propensities, tau))


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
        Isotropic weight variance, finite and >= 0.
    B : float
        Context norm bound; finite and at least the dataset's stored bound.
    data : LoggedDataset
    tau : float
        Truncation level in (0, 1).
    """
    _check_nonnegative("sigma", sigma)
    _check_norm_bound("B", B, data.feature_norm_bound)
    _check_level("tau", tau)
    shrink = math.exp(-0.5 * sigma * B * B)
    return 1.0 - shrink * _reward_mean(mean, data, np.maximum(data.propensities, tau))


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
    P = _softmax_rows(test.features @ policy.weights.T + policy.biases)
    return _compensated_mean(P[np.arange(len(test)), test.labels])


def argmax_accuracy(policy: SoftmaxPolicy, test: LabeledDataset) -> float:
    """Fraction of labeled examples where the argmax action is the label.

    Ties in the logits resolve to the lowest action index.
    """
    _check_dims(policy, test)
    logits = test.features @ policy.weights.T + policy.biases
    return float(np.mean(np.argmax(logits, axis=1) == test.labels))
