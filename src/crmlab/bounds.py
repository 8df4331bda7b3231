"""Closed-form risk bounds and the complexity terms feeding them.

Every bound is a pure scalar function, so property tests and the ``bound``
CLI subcommand share one code path.  ``d_effective`` always counts weight
parameters only (k·d); biases carry no Gaussian spread and are excluded
from each squared distance here, consistent with the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .datasets import LoggedDataset
from .estimators import _check_tau, mean_param_risk
from .policies import MixedLogitSpec, SoftmaxPolicy, param_distance_sq

__all__ = [
    "BoundInputs",
    "StabilityParams",
    "mcallester_bound",
    "crm_bound_fixed_tau",
    "crm_bound_all_tau",
    "gaussian_kl_exact",
    "gaussian_kl_bound",
    "c_term",
    "mixed_logit_risk_bound",
    "data_dep_c_term",
    "data_dep_risk_bound",
]


@dataclass(frozen=True)
class BoundInputs:
    """Everything a truncated-risk bound consumes.

    ``kl_term`` is KL(Q‖P) or any upper bound on it; ``emp_risk`` is the
    truncated empirical risk (or its upper bound), which can never fall
    below ``1 - 1/tau``.
    """

    n: int
    delta: float
    tau: float
    kl_term: float
    emp_risk: float

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        _check_tau(self.tau)
        if not (math.isfinite(self.kl_term) and self.kl_term >= 0.0):
            raise ValueError("kl_term must be finite and nonnegative")
        floor = 1.0 - 1.0 / self.tau
        # Allow float round-off at the attainable minimum.
        if self.emp_risk < floor - 1e-9 * max(1.0, 1.0 / self.tau):
            raise ValueError(f"emp_risk {self.emp_risk} below 1 - 1/tau = {floor}")


@dataclass(frozen=True)
class StabilityParams:
    """Lipschitz constant, regularization strength, sample size, confidence."""

    lipschitz: float
    lam: float
    n: int
    delta: float

    def __post_init__(self) -> None:
        if not (self.lipschitz > 0.0 and self.lam > 0.0 and self.n >= 1):
            raise ValueError("lipschitz, lam, and n must be positive")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")


def mcallester_bound(emp_risk: float, kl: float, n: int, delta: float) -> float:
    """PAC-Bayes bound for [0, 1] losses:
    emp + sqrt(2·emp·(kl + ln(n/δ))/(n−1)) + 2(kl + ln(n/δ))/(n−1).
    """
    if not (0.0 <= emp_risk <= 1.0):
        raise ValueError(f"emp_risk must lie in [0, 1], got {emp_risk}")
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (math.isfinite(kl) and kl >= 0.0):
        raise ValueError("kl must be finite and nonnegative")
    pen = (kl + math.log(n / delta)) / (n - 1)
    return emp_risk + math.sqrt(2.0 * emp_risk * pen) + 2.0 * pen


def crm_bound_fixed_tau(inputs: BoundInputs) -> float:
    """Risk bound for the truncated estimator at one fixed truncation level:
    emp + sqrt(2·(emp−1+1/τ)·pen) + 2·pen,  pen = (KL + ln(n/δ))/(τ(n−1)).
    """
    pen = (inputs.kl_term + math.log(inputs.n / inputs.delta)) / (
        inputs.tau * (inputs.n - 1)
    )
    # emp - 1 + 1/tau is >= 0 up to round-off; clamp so sqrt stays real.
    gap = max(inputs.emp_risk - 1.0 + 1.0 / inputs.tau, 0.0)
    return inputs.emp_risk + math.sqrt(2.0 * gap * pen) + 2.0 * pen


def crm_bound_all_tau(inputs: BoundInputs) -> float:
    """Risk bound valid simultaneously over all truncation levels >= τ
    (covering construction; looser constants than the fixed-τ bound):
    emp + sqrt(4·(emp−1+2/τ)·pen) + 4·pen,  pen = (KL + ln(2n/(δτ)))/(τ(n−1)).
    """
    pen = (inputs.kl_term + math.log(2.0 * inputs.n / (inputs.delta * inputs.tau))) / (
        inputs.tau * (inputs.n - 1)
    )
    gap = max(inputs.emp_risk - 1.0 + 2.0 / inputs.tau, 0.0)
    return inputs.emp_risk + math.sqrt(4.0 * gap * pen) + 4.0 * pen


def _check_variances(sigma: float, sigma0: float, *, ordered: bool) -> None:
    if not (sigma > 0.0 and sigma0 > 0.0):
        raise ValueError("variances must be positive")
    if ordered and sigma > sigma0:
        raise ValueError(
            f"sigma={sigma} must not exceed sigma0={sigma0}; the KL bound "
            "requires the posterior variance to be at most the prior variance"
        )


def gaussian_kl_exact(
    theta_hat: SoftmaxPolicy,
    sigma: float,
    theta0: SoftmaxPolicy,
    sigma0: float,
    d_effective: int,
) -> float:
    """KL between isotropic Gaussians N(θ̂, σI) and N(θ0, σ0·I) in d_effective
    dimensions: ‖θ̂−θ0‖²/(2σ0) + (d/2)(ln(σ0/σ) + σ/σ0 − 1).  Weights only.
    """
    _check_variances(sigma, sigma0, ordered=False)
    dist_sq = param_distance_sq(theta_hat, theta0)
    return dist_sq / (2.0 * sigma0) + 0.5 * d_effective * (
        math.log(sigma0 / sigma) + sigma / sigma0 - 1.0
    )


def gaussian_kl_bound(
    theta_hat: SoftmaxPolicy,
    sigma: float,
    theta0: SoftmaxPolicy,
    sigma0: float,
    d_effective: int,
) -> float:
    """Upper bound on the Gaussian KL for σ ≤ σ0, dropping the nonpositive
    σ/σ0 − 1 term: ‖θ̂−θ0‖²/(2σ0) + (d/2)·ln(σ0/σ).
    """
    _check_variances(sigma, sigma0, ordered=True)
    dist_sq = param_distance_sq(theta_hat, theta0)
    return dist_sq / (2.0 * sigma0) + 0.5 * d_effective * math.log(sigma0 / sigma)


def c_term(
    theta_hat: SoftmaxPolicy,
    sigma: float,
    theta0: SoftmaxPolicy,
    sigma0: float,
    d_effective: int,
) -> float:
    """Complexity term ‖θ̂−θ0‖²/σ0 + d·ln(σ0/σ); exactly twice
    :func:`gaussian_kl_bound`.
    """
    return 2.0 * gaussian_kl_bound(theta_hat, sigma, theta0, sigma0, d_effective)


def mixed_logit_risk_bound(
    spec: MixedLogitSpec, data: LoggedDataset, tau: float, delta: float
) -> float:
    """Computable risk bound for a Gaussian-weight policy:
    ρ̂ + sqrt((ρ̂−1+1/τ)·(C + 2ln(n/δ))/(τ(n−1))) + (C + 2ln(n/δ))/(τ(n−1))
    with ρ̂ the mean-parameter risk estimate and C the complexity term
    against the stored prior.  Delegates to :func:`crm_bound_fixed_tau`
    with kl_term = C/2, to which it is algebraically identical.
    """
    d_eff = spec.mean.k * spec.mean.d
    C = c_term(spec.mean, spec.variance, spec.prior_mean, spec.prior_variance, d_eff)
    emp = mean_param_risk(
        spec.mean, spec.variance, data.feature_norm_bound, data, tau
    )
    return crm_bound_fixed_tau(
        BoundInputs(n=data.n, delta=delta, tau=tau, kl_term=0.5 * C, emp_risk=emp)
    )


def data_dep_c_term(
    theta_hat: SoftmaxPolicy,
    sigma: float,
    w_hat: SoftmaxPolicy,
    sigma0: float,
    params: StabilityParams,
    d_effective: int,
) -> float:
    """Complexity term against a data-dependent prior centered at the
    regularized fit ŵ:  (‖θ̂−ŵ‖ + (L/λ)·sqrt(2·ln(4/δ)/n))²/σ0 + d·ln(σ0/σ).

    The additive slack covers how far ŵ can sit from its expectation, so
    the term dominates :func:`c_term` evaluated at ŵ.
    """
    _check_variances(sigma, sigma0, ordered=True)
    dist = math.sqrt(param_distance_sq(theta_hat, w_hat))
    slack = (params.lipschitz / params.lam) * math.sqrt(
        2.0 * math.log(4.0 / params.delta) / params.n
    )
    return (dist + slack) ** 2 / sigma0 + d_effective * math.log(sigma0 / sigma)


def data_dep_risk_bound(
    spec: MixedLogitSpec,
    data: LoggedDataset,
    tau: float,
    delta: float,
    stability: StabilityParams,
) -> float:
    """Risk bound whose prior is the learned regularized fit (spec.prior_mean
    plays the role of ŵ).  Same shape as :func:`mixed_logit_risk_bound` with
    the complexity term Ĉ of :func:`data_dep_c_term` and log terms in
    2n/δ; realized through the fixed-τ code path at delta/2.
    """
    d_eff = spec.mean.k * spec.mean.d
    C_hat = data_dep_c_term(
        spec.mean, spec.variance, spec.prior_mean, spec.prior_variance,
        stability, d_eff,
    )
    emp = mean_param_risk(
        spec.mean, spec.variance, data.feature_norm_bound, data, tau
    )
    # ln(n/(delta/2)) = ln(2n/delta), so halving delta produces the wider
    # log terms this bound requires.
    return crm_bound_fixed_tau(
        BoundInputs(
            n=data.n, delta=0.5 * delta, tau=tau, kl_term=0.5 * C_hat, emp_risk=emp
        )
    )
