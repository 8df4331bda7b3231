"""Closed-form risk bounds and the complexity terms feeding them.

Every bound is a pure scalar function.  :func:`certificates` is the one
place that assembles them into risk certificates; the library's two risk
bounds and the ``bound`` CLI subcommand read its rows.  ``d_effective``
always counts weight parameters only (k·d); biases carry no Gaussian spread
and are excluded from each squared distance here, consistent with the rest
of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .datasets import LoggedDataset
from .estimators import mean_param_risk
from .policies import (
    MixedLogitSpec, SoftmaxPolicy, _check_count, _check_level,
    _check_nonnegative, _check_positive, param_distance_sq,
)

__all__ = [
    "BoundInputs",
    "StabilityParams",
    "mcallester_bound",
    "crm_bound_fixed_tau",
    "crm_bound_all_tau",
    "gaussian_kl_exact",
    "gaussian_kl_bound",
    "data_dep_c_term",
    "Certificate",
    "certificates",
    "mixed_logit_risk_bound",
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
        _check_count("n", self.n, 2)
        _check_level("delta", self.delta)
        _check_level("tau", self.tau)
        _check_nonnegative("kl_term", self.kl_term)
        floor = 1.0 - 1.0 / self.tau
        # Allow float round-off at the attainable minimum.
        if not self.emp_risk >= floor - 1e-9 * max(1.0, 1.0 / self.tau):
            raise ValueError(
                f"emp_risk must be at least 1 - 1/tau = {floor}, got {self.emp_risk}"
            )


@dataclass(frozen=True)
class StabilityParams:
    """Lipschitz constant, regularization strength, sample size, confidence."""

    lipschitz: float
    lam: float
    n: int
    delta: float

    def __post_init__(self) -> None:
        _check_positive("lipschitz", self.lipschitz)
        _check_positive("lam", self.lam)
        _check_positive("n", self.n)
        _check_level("delta", self.delta)


def mcallester_bound(emp_risk: float, kl: float, n: int, delta: float) -> float:
    """PAC-Bayes bound for [0, 1] losses:
    emp + sqrt(2·emp·(kl + ln(n/δ))/(n−1)) + 2(kl + ln(n/δ))/(n−1).
    """
    if not (0.0 <= emp_risk <= 1.0):
        raise ValueError(f"emp_risk must lie in [0, 1], got {emp_risk}")
    _check_count("n", n, 2)
    _check_level("delta", delta)
    _check_nonnegative("kl", kl)
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
    # At the smallest subnormal tau, delta·tau underflows to 0: the log term
    # is then inf, as it is wherever 2n/(delta·tau) overflows.
    scale = inputs.delta * inputs.tau
    log_term = math.log(2.0 * inputs.n / scale) if scale > 0.0 else math.inf
    pen = (inputs.kl_term + log_term) / (inputs.tau * (inputs.n - 1))
    gap = max(inputs.emp_risk - 1.0 + 2.0 / inputs.tau, 0.0)
    return inputs.emp_risk + math.sqrt(4.0 * gap * pen) + 4.0 * pen


def _check_variances(sigma: float, sigma0: float, *, ordered: bool) -> None:
    _check_positive("sigma", sigma)
    _check_positive("sigma0", sigma0)
    if ordered and sigma > sigma0:
        raise ValueError(
            f"sigma={sigma} must not exceed sigma0={sigma0}; the KL bound "
            "requires the posterior variance to be at most the prior variance"
        )


def _log_ratio(sigma0: float, sigma: float) -> float:
    """ln(σ0/σ), as ln σ0 − ln σ only where the ratio over- or underflows."""
    ratio = sigma0 / sigma
    if 0.0 < ratio < math.inf:
        return math.log(ratio)
    return math.log(sigma0) - math.log(sigma)


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
        _log_ratio(sigma0, sigma) + sigma / sigma0 - 1.0
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
    return dist_sq / (2.0 * sigma0) + 0.5 * d_effective * _log_ratio(sigma0, sigma)


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
    the term dominates twice :func:`gaussian_kl_bound` evaluated at ŵ.
    """
    _check_variances(sigma, sigma0, ordered=True)
    dist = math.sqrt(param_distance_sq(theta_hat, w_hat))
    slack = (params.lipschitz / params.lam) * math.sqrt(
        2.0 * math.log(4.0 / params.delta) / params.n
    )
    return (dist + slack) ** 2 / sigma0 + d_effective * _log_ratio(sigma0, sigma)


@dataclass(frozen=True)
class Certificate:
    """One risk certificate: the bound of kind ``bound`` (``fixed_tau``,
    ``all_tau`` or ``learned_prior``) with the numbers it is computed from.

    ``value`` is the bound of exactly these numbers, with KL term
    ``c_term/2``; the ``learned_prior`` row spends ``delta/2`` on it.  The
    fields are the columns of the ``crmlab bound`` table, in order.
    """

    bound: str
    n: int
    tau: float
    delta: float
    sigma: float
    sigma0: float
    emp_risk: float
    kl_exact: float
    kl_bound: float
    c_term: float
    value: float


def certificates(
    spec: MixedLogitSpec,
    data: LoggedDataset,
    tau: float,
    delta: float,
    B: float,
    learned: Optional[tuple[SoftmaxPolicy, StabilityParams]] = None,
) -> list[Certificate]:
    """Risk certificates of the Gaussian-weight policy ``spec`` on ``data``.

    Every row shares ρ̂ = :func:`mean_param_risk` at the context-norm bound
    ``B`` and the KL terms against ``spec.prior_mean``, with complexity
    term C = 2·:func:`gaussian_kl_bound`.  The ``fixed_tau`` and
    ``all_tau`` rows are :func:`crm_bound_fixed_tau` and
    :func:`crm_bound_all_tau` at KL term C/2.  ``learned = (ŵ, stability)``
    adds the ``learned_prior`` row: the fixed-τ bound at the term Ĉ of
    :func:`data_dep_c_term` against ŵ, at δ/2.
    """
    mean, sigma, sigma0 = spec.mean, spec.variance, spec.prior_variance
    d_eff = mean.k * mean.d
    emp = mean_param_risk(mean, sigma, B, data, tau)
    kl_exact = gaussian_kl_exact(mean, sigma, spec.prior_mean, sigma0, d_eff)
    kl_bound = gaussian_kl_bound(mean, sigma, spec.prior_mean, sigma0, d_eff)
    kinds = [("fixed_tau", crm_bound_fixed_tau, delta, 2.0 * kl_bound),
             ("all_tau", crm_bound_all_tau, delta, 2.0 * kl_bound)]
    if learned is not None:
        w_hat, stability = learned
        c_hat = data_dep_c_term(mean, sigma, w_hat, sigma0, stability, d_eff)
        # ln(n/(delta/2)) = ln(2n/delta), so halving delta produces the wider
        # log terms this bound requires.
        kinds.append(("learned_prior", crm_bound_fixed_tau, 0.5 * delta, c_hat))
    return [
        Certificate(
            kind, data.n, tau, delta, sigma, sigma0, emp, kl_exact, kl_bound, c,
            bound(BoundInputs(n=data.n, delta=at_delta, tau=tau,
                              kl_term=0.5 * c, emp_risk=emp)),
        )
        for kind, bound, at_delta, c in kinds
    ]


def mixed_logit_risk_bound(
    spec: MixedLogitSpec, data: LoggedDataset, tau: float, delta: float
) -> float:
    """The ``fixed_tau`` certificate at the log's own context-norm bound:
    ρ̂ + sqrt((ρ̂−1+1/τ)·(C + 2ln(n/δ))/(τ(n−1))) + (C + 2ln(n/δ))/(τ(n−1)).
    """
    return certificates(spec, data, tau, delta, data.feature_norm_bound)[0].value


def data_dep_risk_bound(
    spec: MixedLogitSpec,
    data: LoggedDataset,
    tau: float,
    delta: float,
    stability: StabilityParams,
) -> float:
    """The ``learned_prior`` certificate at the log's own context-norm bound,
    with ``spec.prior_mean`` as the learned regularized fit ŵ.
    """
    return certificates(
        spec, data, tau, delta, data.feature_norm_bound,
        learned=(spec.prior_mean, stability),
    )[-1].value
