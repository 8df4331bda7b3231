"""Training objectives, gradients, and the optimization protocol.

Six objectives share one training loop.  With records (x_i, a_i, p_i, r_i),
policy probabilities pi_i = pi(a_i|x_i), truncation level tau, and penalty
weight lam:

* ``ips_lpr``      mean(-r_i·pi_i/max(p_i,tau)) + lam·‖W−W0‖²
* ``wnll_lpr``     mean(-r_i·ln(pi_i)/max(p_i,tau)) + lam·‖W−W0‖²
* ``ips_l2``       mean(-r_i·pi_i/max(p_i,tau)) + lam·‖W‖²
* ``poem``         mean(-u_i) + lam·sqrt(S/n),  u_i = r_i·min(pi_i/p_i, 1/tau),
                   S the unbiased sample variance of the u_i
* ``poem_l2``      ``poem`` plus lambda_l2·‖W‖²
* ``logging_nll``  mean(-ln pi_i) + lam·‖W‖²   (rewards ignored)

The additive constant one of the risk estimators is omitted from the IPS
objectives; it moves no gradient.  All parameter norms are weights-only:
biases are trained but never penalized.

Protocol, the same for every objective: zero initialization, AdaGrad with
per-parameter update theta -= lr·g/(smoothing + sqrt(acc)), learning rate
``_LEARNING_RATE`` = 0.1, smoothing ``_ADAGRAD_SMOOTHING`` = 1, mini-batches
of ``_BATCH_SIZE`` = 100 drawn by seeded per-epoch shuffling.  Mini-batch
gradients average the data term over the batch while the penalty term is
applied at full strength every step.  The variance-regularized objectives
rebuild a majorizing surrogate at the start of every epoch and descend the
surrogate within the epoch.  Any non-finite objective aborts the run.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .datasets import LoggedDataset, kfold_split
from .estimators import (
    _check_tau,
    _compensated_mean,
    _poem_statistic,
    truncated_ips_risk,
)
from .policies import SoftmaxPolicy, _softmax_rows
from .seeding import derive_seed

__all__ = [
    "OBJECTIVES",
    "LPR_FAMILY",
    "TrainConfig",
    "TrainReport",
    "DivergenceError",
    "PoemSurrogate",
    "objective_value",
    "objective_gradient",
    "poem_build_surrogate",
    "closed_form_sigma",
    "train",
    "learn_logging_policy",
    "two_step_learned_lpr",
    "cross_validate",
    "CVRow",
    "solve_logging_nll_exact",
    "save_train_report",
    "save_trace_csv",
]

logger = logging.getLogger(__name__)

# The training protocol of the module docstring.
_BATCH_SIZE = 100
_LEARNING_RATE = 0.1
_ADAGRAD_SMOOTHING = 1.0

OBJECTIVES = ("ips_lpr", "wnll_lpr", "ips_l2", "poem", "poem_l2", "logging_nll")
LPR_FAMILY = frozenset({"ips_lpr", "wnll_lpr"})
POEM_FAMILY = frozenset({"poem", "poem_l2"})


@dataclass(frozen=True)
class TrainConfig:
    """Objective, penalty weights, truncation, prior scale and run length.

    The optimizer settings are not configurable: every run uses the
    protocol of the module docstring.  ``lam`` is the main regularization
    weight (distance penalty for the LPR and L2 objectives, variance
    penalty for the POEM objectives);
    ``lambda_l2`` is the extra ridge term of ``poem_l2`` only.
    ``train_biases=False`` freezes biases at zero, which the strongly convex
    logging-policy fit needs for a unique minimizer.
    """

    objective: str
    lam: float = 0.0
    lambda_l2: float = 0.0
    tau: float = 0.01
    sigma0: float = 1.0
    epochs: int = 500
    seed: int = 0
    train_biases: bool = True

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {self.objective!r}; pick one of {OBJECTIVES}"
            )
        if not (self.lam >= 0.0 and self.lambda_l2 >= 0.0):
            raise ValueError("regularization weights must be nonnegative")
        _check_tau(self.tau)
        if not (0.0 < self.sigma0 < math.inf):
            raise ValueError(f"sigma0 must be positive and finite, got {self.sigma0}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")


@dataclass(frozen=True)
class TrainReport:
    """Training outcome: final policy, per-epoch objective trace, the
    closed-form posterior variance where meaningful, and wall time."""

    final_policy: SoftmaxPolicy
    objective_trace: list[float]
    sigma_star: Optional[float]
    wall_time: float
    epoch_wall_times: list[float] = field(default_factory=list)


class DivergenceError(RuntimeError):
    """Raised when training meets a non-finite objective or gradient."""

    def __init__(self, epoch: int, batch: Optional[int], value: float):
        self.epoch = epoch
        self.batch = batch
        if batch is None:
            super().__init__(f"non-finite objective ({value}) at epoch {epoch}")
        else:
            super().__init__(f"non-finite gradient at epoch {epoch}, batch {batch}")


# -----------------------------------------------------------------------
# Objective values
# -----------------------------------------------------------------------


def _check_prior(objective: str, prior: Optional[SoftmaxPolicy]) -> None:
    if objective in LPR_FAMILY:
        if prior is None:
            raise ValueError(f"objective {objective!r} requires a prior policy")
    elif prior is not None:
        raise ValueError(f"objective {objective!r} does not take a prior policy")


def _probs_and_matched(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, a: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    P = _softmax_rows(X @ W.T + b)
    return P, P[np.arange(X.shape[0]), a]


def _weights_penalty_sq(W: np.ndarray, W0: Optional[np.ndarray]) -> float:
    diff = W if W0 is None else W - W0
    return float(np.sum(diff * diff))


def objective_value(
    config: TrainConfig,
    policy: SoftmaxPolicy,
    prior: Optional[SoftmaxPolicy],
    data: LoggedDataset,
) -> float:
    """Exact value of the configured objective on ``data``.

    ``prior`` is required for the LPR objectives and rejected otherwise.
    The POEM objectives need at least two records.
    """
    _check_prior(config.objective, prior)
    if policy.d != data.d:
        raise ValueError("policy and data dimensions disagree")
    W, b = policy.weights, policy.biases
    _, pi = _probs_and_matched(W, b, data.features, data.actions)
    p, r = data.propensities, data.rewards
    tau, lam = config.tau, config.lam
    obj = config.objective

    if obj in ("ips_lpr", "ips_l2"):
        data_term = _compensated_mean(-r * pi / np.maximum(p, tau))
        W0 = prior.weights if obj == "ips_lpr" else None
        return data_term + lam * _weights_penalty_sq(W, W0)
    if obj == "wnll_lpr":
        terms = np.zeros(data.n)
        mask = r > 0.0
        with np.errstate(divide="ignore"):
            terms[mask] = -r[mask] * np.log(pi[mask]) / np.maximum(p[mask], tau)
        return _compensated_mean(terms) + lam * _weights_penalty_sq(W, prior.weights)
    if obj == "logging_nll":
        with np.errstate(divide="ignore"):
            terms = -np.log(pi)
        return _compensated_mean(terms) + lam * _weights_penalty_sq(W, None)
    if obj in POEM_FAMILY:
        if data.n < 2:
            raise ValueError("variance-regularized objectives need n >= 2")
        _, _, mean_u, var_u = _poem_statistic(pi, p, r, tau)
        value = -mean_u + lam * math.sqrt(var_u / data.n)
        if obj == "poem_l2":
            value += config.lambda_l2 * _weights_penalty_sq(W, None)
        return value
    raise AssertionError(obj)


# -----------------------------------------------------------------------
# Gradients
# -----------------------------------------------------------------------


def _batch_gradient(
    config: TrainConfig,
    W: np.ndarray,
    b: np.ndarray,
    W0: Optional[np.ndarray],
    data: LoggedDataset,
    idx,
    surrogate: Optional[PoemSurrogate] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Training gradient w.r.t. (W, b) on the mini-batch ``data[idx]``.

    Every data term has the per-record logit gradient c_i·(e_{a_i} − P_i),
    so the objectives differ only in the coefficient c_i, which carries the
    1/m batch average.  Given a ``surrogate`` the POEM objectives follow its
    majorizer; otherwise they take the exact gradient of
    mean(-u) + lam·sqrt(S/m) treating the batch as the dataset.
    Ratio-capped records contribute zero through u (the flat side of the
    min).  The weights-only penalty is added at full strength.
    """
    X, a = data.features[idx], data.actions[idx]
    p, r = data.propensities[idx], data.rewards[idx]
    m = X.shape[0]
    P, pi = _probs_and_matched(W, b, X, a)
    E_minus_P = -P
    E_minus_P[np.arange(m), a] += 1.0
    obj, tau, lam = config.objective, config.tau, config.lam

    if obj == "logging_nll":
        # c_i = -1/m for every record, applied as a division by -m: a
        # multiplication by -1/m would round differently.
        G = E_minus_P / -m
    else:
        if obj in ("ips_lpr", "ips_l2"):
            coef = -r / np.maximum(p, tau) * pi / m
        elif obj == "wnll_lpr":
            coef = -r / np.maximum(p, tau) / m
        else:
            exact = surrogate is None
            if exact and m < 2:
                raise ValueError("variance-regularized gradients need a batch of >= 2")
            ratio, u, mean_u, var_u = _poem_statistic(pi, p, r, tau, moments=exact)
            du_dz = np.where(ratio >= 1.0 / tau, 0.0, r * ratio)
            if exact:
                dF_du = np.full(m, -1.0 / m)
                if var_u > 0.0:
                    dF_du += lam * (u - mean_u) / (math.sqrt(var_u / m) * m * (m - 1))
                coef = dF_du * du_dz
            else:
                alpha, beta = surrogate.alpha[idx], surrogate.beta[idx]
                coef = (2.0 * alpha * u + beta) * du_dz / m
        G = coef[:, None] * E_minus_P
    gW, gb = G.T @ X, G.sum(axis=0)

    if obj in LPR_FAMILY:
        gW += 2.0 * lam * (W - W0)
    elif obj == "poem_l2":
        gW += 2.0 * config.lambda_l2 * W
    elif obj != "poem":
        gW += 2.0 * lam * W
    return gW, gb


def objective_gradient(
    config: TrainConfig,
    policy: SoftmaxPolicy,
    prior: Optional[SoftmaxPolicy],
    batch: LoggedDataset,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the mini-batch objective, as (d weights, d biases).

    The data term is averaged over ``batch`` while the penalty enters at
    full strength, so this is the per-step training gradient; evaluated on
    a full dataset it is the exact gradient of :func:`objective_value`.
    Biases receive no penalty component.
    """
    _check_prior(config.objective, prior)
    if policy.d != batch.d:
        raise ValueError("policy and batch dimensions disagree")
    return _batch_gradient(
        config,
        policy.weights,
        policy.biases,
        None if prior is None else prior.weights,
        batch,
        slice(None),
    )


# -----------------------------------------------------------------------
# Majorizing surrogate for the variance-regularized objectives
# -----------------------------------------------------------------------


@dataclass(frozen=True)
class PoemSurrogate:
    """Per-record quadratic majorizer of the variance-regularized objective.

    Built at an anchor policy: the surrogate is
    ``mean_i(alpha_i·u_i² + beta_i·u_i) + const`` with the u_i recomputed at
    whatever policy it is evaluated on.  It dominates the exact objective
    everywhere and touches it at the anchor.  ``degenerate`` marks anchors
    with zero sample variance, where the variance term has no majorizer and
    the penalty is dropped for the epoch.
    """

    alpha: np.ndarray
    beta: np.ndarray
    const: float
    tau: float
    anchor_mean_u: float
    anchor_var_u: float
    degenerate: bool

    def value(self, policy: SoftmaxPolicy, data: LoggedDataset) -> float:
        """Surrogate value; ``data`` must be the dataset it was built on."""
        if data.n != self.alpha.shape[0]:
            raise ValueError("surrogate was built for a different dataset")
        _, pi = _probs_and_matched(
            policy.weights, policy.biases, data.features, data.actions
        )
        _, u, _, _ = _poem_statistic(
            pi, data.propensities, data.rewards, self.tau, moments=False
        )
        return _compensated_mean(self.alpha * u * u + self.beta * u) + self.const

    def gradient(
        self,
        policy: SoftmaxPolicy,
        data: LoggedDataset,
        indices: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of the batch-averaged surrogate over ``indices``
        (all records when None)."""
        if data.n != self.alpha.shape[0]:
            raise ValueError("surrogate was built for a different dataset")
        # The surrogate majorizes the poem data term; poem_l2's ridge is not
        # part of it.
        return _batch_gradient(
            TrainConfig(objective="poem", tau=self.tau),
            policy.weights, policy.biases, None, data,
            slice(None) if indices is None else indices, self,
        )


def poem_build_surrogate(
    policy_anchor: SoftmaxPolicy, data: LoggedDataset, tau: float, lam: float
) -> PoemSurrogate:
    """Build the per-epoch majorizer at ``policy_anchor``.

    Uses the tangent majorization of sqrt at the anchor variance combined
    with the quadratic domination of the centered second moment, giving
    per-record coefficients

        alpha_i = q,   beta_i = -(1 + 2·q·mean_u)

    with q = lam·sqrt(n) / (2·sqrt(S_t)·(n−1)) and constant
    q·mean_u² + (lam/2)·sqrt(S_t/n).  A zero anchor variance degenerates
    the majorizer; the penalty is then dropped for the epoch (logged).
    """
    if data.n < 2:
        raise ValueError("variance-regularized objectives need n >= 2")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    _check_tau(tau)
    n = data.n
    _, pi = _probs_and_matched(
        policy_anchor.weights, policy_anchor.biases, data.features, data.actions
    )
    _, _, mean_u, var_u = _poem_statistic(pi, data.propensities, data.rewards, tau)
    if lam == 0.0 or var_u <= 0.0:
        if lam > 0.0:
            logger.warning(
                "anchor sample variance is zero; dropping the variance "
                "penalty for this epoch"
            )
        return PoemSurrogate(
            alpha=np.zeros(n),
            beta=np.full(n, -1.0),
            const=0.0,
            tau=tau,
            anchor_mean_u=mean_u,
            anchor_var_u=var_u,
            degenerate=var_u <= 0.0 and lam > 0.0,
        )
    q = lam * math.sqrt(n) / (2.0 * math.sqrt(var_u) * (n - 1))
    return PoemSurrogate(
        alpha=np.full(n, q),
        beta=np.full(n, -(1.0 + 2.0 * q * mean_u)),
        const=q * mean_u * mean_u + 0.5 * lam * math.sqrt(var_u / n),
        tau=tau,
        anchor_mean_u=mean_u,
        anchor_var_u=var_u,
        degenerate=False,
    )


# -----------------------------------------------------------------------
# Closed-form posterior variance
# -----------------------------------------------------------------------


def closed_form_sigma(
    data: LoggedDataset, tau: float, B: float, d_effective: int, sigma0: float
) -> float:
    """Analytic minimizer of the variance sub-objective on (0, sigma0].

    sigma* = min{ 2·d / (B²·τ·(n−1)·M), sigma0 } with
    M = (1/n)·sum_i r_i / max(p_i, τ).  When every reward is zero the
    unconstrained solution is infinite and the constrained minimizer sits
    at the boundary sigma0.
    """
    _check_tau(tau)
    if not (B > 0.0 and sigma0 > 0.0 and d_effective > 0):
        raise ValueError("B, sigma0, and d_effective must be positive")
    if data.n < 2:
        raise ValueError("need n >= 2")
    M = _compensated_mean(data.rewards / np.maximum(data.propensities, tau))
    if M <= 0.0:
        return sigma0
    unconstrained = 2.0 * d_effective / (B * B * tau * (data.n - 1) * M)
    return min(unconstrained, sigma0)


# -----------------------------------------------------------------------
# Training loop
# -----------------------------------------------------------------------


def train(
    config: TrainConfig,
    data: LoggedDataset,
    prior: Optional[SoftmaxPolicy] = None,
) -> TrainReport:
    """Run the full seeded protocol and return the trained policy.

    Deterministic for fixed (config, data): one RNG stream drives the
    per-epoch shuffles.  The trace holds the exact objective on the full
    dataset at the end of every epoch.  POEM-family runs rebuild their
    surrogate at each epoch start and follow surrogate gradients; all other
    objectives follow their exact mini-batch gradients.  Raises
    :class:`DivergenceError` the moment anything non-finite appears.
    """
    _check_prior(config.objective, prior)
    if prior is not None and prior.weights.shape != (data.k, data.d):
        raise ValueError(
            f"prior weights have shape {prior.weights.shape}, "
            f"data needs {(data.k, data.d)}"
        )
    t0 = time.perf_counter()
    n, d, k = data.n, data.d, data.k
    W = np.zeros((k, d))
    b = np.zeros(k)
    # AdaGrad's squared-gradient accumulators.
    acc_W = np.zeros((k, d))
    acc_b = np.zeros(k)
    rng = np.random.default_rng(config.seed)
    is_poem = config.objective in POEM_FAMILY
    surrogate = None
    W0 = prior.weights if prior is not None else None

    trace: list[float] = []
    epoch_times: list[float] = []
    for epoch in range(config.epochs):
        if is_poem:
            anchor = SoftmaxPolicy(W, b)
            surrogate = poem_build_surrogate(anchor, data, config.tau, config.lam)
        perm = rng.permutation(n)
        # Non-finite values inside a batch are not a condition numpy should
        # warn about: they are detected and raised as DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, start in enumerate(range(0, n, _BATCH_SIZE)):
                idx = perm[start : start + _BATCH_SIZE]
                gW, gb = _batch_gradient(config, W, b, W0, data, idx, surrogate)
                if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
                    raise DivergenceError(epoch, batch_index, float("nan"))
                acc_W += gW * gW
                W -= _LEARNING_RATE * gW / (_ADAGRAD_SMOOTHING + np.sqrt(acc_W))
                if config.train_biases:
                    acc_b += gb * gb
                    b -= _LEARNING_RATE * gb / (_ADAGRAD_SMOOTHING + np.sqrt(acc_b))
        value = objective_value(config, SoftmaxPolicy(W, b), prior, data)
        if not math.isfinite(value):
            raise DivergenceError(epoch, None, value)
        trace.append(value)
        epoch_times.append(time.perf_counter() - t0)

    if config.objective == "logging_nll":
        sigma_star: Optional[float] = None
    else:
        sigma_star = closed_form_sigma(
            data, config.tau, data.feature_norm_bound, k * d, config.sigma0
        )
    return TrainReport(
        final_policy=SoftmaxPolicy(W, b),
        objective_trace=trace,
        sigma_star=sigma_star,
        wall_time=time.perf_counter() - t0,
        epoch_wall_times=epoch_times,
    )


def learn_logging_policy(
    data: LoggedDataset,
    lam: float = 0.01,
    *,
    epochs: int = 100,
    seed: int = 0,
) -> SoftmaxPolicy:
    """Estimate the logging policy from its own logs.

    Trains the ``logging_nll`` objective (mean negative log-likelihood of
    the logged actions, rewards ignored) with a weights-only ridge penalty.
    ``lam`` must be positive: strong convexity is what makes the fit unique
    and stable to single-record changes.  Biases stay at zero for the same
    reason; add a constant feature column if an intercept is wanted.
    """
    if not (lam > 0.0):
        raise ValueError("lam must be positive for the regularized fit")
    config = TrainConfig(
        objective="logging_nll", lam=lam, epochs=epochs, seed=seed,
        train_biases=False,
    )
    return train(config, data).final_policy


def two_step_learned_lpr(data: LoggedDataset, config: TrainConfig) -> TrainReport:
    """Learn a prior from the logs, then train against it.

    Step 1 fits the logging policy on ``data`` (default penalty 0.01, 100
    epochs, seed derived from ``config.seed``); step 2 runs :func:`train`
    with ``config`` (an LPR objective) and the learned policy as prior.
    """
    if config.objective not in LPR_FAMILY:
        raise ValueError("two-step training needs an LPR-family objective")
    learned = learn_logging_policy(
        data, seed=derive_seed(config.seed, "learn-logging")
    )
    return train(config, data, prior=learned)


# -----------------------------------------------------------------------
# Cross-validation
# -----------------------------------------------------------------------


@dataclass(frozen=True)
class CVRow:
    """Holdout scores for one grid value (estimated rewards, higher wins)."""

    lam: float
    fold_scores: tuple[float, ...]
    mean_score: float


def _cv_job(
    data: LoggedDataset,
    method: str,
    lam: float,
    train_idx: np.ndarray,
    holdout_idx: np.ndarray,
    config: TrainConfig,
    prior: Optional[SoftmaxPolicy],
    seed: int,
) -> float:
    cfg = replace(config, objective=method, lam=lam, seed=seed)
    job_prior = prior if method in LPR_FAMILY else None
    try:
        report = train(cfg, data.subset(train_idx), prior=job_prior)
    except DivergenceError:
        return float("-inf")
    holdout = data.subset(holdout_idx)
    return 1.0 - truncated_ips_risk(report.final_policy, holdout, config.tau)


def cross_validate(
    data: LoggedDataset,
    method: str,
    lambda_grid: Sequence[float],
    num_folds: int,
    seed: int,
    config: TrainConfig,
    prior: Optional[SoftmaxPolicy] = None,
) -> tuple[float, list[CVRow]]:
    """Grid-search a regularization weight by k-fold cross-validation.

    Each grid value trains on k−1 folds for ``config.epochs`` epochs and is
    scored by the truncated importance-weighted reward estimate on the
    held-out fold; scores are averaged over folds.  Returns the winning
    value (ties break toward the smaller one; runs that diverge score −inf)
    and the full table.  The grid always drives ``lam`` (the distance
    penalty for LPR/L2 methods, the variance penalty for the POEM methods);
    ``poem_l2``'s ridge weight stays at ``config.lambda_l2``.

    Jobs run in (value, fold) order, and each job's seed depends only on
    its own (value, fold) tag.
    """
    if len(lambda_grid) == 0:
        raise ValueError("lambda_grid must be nonempty")
    if num_folds < 2:
        raise ValueError("num_folds must be at least 2")
    if method not in OBJECTIVES or method == "logging_nll":
        raise ValueError(f"method must be a policy objective, got {method!r}")
    _check_prior(method, prior)
    folds = kfold_split(data.n, num_folds, derive_seed(seed, "cv-folds"))
    table: list[CVRow] = []
    for lam in lambda_grid:
        scores = tuple(
            _cv_job(
                data, method, lam,
                folds.train_indices(fold), folds.holdout_indices(fold),
                config, prior, derive_seed(seed, f"cv:lam={lam!r}:fold={fold}"),
            )
            for fold in range(num_folds)
        )
        table.append(CVRow(lam=lam, fold_scores=scores,
                           mean_score=_compensated_mean(np.array(scores))))
    best = max(table, key=lambda row: (row.mean_score, -row.lam))
    return best.lam, table


# -----------------------------------------------------------------------
# Exact convex solver for the regularized likelihood fit
# -----------------------------------------------------------------------


def solve_logging_nll_exact(
    data: LoggedDataset, lam: float, tol: float = 1e-10
) -> SoftmaxPolicy:
    """Solve the weights-only regularized likelihood fit to high precision.

    Minimizes mean(-ln pi(a_i|x_i)) + lam·‖W‖² over W with biases fixed at
    zero.  Runs L-BFGS and then polishes with damped Newton steps until the
    gradient norm certifies (via 2·lam strong convexity) that the solution
    is within ``tol`` of the unique minimizer.  Intended for stability
    experiments and exact-baseline checks rather than large-scale training.
    """
    from scipy.optimize import minimize

    if not (lam > 0.0):
        raise ValueError("lam must be positive")
    X, a = data.features, data.actions
    n, d, k = data.n, data.d, data.k

    def value_grad(w_flat: np.ndarray) -> tuple[float, np.ndarray]:
        W = w_flat.reshape(k, d)
        P, pi = _probs_and_matched(W, np.zeros(k), X, a)
        with np.errstate(divide="ignore"):
            value = _compensated_mean(-np.log(pi)) + lam * float(np.sum(W * W))
        G = P.copy()
        G[np.arange(n), a] -= 1.0
        gW = G.T @ X / n + 2.0 * lam * W
        return value, gW.ravel()

    res = minimize(
        value_grad,
        np.zeros(k * d),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 2000, "gtol": 1e-12, "ftol": 0.0},
    )
    W = res.x.reshape(k, d)

    # Newton polish: the Hessian is PSD data curvature + 2*lam*I, so steps
    # are well defined; stop once ||grad|| <= 2*lam*tol, which bounds the
    # parameter error by tol.
    target = 2.0 * lam * tol
    eye = np.eye(k * d)
    for _ in range(50):
        _, g = value_grad(W.ravel())
        if float(np.linalg.norm(g)) <= target:
            break
        P, _ = _probs_and_matched(W, np.zeros(k), X, a)
        M = np.einsum("ia,ab->iab", P, np.eye(k)) - np.einsum("ia,ib->iab", P, P)
        H = np.einsum("iab,ij,il->ajbl", M, X, X).reshape(k * d, k * d) / n
        H += 2.0 * lam * eye
        step = np.linalg.solve(H, g)
        W = W - step.reshape(k, d)
    return SoftmaxPolicy(W, np.zeros(k))


# -----------------------------------------------------------------------
# Report serialization
# -----------------------------------------------------------------------


def save_train_report(path, report: TrainReport, config: TrainConfig) -> None:
    """Write a training report as structured text next to the model file."""
    doc = {
        "objective": config.objective,
        "lambda": config.lam,
        "lambda_l2": config.lambda_l2,
        "tau": config.tau,
        "sigma0": config.sigma0,
        "epochs": config.epochs,
        "batch_size": _BATCH_SIZE,
        "learning_rate": _LEARNING_RATE,
        "adagrad_smoothing": _ADAGRAD_SMOOTHING,
        "seed": config.seed,
        "train_biases": config.train_biases,
        "final_objective": report.objective_trace[-1] if report.objective_trace else None,
        "objective_trace": report.objective_trace,
        "sigma_star": report.sigma_star,
        "wall_time": report.wall_time,
    }
    Path(path).write_text(json.dumps(doc, indent=1), encoding="utf-8")


def save_trace_csv(path, report: TrainReport) -> None:
    """Write the per-epoch trace as CSV columns (epoch, objective, wall_time)."""
    times = report.epoch_wall_times
    if len(times) != len(report.objective_trace):
        times = [float("nan")] * len(report.objective_trace)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "objective", "wall_time"])
        for i, (obj, wt) in enumerate(zip(report.objective_trace, times)):
            writer.writerow([i, repr(obj), repr(wt)])
