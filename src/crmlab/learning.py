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
applied at full strength every step.  One logit-gradient kernel serves every
objective; they differ only in a per-record coefficient, which the POEM
objectives read from a majorizing surrogate: :func:`train` rebuilds it at
each epoch start, :func:`objective_gradient` at the policy it is given,
where it touches the objective.  Any non-finite objective aborts the run.

The parameters live in one (k, d+1) block theta = [W | b], as do the
AdaGrad accumulator and the gradient, so one in-place update covers weights
and biases and one sum over the gradient block checks it for non-finite
entries (frozen biases are checked too, and zeroed only after the check).
Each :func:`train` call allocates its step buffers once (see
:class:`_StepWorkspace`), and every step writes into them.  The step keeps
the bits of the plain numpy expressions: lr·g is formed before the division
by smoothing + sqrt(acc), the IPS coefficient (−r/max(p, tau))·pi before
the division by the batch size, and the softmax row sum is numpy's
contiguous last-axis reduction (pairwise from k = 8 on); only the row max,
which is exact in any order, is taken over an action-major copy.

Each epoch gathers its shuffled records once; mini-batches are slices of
that gather.  :func:`train` evaluates the exact objective on the full data
after every epoch and keeps it as the trace.  Callers that keep only the
final policy (cross-validation jobs and :func:`learn_logging_policy`) run
trace-free: at each epoch end a cheap certificate (see
:func:`_objective_certified`) proves the objective finite, and the full
objective is evaluated only when the certificate fails.  Both paths raise
the same :class:`DivergenceError` at the same point.

Cross-validation builds its (value, fold) jobs first, each a config with
the value as lam and a seed derived from its own (value, fold) tag, so
every grid value is checked before any job runs.  It maps them, with their
fold indices, over the worker processes of ``crmlab._jobs.map_jobs``:
min(jobs, usable CPUs) processes forked from the caller, which share its
data and prior without copying them.  Only a job index goes to a worker
and only a score comes back; the scores are merged in (value, fold) order,
so the table is bit-identical at any worker count.  With one worker,
without the ``fork`` start method, or inside a daemonic worker process, the
jobs run in process.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from ._jobs import map_jobs
from .datasets import LoggedDataset, kfold_split
from .estimators import (
    _compensated_mean, _poem_statistic, _reward_mean, truncated_ips_risk,
)
from .policies import (
    SoftmaxPolicy, _check_count, _check_dims, _check_level, _check_nonnegative,
    _check_positive, _distance_sq, _matched_probs, _softmax_rows, _writing,
)
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
        _check_nonnegative("lam", self.lam)
        _check_nonnegative("lambda_l2", self.lambda_l2)
        _check_level("tau", self.tau)
        _check_positive("sigma0", self.sigma0)
        _check_count("epochs", self.epochs, 0)
        _check_count("seed", self.seed, 0)


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


def _check_prior(
    objective: str, prior: Optional[SoftmaxPolicy], data: LoggedDataset
) -> None:
    if objective not in LPR_FAMILY:
        if prior is not None:
            raise ValueError(f"objective {objective!r} does not take a prior policy")
    elif prior is None:
        raise ValueError(f"objective {objective!r} requires a prior policy")
    else:
        _check_dims(prior, data, "prior")


def _penalty(
    config: TrainConfig, W0: Optional[np.ndarray]
) -> Optional[tuple[float, Optional[np.ndarray]]]:
    """The objective's weights-only penalty weight·‖W − center‖² as
    (weight, center): (lam, W0) for LPR, (lam, None) for ``ips_l2`` and
    ``logging_nll``, (lambda_l2, None) for ``poem_l2``; None for ``poem``,
    whose lam weighs the variance term instead."""
    obj = config.objective
    if obj == "poem":
        return None
    if obj in LPR_FAMILY:
        return config.lam, W0
    return (config.lambda_l2 if obj == "poem_l2" else config.lam), None


def _penalized(
    config: TrainConfig, value: float, W: np.ndarray, W0: Optional[np.ndarray]
) -> float:
    """``value`` plus the objective's weights-only penalty at W."""
    penalty = _penalty(config, W0)
    if penalty is None:
        return value
    weight, center = penalty
    return value + weight * _distance_sq(W, center)


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
    _check_prior(config.objective, prior, data)
    pi = _matched_probs(policy, data)
    p, r = data.propensities, data.rewards
    tau = config.tau
    obj = config.objective

    if obj in POEM_FAMILY:
        _check_count("n", data.n, 2)
        _, _, mean_u, var_u = _poem_statistic(pi, p, r, tau)
        data_term = -mean_u + config.lam * math.sqrt(var_u / data.n)
    elif obj == "wnll_lpr":
        terms = np.zeros(data.n)
        mask = r > 0.0
        with np.errstate(divide="ignore"):
            terms[mask] = -r[mask] * np.log(pi[mask]) / np.maximum(p[mask], tau)
        data_term = _compensated_mean(terms)
    elif obj == "logging_nll":
        with np.errstate(divide="ignore"):
            data_term = _compensated_mean(-np.log(pi))
    else:
        data_term = -_reward_mean(pi, data, tau)
    W0 = None if prior is None else prior.weights
    return _penalized(config, data_term, policy.weights, W0)


# Epoch-end certificate of the trace-free fit.  The logit bound keeps exp()
# and ln(pi) far from overflow and underflow; the term bound keeps every
# per-record term, its square and their sums over any in-memory dataset far
# below the float maximum, and the penalty bound leaves room to add them.
_LOGIT_BOUND = 300.0
_TERM_BOUND = 1e100
_PENALTY_BOUND = 1e300


def _objective_certified(
    config: TrainConfig,
    W: np.ndarray,
    b: np.ndarray,
    W0: Optional[np.ndarray],
    data: LoggedDataset,
) -> bool:
    """True only when :func:`objective_value` at (W, b) on ``data`` is
    certainly finite, at O(k·d) cost.

    With B = ``data.feature_norm_bound`` ≥ every ‖x_i‖ and
    S = ‖W‖_F·B + ‖b‖_∞, every logit lies in [−S, S], so the softmax gives
    pi ≥ exp(−2S)/k > 0 and |ln pi| ≤ 2S + ln k.  Rewards lie in [0, 1], so
    every per-record data term (and every POEM u) is at most
    (2S + ln k + 1)/tau, and the POEM variance term lam·sqrt(S_u/n) is at
    most lam/tau.  The ridge penalty is computed exactly as
    :func:`objective_value` computes it.  Anything NaN or infinite fails the
    certificate; a failure only means "evaluate the objective".
    """
    S = math.sqrt(_distance_sq(W, None)) * data.feature_norm_bound
    S += float(np.max(np.abs(b)))
    if not S < _LOGIT_BOUND:
        return False
    if not (2.0 * S + math.log(data.k) + 1.0) / config.tau < _TERM_BOUND:
        return False
    variance_bound = config.lam / config.tau if config.objective in POEM_FAMILY else 0.0
    return _penalized(config, variance_bound, W, W0) < _PENALTY_BOUND


# -----------------------------------------------------------------------
# Gradients
# -----------------------------------------------------------------------


def _coefficient_columns(
    config: TrainConfig, data: LoggedDataset
) -> tuple[np.ndarray, ...]:
    """The per-record arrays, in record order, that the objective's gradient
    coefficient reads: the weighted reward −r/max(p, tau) for the IPS and
    WNLL objectives, (p, r) for the POEM objectives (the caller appends the
    (alpha, beta) of the surrogate it follows), and none for
    ``logging_nll``."""
    obj = config.objective
    if obj == "logging_nll":
        return ()
    p, r = data.propensities, data.rewards
    if obj in POEM_FAMILY:
        return (p, r)
    # A subnormal tau can overflow r/tau to inf; training then diverges at
    # its first batch, which is reported as DivergenceError, not a warning.
    with np.errstate(over="ignore"):
        return (-r / np.maximum(p, config.tau),)


class _StepWorkspace:
    """The buffers of :func:`_batch_gradient` for batches of m records,
    allocated once per :func:`train` call and batch size:

    * ``logits``   (m, k) logits, then probabilities, then the logit gradient;
    * ``logits_t`` (k, m) action-major copy for the softmax row max;
    * ``row``      (m,) row max, row sum, then the matched probabilities;
    * ``coef``     (m,) per-record gradient coefficient;
    * ``penalty``  (k, d) penalty gradient;
    * ``grad``     (k, d+1) gradient block [gW | gb].

    The views the step needs are made here once, not at every step.
    """

    def __init__(self, m: int, k: int, d: int):
        self.logits = np.empty((m, k))
        self.logits_flat = self.logits.reshape(-1)
        self.logits_t = np.empty((k, m))
        self.row = np.empty(m)
        self.coef = np.empty(m)
        self.coef_column = self.coef[:, None]
        self.penalty = np.empty((k, d))
        self.grad = np.empty((k, d + 1))
        self.grad_W, self.grad_b = self.grad[:, :d], self.grad[:, d]


def _batch_gradient(
    config: TrainConfig,
    W: np.ndarray,
    b: np.ndarray,
    W0: Optional[np.ndarray],
    X: np.ndarray,
    flat: np.ndarray,
    columns: Sequence[np.ndarray],
    ws: _StepWorkspace,
) -> np.ndarray:
    """Training gradient w.r.t. the block [W | b] on the gathered mini-batch
    ``X``, written into ``ws.grad`` and returned there.

    ``flat`` holds each record's flat index i·k + a_i into the batch's
    (m, k) probability rows, and ``columns`` are the batch's entries of
    :func:`_coefficient_columns`, both gathered in the order of ``X``.
    Every data term has the per-record logit gradient c_i·(e_{a_i} − P_i),
    so the objectives differ only in the coefficient c_i, which carries the
    1/m batch average; for POEM it is (2·alpha_i·u_i + beta_i)·du_i/dz_i/m
    with the surrogate's (alpha, beta) ending ``columns``.  Ratio-capped
    records contribute zero through u (the flat side of the min).  The
    weights-only penalty is added at full strength.

    Every operation writes into ``ws`` and keeps the order of the plain
    numpy expression, (−r/max(p, tau))·pi before /m included, so the bits
    are those of that expression.
    """
    m = X.shape[0]
    P, pi, coef = ws.logits, ws.row, ws.coef
    np.matmul(X, W.T, out=P)
    P += b
    _softmax_rows(P, (ws.logits_t, pi))
    ws.logits_flat.take(flat, out=pi)
    obj, tau = config.objective, config.tau

    coef_column = ws.coef_column
    if obj in ("ips_lpr", "ips_l2"):
        (weighted_reward,) = columns
        np.multiply(weighted_reward, pi, out=coef)
        coef /= m
    elif obj == "wnll_lpr":
        (weighted_reward,) = columns
        np.divide(weighted_reward, m, out=coef)
    elif obj in POEM_FAMILY:
        p, r, alpha, beta = columns
        ratio, u, _, _ = _poem_statistic(pi, p, r, tau, moments=False)
        du_dz = np.where(ratio >= 1.0 / tau, 0.0, r * ratio)
        coef = (2.0 * alpha * u + beta) * du_dz / m
        coef_column = coef[:, None]
    # E − P: 1 − pi is exactly −pi + 1.
    np.negative(P, out=P)
    ws.logits_flat.put(flat, np.subtract(1.0, pi, out=pi))
    if obj == "logging_nll":
        # c_i = -1/m for every record, applied as a division by -m: a
        # multiplication by -1/m would round differently.
        P /= -m
    else:
        P *= coef_column
    np.matmul(P.T, X, out=ws.grad_W)
    np.add.reduce(P, axis=0, out=ws.grad_b)

    # Nothing is added for poem: a zero penalty would turn −0.0 into +0.0.
    penalty = _penalty(config, W0)
    if penalty is not None:
        weight, center = penalty
        if center is None:
            np.multiply(W, 2.0 * weight, out=ws.penalty)
        else:
            np.subtract(W, center, out=ws.penalty)
            ws.penalty *= 2.0 * weight
        ws.grad_W += ws.penalty
    return ws.grad


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
    Biases receive no penalty component.  The POEM objectives take the
    gradient of :func:`poem_build_surrogate` at ``policy`` on ``batch``,
    which touches the objective there (at zero variance, where sqrt has no
    derivative, it drops the variance term).
    """
    _check_prior(config.objective, prior, batch)
    _check_dims(policy, batch)
    columns = _coefficient_columns(config, batch)
    if config.objective in POEM_FAMILY:
        surrogate = poem_build_surrogate(policy, batch, config.tau, config.lam)
        columns += (surrogate.alpha, surrogate.beta)
    m, (k, d) = batch.n, policy.weights.shape
    grad = _batch_gradient(
        config, policy.weights, policy.biases,
        None if prior is None else prior.weights, batch.features,
        np.arange(m) * k + batch.actions, columns, _StepWorkspace(m, k, d),
    )
    # New arrays: no later call writes into them.
    return grad[:, :d].copy(), grad[:, d].copy()


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
    degenerate: bool

    def value(self, policy: SoftmaxPolicy, data: LoggedDataset) -> float:
        """Surrogate value; ``data`` must be the dataset it was built on."""
        if data.n != self.alpha.shape[0]:
            raise ValueError("surrogate was built for a different dataset")
        _, u, _, _ = _poem_statistic(
            _matched_probs(policy, data), data.propensities, data.rewards,
            self.tau, moments=False,
        )
        return _compensated_mean(self.alpha * u * u + self.beta * u) + self.const


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
    the majorizer: the surrogate drops the penalty and is marked
    ``degenerate``, which :func:`train` logs for its epoch.
    """
    _check_count("n", data.n, 2)
    _check_nonnegative("lam", lam)
    _check_level("tau", tau)
    n = data.n
    pi = _matched_probs(policy_anchor, data)
    _, _, mean_u, var_u = _poem_statistic(pi, data.propensities, data.rewards, tau)
    if lam == 0.0 or var_u <= 0.0:
        return PoemSurrogate(
            alpha=np.zeros(n),
            beta=np.full(n, -1.0),
            const=0.0,
            tau=tau,
            degenerate=lam > 0.0,
        )
    q = lam * math.sqrt(n) / (2.0 * math.sqrt(var_u) * (n - 1))
    return PoemSurrogate(
        alpha=np.full(n, q),
        beta=np.full(n, -(1.0 + 2.0 * q * mean_u)),
        const=q * mean_u * mean_u + 0.5 * lam * math.sqrt(var_u / n),
        tau=tau,
        degenerate=False,
    )


# -----------------------------------------------------------------------
# Closed-form posterior variance
# -----------------------------------------------------------------------


def closed_form_sigma(data: LoggedDataset, tau: float, sigma0: float) -> float:
    """Analytic minimizer of the variance sub-objective on (0, sigma0].

    sigma* = min{ 2·k·d / (B²·τ·(n−1)·M), sigma0 } with k·d the log's
    weight count, B = ``data.feature_norm_bound`` and
    M = (1/n)·sum_i r_i / max(p_i, τ).  When every reward is zero or B = 0
    the unconstrained solution is infinite and the constrained minimizer
    sits at the boundary sigma0.  A subnormal τ can overflow a term of M,
    though τ·M = mean(r_i·(τ/max(p_i, τ))) stays in range; only then is
    sigma* formed from τ·M, so every other case keeps the formula's bits.
    """
    _check_level("tau", tau)
    _check_positive("sigma0", sigma0)
    _check_count("n", data.n, 2)
    B = data.feature_norm_bound
    floor = np.maximum(data.propensities, tau)
    with np.errstate(over="ignore"):
        terms = data.rewards / floor
    if np.isinf(terms).any():
        tau_M = _compensated_mean(data.rewards * (tau / floor))
        denominator = B * B * (data.n - 1) * tau_M
    else:
        denominator = B * B * tau * (data.n - 1) * _compensated_mean(terms)
    if denominator <= 0.0:
        return sigma0
    return min(2.0 * (data.k * data.d) / denominator, sigma0)


# -----------------------------------------------------------------------
# Training loop
# -----------------------------------------------------------------------


def train(
    config: TrainConfig,
    data: LoggedDataset,
    prior: Optional[SoftmaxPolicy] = None,
    *,
    _trace: bool = True,
) -> TrainReport:
    """Run the full seeded protocol and return the trained policy.

    Deterministic for fixed (config, data): one RNG stream drives the
    per-epoch shuffles.  The trace holds the exact objective on the full
    dataset at the end of every epoch.  POEM-family runs rebuild their
    surrogate at each epoch start and follow surrogate gradients; all other
    objectives follow their exact mini-batch gradients.  Raises
    :class:`DivergenceError` the moment anything non-finite appears: a
    non-finite batch gradient names its epoch and batch, a non-finite
    epoch-end objective its epoch.

    The private ``_trace=False`` is for callers that keep only the final
    policy.  Such a run returns an empty trace and detects a
    non-finite epoch-end objective through :func:`_objective_certified`,
    evaluating the objective only where the certificate fails; the final
    policy and every raise are those of the traced run.
    """
    _check_prior(config.objective, prior, data)
    t0 = time.perf_counter()
    n, d, k = data.n, data.d, data.k
    # One parameter block theta = [W | b], with W and b views into it;
    # AdaGrad's squared-gradient accumulator and the update's scratch have
    # its shape, so one update runs over weights and biases together.
    theta = np.zeros((k, d + 1))
    W, b = theta[:, :d], theta[:, d]
    acc = np.zeros_like(theta)
    step = np.empty_like(theta)
    rng = np.random.default_rng(config.seed)
    is_poem = config.objective in POEM_FAMILY
    W0 = prior.weights if prior is not None else None
    columns = _coefficient_columns(config, data)
    # Record i of an epoch is row i mod B of its batch: its flat index into
    # the batch's (B, k) probability rows is (i mod B)·k + a_i.
    row_offsets = np.arange(n) % _BATCH_SIZE * k
    # Each batch's slice of the epoch and the workspace of its size.
    full = _StepWorkspace(_BATCH_SIZE, k, d) if n >= _BATCH_SIZE else None
    batches = [
        (slice(start, start + _BATCH_SIZE),
         full if start + _BATCH_SIZE <= n else _StepWorkspace(n - start, k, d))
        for start in range(0, n, _BATCH_SIZE)
    ]

    trace: list[float] = []
    epoch_times: list[float] = []
    for epoch in range(config.epochs):
        epoch_columns = columns
        if is_poem:
            surrogate = poem_build_surrogate(
                SoftmaxPolicy(W, b), data, config.tau, config.lam
            )
            if surrogate.degenerate:
                logger.warning("epoch %d: anchor sample variance is zero; "
                               "dropping the variance penalty", epoch)
            epoch_columns = columns + (surrogate.alpha, surrogate.beta)
        perm = rng.permutation(n)
        X = data.features[perm]
        flat = row_offsets + data.actions[perm]
        epoch_columns = tuple(c[perm] for c in epoch_columns)
        # Non-finite values inside a batch are not a condition numpy should
        # warn about: they are detected and raised as DivergenceError.
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, (batch, ws) in enumerate(batches):
                grad = _batch_gradient(
                    config, W, b, W0, X[batch], flat[batch],
                    [c[batch] for c in epoch_columns], ws,
                )
                # The sum is non-finite whenever an entry is; a sum of finite
                # entries that overflows is re-checked entry by entry.  Frozen
                # biases are checked too, and only then zeroed.
                if not math.isfinite(grad.sum()) and not np.isfinite(grad).all():
                    raise DivergenceError(epoch, batch_index, float("nan"))
                if not config.train_biases:
                    grad[:, d] = 0.0
                np.multiply(grad, grad, out=step)
                acc += step
                np.sqrt(acc, out=step)
                step += _ADAGRAD_SMOOTHING
                grad *= _LEARNING_RATE
                grad /= step
                theta -= grad
        if _trace or not _objective_certified(config, W, b, W0, data):
            value = objective_value(config, SoftmaxPolicy(W, b), prior, data)
            if not math.isfinite(value):
                raise DivergenceError(epoch, None, value)
            if _trace:
                trace.append(value)
                epoch_times.append(time.perf_counter() - t0)

    if config.objective == "logging_nll":
        sigma_star: Optional[float] = None
    else:
        sigma_star = closed_form_sigma(data, config.tau, config.sigma0)
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
    _check_positive("lam", lam)
    config = TrainConfig(
        objective="logging_nll", lam=lam, epochs=epochs, seed=seed,
        train_biases=False,
    )
    return train(config, data, _trace=False).final_policy


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
    config: TrainConfig,
    train_idx: np.ndarray,
    holdout_idx: np.ndarray,
    prior: Optional[SoftmaxPolicy],
) -> float:
    try:
        report = train(config, data.subset(train_idx), prior=prior, _trace=False)
    except DivergenceError:
        return float("-inf")
    holdout = data.subset(holdout_idx)
    return 1.0 - truncated_ips_risk(report.final_policy, holdout, config.tau)


def cross_validate(
    data: LoggedDataset,
    lambda_grid: Sequence[float],
    num_folds: int,
    config: TrainConfig,
    prior: Optional[SoftmaxPolicy] = None,
) -> tuple[float, list[CVRow]]:
    """Grid-search a regularization weight of ``config.objective`` by k-fold
    cross-validation, with every seed derived from ``config.seed``.

    Each grid value trains on k−1 folds for ``config.epochs`` epochs and is
    scored by the truncated importance-weighted reward estimate on the
    held-out fold; scores are averaged over folds.  Returns the winning
    value (ties break toward the smaller one; runs that diverge score −inf)
    and the full table, or raises ``FloatingPointError`` when every grid
    value scores −inf, since there is then no value to select.  Every grid
    value is checked like ``TrainConfig.lam``, and a ``num_folds`` whose
    largest holdout leaves fewer than two training records is rejected,
    before any job runs.  The grid always drives
    ``lam`` (the distance penalty for LPR/L2 methods, the variance penalty
    for the POEM methods); ``poem_l2``'s ridge weight stays at
    ``config.lambda_l2``.

    Each job's seed depends only on its own (value, fold) tag, and the
    jobs run in worker processes (see the module docstring); the table is
    the same at any worker count.
    """
    if len(lambda_grid) == 0:
        raise ValueError("lambda_grid must be nonempty")
    _check_count("num_folds", num_folds, 2)
    if config.objective == "logging_nll":
        raise ValueError("cross-validation needs a policy objective, not logging_nll")
    _check_prior(config.objective, prior, data)
    # The largest holdout has ceil(n / num_folds) records; training needs 2.
    train_size = data.n + (-data.n // num_folds)
    if train_size < 2:
        raise ValueError(
            f"num_folds={num_folds} leaves {train_size} of the {data.n} "
            "records for training; training needs at least 2"
        )
    splits = kfold_split(data.n, num_folds, derive_seed(config.seed, "cv-folds"))
    jobs = [
        (replace(config, lam=lam,
                 seed=derive_seed(config.seed, f"cv:lam={lam!r}:fold={fold}")),
         *splits[fold])
        for lam in lambda_grid
        for fold in range(num_folds)
    ]

    def run(index: int) -> float:
        return _cv_job(data, *jobs[index], prior)

    scores = map_jobs(run, len(jobs))
    table: list[CVRow] = []
    for row, lam in enumerate(lambda_grid):
        fold_scores = tuple(scores[row * num_folds:(row + 1) * num_folds])
        table.append(CVRow(lam=lam, fold_scores=fold_scores,
                           mean_score=_compensated_mean(np.array(fold_scores))))
    if all(row.mean_score == -math.inf for row in table):
        raise FloatingPointError(
            "training diverged for every grid value; no lambda to select"
        )
    best = max(table, key=lambda row: (row.mean_score, -row.lam))
    return best.lam, table


# -----------------------------------------------------------------------
# Exact convex solver for the regularized likelihood fit
# -----------------------------------------------------------------------


# Damped Newton for the exact fit.  Objective values carry a relative
# rounding error near 1e-16, so Armijo cannot judge a step whose model
# decrease is below _RESOLUTION of the value; such a step is taken whole.
_NEWTON_STEPS = 50
_NEWTON_TOL = 1e-10
_ARMIJO = 1e-4
_RESOLUTION = 1e-12


def solve_logging_nll_exact(data: LoggedDataset, lam: float) -> SoftmaxPolicy:
    """Solve the weights-only regularized likelihood fit to high precision.

    Minimizes the ``logging_nll`` objective mean(-ln pi(a_i|x_i)) + lam·‖W‖²
    over W, biases fixed at zero, by damped Newton steps from W = 0 with
    Armijo backtracking.  Returns once the computed ‖gradient‖ is at most
    t = max(2·lam·1e-10, eps·B), eps the float64 epsilon and B the log's
    feature norm bound: each record's data-gradient entries are at most B,
    so eps·B is the gradient's rounding unit.  By 2·lam strong convexity W
    is then within t/(2·lam) of the unique minimizer, up to that rounding:
    1e-10 for lam ≥ 1.2e-6·B, eps·B/(2·lam) below.  Raises
    ``FloatingPointError`` if the step cap comes first.  Each step solves a
    (k·d)-square system: this is for exact baselines, not big fits.
    """
    _check_positive("lam", lam)
    config = TrainConfig("logging_nll", lam=lam, train_biases=False)
    X, n, d, k = data.features, data.n, data.d, data.k
    stop = max(2.0 * lam * _NEWTON_TOL, np.finfo(float).eps * data.feature_norm_bound)
    zeros = np.zeros(k)
    w = np.zeros(k * d)
    for _ in range(_NEWTON_STEPS):
        policy = SoftmaxPolicy(w.reshape(k, d), zeros)
        g = objective_gradient(config, policy, None, data)[0].ravel()
        if float(np.linalg.norm(g)) <= stop:
            return policy
        # The Hessian (1/n)·sum_i (diag P_i − P_i P_iᵀ) ⊗ x_i x_iᵀ + 2·lam·I:
        # with rows A_i = P_i ⊗ x_i it is blockdiag_c(A_cᵀ X) − AᵀA, over n.
        P = _softmax_rows(policy.logits(X))
        A = P[:, :, None] * X[:, None, :]
        H = -(A.reshape(n, k * d).T @ A.reshape(n, k * d))
        c = np.arange(k)
        H.reshape(k, d, k, d)[c, :, c] += A.transpose(1, 2, 0) @ X
        H /= n
        H[np.diag_indices(k * d)] += 2.0 * lam
        step = np.linalg.solve(H, -g)
        decrease = -float(g @ step)  # gᵀH⁻¹g, twice the model decrease
        value = objective_value(config, policy, None, data)
        t = 1.0
        # Halve t until the Armijo test passes (a NaN value fails it).
        while t * decrease > _RESOLUTION * value and not objective_value(
            config, SoftmaxPolicy((w + t * step).reshape(k, d), zeros), None, data
        ) <= value - _ARMIJO * t * decrease:
            t *= 0.5
        w = w + t * step
    raise FloatingPointError(
        f"no optimality certificate after {_NEWTON_STEPS} Newton steps"
    )


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
    with _writing(path) as fh:
        fh.write(json.dumps(doc, indent=1))
