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

The training kernel works on a stack of L runs at once: run l's parameters
are block l of an (L, k, d+1) array theta = [W | b], as are its AdaGrad
accumulator and its gradient, so one in-place update covers the weights and
biases of every run and one sum over the gradient blocks checks them for
non-finite entries (frozen biases are checked too, and zeroed only after
the check).  :func:`train` is the stack of one run; cross-validation stacks
its jobs.  Each stack allocates its step buffers once per height (see
:class:`_StepWorkspace`), and every step writes into them.  Every
operation reads slice l for run l, so each run keeps the bits of the plain
numpy expressions, which a run alone has: lr·g is formed before the
division by smoothing + sqrt(acc), the IPS coefficient (−r/max(p, tau))·pi
before the division by the batch size, and the softmax is the package's
one softmax, run on the transposed view of the batch's record-major
logits, which keeps numpy's own row sum.

Each epoch shuffles each run's records with its own generator and gathers
their indices and per-record columns once; each step takes its batch's
contexts from the log.  :func:`train` evaluates the exact objective on the
full data after every epoch and keeps it as the trace; a POEM run builds
its next surrogate from the moments of that evaluation, so a traced POEM
epoch makes one full-data softmax pass.  Callers that keep only the final
policy (cross-validation jobs and :func:`learn_logging_policy`) run
trace-free: at each epoch end a cheap certificate (see
:func:`_objective_certified`) proves the objective finite, and the full
objective is evaluated only when the certificate fails.  Both paths raise
the same :class:`DivergenceError` at the same point; in a stack, the run
that meets it leaves the stack there and the others go on.

Cross-validation builds its (value, fold) jobs first, each a config with
the value as lam and a seed derived from its own (value, fold) tag, so
every grid value is checked, and a repeated one rejected, before any job
runs.  It splits the jobs into one contiguous chunk per worker process of
``crmlab._jobs.map_jobs``: min(jobs, usable CPUs) processes forked from
the caller, which share its data and prior without copying them.  Only a
chunk index goes to a worker and only the chunk's scores come back.  A
worker trains its chunk as one lockstep stack per training-set size (fold
sizes differ by at most one, so at most two stacks); its memory beyond the
shared log is O(L·n) for the runs' shuffled indices and columns and
O(L·100·d) for a step's contexts, plus, for the POEM objectives, a copy of
each fold's training set for the surrogate's full-data pass.  The scores
are merged in (value, fold) order, and every run has the bits it has
alone, so the table is bit-identical at any worker count.  With one
worker, without the ``fork`` start method, or inside a daemonic worker
process, the chunks run in process.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import _jobs
from .datasets import LoggedDataset, kfold_split
from .estimators import (
    _compensated_mean, _poem_statistic, _reward_mean, truncated_ips_risk,
)
from .policies import (
    SoftmaxPolicy, _check_count, _check_dims, _check_level, _check_nonnegative,
    _check_positive, _distance_sq, _matched_probs, _softmax_rows, _writing,
    action_prob_matrix,
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


def _poem_moments(
    policy: SoftmaxPolicy, data: LoggedDataset, tau: float
) -> tuple[float, float]:
    """(mean_u, var_u) of the POEM statistic of ``policy`` on ``data``: one
    full-data pass, which the objective and its surrogate both read."""
    _, _, mean_u, var_u = _poem_statistic(
        _matched_probs(policy, data), data.propensities, data.rewards, tau
    )
    return mean_u, var_u


def objective_value(
    config: TrainConfig,
    policy: SoftmaxPolicy,
    prior: Optional[SoftmaxPolicy],
    data: LoggedDataset,
    *,
    _moments: Optional[tuple[float, float]] = None,
) -> float:
    """Exact value of the configured objective on ``data``.

    ``prior`` is required for the LPR objectives and rejected otherwise.
    The POEM objectives need at least two records.  The private
    ``_moments`` are a POEM objective's :func:`_poem_moments` at ``policy``
    on ``data``, already computed; they stand in for its full-data pass.
    """
    _check_prior(config.objective, prior, data)
    obj = config.objective
    if obj in POEM_FAMILY:
        _check_dims(policy, data)
        _check_count("n", data.n, 2)
        mean_u, var_u = _moments or _poem_moments(policy, data, config.tau)
        data_term = -mean_u + config.lam * math.sqrt(var_u / data.n)
        return _penalized(config, data_term, policy.weights, None)

    pi = _matched_probs(policy, data)
    p, r = data.propensities, data.rewards
    tau = config.tau
    if obj == "wnll_lpr":
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
    """The buffers of :func:`_batch_gradient` for a stack of L runs on
    batches of m records, allocated once per stack and batch size:

    * ``logits``   (L, m, k) logits, then probabilities, then the logit
      gradient;
    * ``row``      (L, m) matched probabilities;
    * ``coef``     (L, m) per-record gradient coefficient;
    * ``penalty``  (L, k, d) penalty gradient;
    * ``grad``     (L, k, d+1) gradient blocks [gW | gb].

    The views the step needs are made here once, not at every step.
    """

    def __init__(self, L: int, m: int, k: int, d: int):
        self.logits = np.empty((L, m, k))
        self.logits_flat = self.logits.reshape(-1)
        self.logits_t = self.logits.transpose(0, 2, 1)
        self.row = np.empty((L, m))
        self.coef = np.empty((L, m))
        self.coef_column = self.coef[..., None]
        self.penalty = np.empty((L, k, d))
        self.grad = np.empty((L, k, d + 1))
        self.grad_W, self.grad_b = self.grad[..., :d], self.grad[..., d]


def _penalty_columns(
    configs: Sequence[TrainConfig], W0: Optional[np.ndarray]
) -> Optional[tuple[np.ndarray, Optional[np.ndarray]]]:
    """The :func:`_penalty` of each run as (2·weight, center), the doubled
    weights an (L, 1, 1) column; None for ``poem``.  The runs share an
    objective, so they share the center."""
    penalties = [_penalty(config, W0) for config in configs]
    if penalties[0] is None:
        return None
    twice = np.array([2.0 * weight for weight, _ in penalties])
    return twice[:, None, None], penalties[0][1]


class _Runs:
    """The live runs of a lockstep fit, indexed alike along a leading run
    axis: each run's place in the caller's list, config, shuffling
    generator, training records (indices into the log, None for all of it)
    and POEM moments, and the stacked parameter blocks theta = [W | b],
    AdaGrad accumulators and penalty column.  :meth:`keep` drops runs."""

    def __init__(
        self,
        configs: Sequence[TrainConfig],
        train_sets: Sequence[Optional[np.ndarray]],
        k: int,
        d: int,
        W0: Optional[np.ndarray],
    ):
        self.slots = list(range(len(configs)))
        self.configs = list(configs)
        self.rngs = [np.random.default_rng(config.seed) for config in configs]
        self.train_sets = list(train_sets)
        self.moments: list = [None] * len(configs)
        # One parameter block per run, with W and b views into it;
        # AdaGrad's squared-gradient accumulator and the update's scratch
        # have its shape, so one update runs over weights and biases of
        # every run together.
        self.theta = np.zeros((len(configs), k, d + 1))
        self.acc = np.zeros_like(self.theta)
        self.penalty = _penalty_columns(configs, W0)
        self._views()

    @classmethod
    def at(
        cls, policy: SoftmaxPolicy, config: TrainConfig, W0: Optional[np.ndarray]
    ) -> _Runs:
        """One run with ``config``, its parameters set to ``policy``'s."""
        runs = cls([config], [None], policy.k, policy.d, W0)
        runs.W[0], runs.b[0] = policy.weights, policy.biases
        return runs

    def _views(self) -> None:
        # The views the step reads, made once per stack height.
        d = self.theta.shape[2] - 1
        self.W, self.b = self.theta[..., :d], self.theta[..., d]
        self.W_t = self.W.transpose(0, 2, 1)
        self.b_rows = self.theta[:, None, :, d]
        self.step = np.empty_like(self.theta)

    def __len__(self) -> int:
        return len(self.slots)

    def keep(self, mask: np.ndarray) -> None:
        """Keep the runs where ``mask`` is true, in order."""
        kept = np.flatnonzero(mask)
        for name in ("slots", "configs", "rngs", "train_sets", "moments"):
            setattr(self, name, [getattr(self, name)[j] for j in kept])
        self.theta, self.acc = self.theta[kept], self.acc[kept]
        if self.penalty is not None:
            self.penalty = (self.penalty[0][kept], self.penalty[1])
        self._views()


def _batch_gradient(
    config: TrainConfig,
    runs: _Runs,
    X: np.ndarray,
    flat: np.ndarray,
    columns: Sequence[np.ndarray],
    ws: _StepWorkspace,
) -> np.ndarray:
    """Training gradients of the L ``runs`` w.r.t. their blocks [W | b], on
    their gathered mini-batches ``X`` (L, m, d), written into ``ws.grad``
    (L, k, d+1) and returned there.  The runs share ``config`` but for the
    penalty weight, and run l reads only slice l of every array, so each
    slice has the bits of a stack of one.

    ``flat`` (L, m) holds each record's flat index l·m·k + i·k + a_i into
    the stack's (L, m, k) probability rows, and ``columns`` are the
    batches' entries of :func:`_coefficient_columns`, both gathered in the
    order of ``X``.  Every data term has the per-record logit gradient
    c_i·(e_{a_i} − P_i), so the objectives differ only in the coefficient
    c_i, which carries the 1/m batch average; for POEM it is
    (2·alpha_i·u_i + beta_i)·du_i/dz_i/m with the surrogates' (alpha, beta)
    ending ``columns``.  Ratio-capped records contribute zero through u
    (the flat side of the min).  The runs' weights-only penalty is added
    at full strength.

    Every operation but the softmax's, which allocates an action-major
    copy for its max and two (L, m) rows, writes into ``ws``, and each
    keeps the order of the plain numpy expression, (−r/max(p, tau))·pi
    before /m included, so the bits are those of that expression.
    """
    m = X.shape[1]
    P, pi, coef = ws.logits, ws.row, ws.coef
    np.matmul(X, runs.W_t, out=P)
    P += runs.b_rows
    _softmax_rows(ws.logits_t)
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
        coef_column = coef[..., None]
    # E − P: 1 − pi is exactly −pi + 1.
    np.negative(P, out=P)
    ws.logits_flat.put(flat, np.subtract(1.0, pi, out=pi))
    if obj == "logging_nll":
        # c_i = -1/m for every record, applied as a division by -m: a
        # multiplication by -1/m would round differently.
        P /= -m
    else:
        P *= coef_column
    np.matmul(ws.logits_t, X, out=ws.grad_W)
    np.add.reduce(P, axis=1, out=ws.grad_b)

    # Nothing is added for poem: a zero penalty would turn −0.0 into +0.0.
    if runs.penalty is not None:
        twice_weight, center = runs.penalty
        if center is None:
            np.multiply(runs.W, twice_weight, out=ws.penalty)
        else:
            np.subtract(runs.W, center, out=ws.penalty)
            ws.penalty *= twice_weight
        ws.grad_W += ws.penalty
    return ws.grad


def _adagrad_update(
    theta: np.ndarray, acc: np.ndarray, grad: np.ndarray, step: np.ndarray
) -> None:
    """One AdaGrad step on a stack of parameter blocks, in place:
    acc += g², theta −= (lr·g)/(smoothing + sqrt(acc)).  ``grad`` is
    overwritten, and ``step``, shaped like them, is scratch."""
    np.multiply(grad, grad, out=step)
    acc += step
    np.sqrt(acc, out=step)
    step += _ADAGRAD_SMOOTHING
    grad *= _LEARNING_RATE
    grad /= step
    theta -= grad


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
    # The stack of one run, at ``policy``.
    runs = _Runs.at(policy, config, None if prior is None else prior.weights)
    grad = _batch_gradient(
        config, runs, batch.features[None],
        (np.arange(m) * k + batch.actions)[None],
        [column[None] for column in columns], _StepWorkspace(1, m, k, d),
    )
    # New arrays: no later call writes into them.
    return grad[0, :, :d].copy(), grad[0, :, d].copy()


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
    policy_anchor: SoftmaxPolicy,
    data: LoggedDataset,
    tau: float,
    lam: float,
    *,
    _moments: Optional[tuple[float, float]] = None,
) -> PoemSurrogate:
    """Build the per-epoch majorizer at ``policy_anchor``.

    Uses the tangent majorization of sqrt at the anchor variance combined
    with the quadratic domination of the centered second moment, giving
    per-record coefficients

        alpha_i = q,   beta_i = -(1 + 2·q·mean_u)

    with q = lam·sqrt(n) / (2·sqrt(S_t)·(n−1)) and constant
    q·mean_u² + (lam/2)·sqrt(S_t/n).  A zero anchor variance degenerates
    the majorizer: the surrogate drops the penalty and is marked
    ``degenerate``, which :func:`train` logs for its epoch.  The private
    ``_moments``, as in :func:`objective_value`, stand in for the full-data
    pass at the anchor.
    """
    _check_count("n", data.n, 2)
    _check_nonnegative("lam", lam)
    _check_level("tau", tau)
    n = data.n
    mean_u, var_u = _moments or _poem_moments(policy_anchor, data, tau)
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


def _fit(
    configs: Sequence[TrainConfig],
    data: LoggedDataset,
    train_sets: Sequence[Optional[np.ndarray]],
    prior: Optional[SoftmaxPolicy],
    trace: Optional[list] = None,
) -> list:
    """Train run j, with ``configs[j]``, on the records ``train_sets[j]``
    of ``data`` (all of them for None), for every j at once, in lockstep;
    returns each run's final policy, or the :class:`DivergenceError` that
    ended it, in the order of ``configs``.

    The runs share every config field but ``lam`` and ``seed``, and their
    training sets have one size n.  Each step stacks the runs' batches into
    one :func:`_batch_gradient` call and one :func:`_adagrad_update`, and
    each run keeps its own per-epoch permutations, penalty weight, POEM
    surrogate and epoch-end check, so every run has the bits it gets in a
    stack of one, which is what :func:`train` runs.  A run that meets a
    non-finite gradient or objective leaves the stack there.  A given
    ``trace`` (one run only) collects (objective, ``time.perf_counter()``)
    after every epoch; otherwise the epoch-end check is
    :func:`_objective_certified`, and the objective is evaluated only where
    it fails.

    Each epoch gathers the runs' shuffled record indices, flat indices and
    coefficient columns, (L, n) arrays; each step gathers its (L, m, d)
    contexts from the shared log.  A run's own training set is copied out
    only when an objective or a POEM surrogate needs a full-data pass on
    it, once per distinct index array.
    """
    config = configs[0]
    k, d = data.k, data.d
    n = data.n if train_sets[0] is None else len(train_sets[0])
    W0 = prior.weights if prior is not None else None
    is_poem = config.objective in POEM_FAMILY
    columns = _coefficient_columns(config, data)
    runs = _Runs(configs, train_sets, k, d, W0)
    results: list = [None] * len(configs)
    subsets: dict = {}

    def training_set(j: int) -> LoggedDataset:
        idx = runs.train_sets[j]
        if idx is None:
            return data
        # Runs of one fold share its index array, and so its subset.
        if id(idx) not in subsets:
            subsets[id(idx)] = data.subset(idx)
        return subsets[id(idx)]

    # Record i of an epoch is row i mod B of its batch, which has m_i
    # records: its flat index into run l's batch probability rows is
    # l·m_i·k + (i mod B)·k + a_i.  Each batch's slice of the epoch and the
    # workspace of its size, for the stack's current height.
    starts = range(0, n, _BATCH_SIZE)
    sizes = np.minimum(n - np.arange(n) // _BATCH_SIZE * _BATCH_SIZE, _BATCH_SIZE)

    def layout():
        L = len(runs)
        offsets = np.arange(L)[:, None] * (sizes * k) + np.arange(n) % _BATCH_SIZE * k
        full = _StepWorkspace(L, _BATCH_SIZE, k, d) if n >= _BATCH_SIZE else None
        batches = [
            (slice(start, start + _BATCH_SIZE),
             full if start + _BATCH_SIZE <= n
             else _StepWorkspace(L, n - start, k, d))
            for start in starts
        ]
        return offsets, batches

    row_offsets, batches = layout()
    for epoch in range(config.epochs):
        if is_poem:
            surrogates = []
            for j, run_config in enumerate(runs.configs):
                surrogate = poem_build_surrogate(
                    SoftmaxPolicy(runs.W[j], runs.b[j]), training_set(j),
                    config.tau, run_config.lam, _moments=runs.moments[j],
                )
                if surrogate.degenerate:
                    logger.warning("epoch %d: anchor sample variance is zero; "
                                   "dropping the variance penalty", epoch)
                surrogates.append(surrogate)
        perms = [rng.permutation(n) for rng in runs.rngs]
        rows = np.stack([perm if idx is None else idx[perm]
                         for perm, idx in zip(perms, runs.train_sets)])
        flat = row_offsets + data.actions[rows]
        epoch_columns = [column[rows] for column in columns]
        if is_poem:
            epoch_columns += [
                np.stack([s.alpha[perm] for s, perm in zip(surrogates, perms)]),
                np.stack([s.beta[perm] for s, perm in zip(surrogates, perms)]),
            ]
        # Non-finite values inside a batch are not a condition numpy should
        # warn about: they are detected and the run leaves the stack.
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index in range(len(batches)):
                batch, ws = batches[batch_index]
                # The (L, m, d) contexts, by one take (cheaper than fancy
                # indexing by the 2-D index array).
                X = data.features.take(rows[:, batch], axis=0)
                grad = _batch_gradient(
                    config, runs, X, flat[:, batch],
                    [column[:, batch] for column in epoch_columns], ws,
                )
                # The sum is non-finite whenever an entry is; a sum of finite
                # entries that overflows is re-checked entry by entry.  Frozen
                # biases are checked too, and only then zeroed.
                if not math.isfinite(grad.sum()):
                    finite = np.isfinite(grad).all(axis=(1, 2))
                    if not finite.all():
                        for j in np.flatnonzero(~finite):
                            results[runs.slots[j]] = DivergenceError(
                                epoch, batch_index, float("nan"))
                        runs.keep(finite)
                        if not runs:
                            return results
                        grad, rows = grad[finite], rows[finite]
                        epoch_columns = [c[finite] for c in epoch_columns]
                        row_offsets, batches = layout()
                        flat = row_offsets + data.actions[rows]
                if not config.train_biases:
                    grad[..., d] = 0.0
                _adagrad_update(runs.theta, runs.acc, grad, runs.step)

        # Each run's objective, where it is evaluated rather than certified.
        diverged = {}
        for j, run_config in enumerate(runs.configs):
            runs.moments[j] = None
            W, b = runs.W[j], runs.b[j]
            if trace is not None or not _objective_certified(
                    run_config, W, b, W0, data):
                run_data = training_set(j)
                policy = SoftmaxPolicy(W, b)
                if is_poem:
                    runs.moments[j] = _poem_moments(policy, run_data, config.tau)
                value = objective_value(run_config, policy, prior, run_data,
                                        _moments=runs.moments[j])
                if not math.isfinite(value):
                    diverged[j] = value
                elif trace is not None:
                    trace.append((value, time.perf_counter()))
        if diverged:
            for j, value in diverged.items():
                results[runs.slots[j]] = DivergenceError(epoch, None, value)
            runs.keep([j not in diverged for j in range(len(runs))])
            if not runs:
                return results
            row_offsets, batches = layout()

    for j, slot in enumerate(runs.slots):
        results[slot] = SoftmaxPolicy(runs.W[j], runs.b[j])
    return results


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
    surrogate at each epoch start, from the moments of the previous epoch's
    evaluation where there was one, and follow surrogate gradients; all other
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
    trace: Optional[list] = [] if _trace else None
    # The stack of one run.
    (final,) = _fit([config], data, [None], prior, trace)
    if isinstance(final, DivergenceError):
        raise final
    if config.objective == "logging_nll":
        sigma_star: Optional[float] = None
    else:
        sigma_star = closed_form_sigma(data, config.tau, config.sigma0)
    return TrainReport(
        final_policy=final,
        objective_trace=[value for value, _ in trace or ()],
        sigma_star=sigma_star,
        wall_time=time.perf_counter() - t0,
        epoch_wall_times=[stamp - t0 for _, stamp in trace or ()],
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


def _cv_scores(
    data: LoggedDataset,
    jobs: Sequence[tuple[TrainConfig, np.ndarray, np.ndarray]],
    prior: Optional[SoftmaxPolicy],
) -> list[float]:
    """Holdout scores of the (config, training indices, holdout indices)
    ``jobs``, in order.  The jobs of each training-set size train as one
    lockstep stack (:func:`_fit`); a run that diverges scores −inf."""
    scores = [0.0] * len(jobs)
    for size in sorted({len(train_idx) for _, train_idx, _ in jobs}):
        members = [i for i, (_, train_idx, _) in enumerate(jobs)
                   if len(train_idx) == size]
        finals = _fit([jobs[i][0] for i in members], data,
                      [jobs[i][1] for i in members], prior)
        for i, final in zip(members, finals):
            config, _, holdout_idx = jobs[i]
            if isinstance(final, DivergenceError):
                scores[i] = -math.inf
            else:
                holdout = data.subset(holdout_idx)
                scores[i] = 1.0 - truncated_ips_risk(final, holdout, config.tau)
    return scores


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
    for row, lam in enumerate(lambda_grid):
        for earlier in lambda_grid[:row]:
            if earlier == lam:
                raise ValueError("lambda_grid values must be distinct, got "
                                 f"{earlier!r} and {lam!r}")
    # One contiguous chunk of jobs per worker.
    chunks = np.array_split(np.arange(len(jobs)), _jobs.worker_count(len(jobs)))

    def run(chunk: int) -> list[float]:
        return _cv_scores(data, [jobs[i] for i in chunks[chunk]], prior)

    scores = [score for chunk_scores in _jobs.map_jobs(run, len(chunks))
              for score in chunk_scores]
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
        P = action_prob_matrix(policy, X)
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


def save_train_report(
    path, report: TrainReport, config: TrainConfig, *,
    _staged: Optional[list] = None,
) -> None:
    """Write a training report as structured text next to the model file.
    The private ``_staged`` is as in :func:`crmlab.policies.save_model`."""
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
    with _writing(path, _staged) as fh:
        fh.write(json.dumps(doc, indent=1))
