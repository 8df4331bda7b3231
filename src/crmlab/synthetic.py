"""Synthetic tasks with enumerable ground truth.

Two task families back the experiment harness:

* :class:`EnumerableTask`: a handful of fixed contexts with a known reward
  table, so the true risk of any policy is an exact finite sum.  Used to
  check estimator unbiasedness and bound validity against the truth.
* :class:`BlobTask`: a k-class Gaussian-blob classification problem with
  unit-norm features (so the feature norm bound is exactly 1), used for
  desk-scale sweeps: fit a logging policy on a small labeled slice, convert
  the rest to bandit logs, train, and score on fresh labeled data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import _REWARD, LabeledDataset, LoggedDataset
from .learning import learn_logging_policy
from .policies import (
    SoftmaxPolicy, _check_count, _check_dims, _check_nonnegative, _gumbel_max_log,
    action_prob_matrix,
)

__all__ = [
    "EnumerableTask",
    "enumerable_task",
    "default_logging_policy",
    "exact_risk",
    "exact_risk_of_probs",
    "task_logs",
    "BlobTask",
    "blob_task",
    "sample_labeled",
    "supervised_policy",
    "split_for_logging",
]


@dataclass(frozen=True)
class EnumerableTask:
    """Finite context set with a full reward table.

    ``contexts`` is (c, d), ``rewards`` is (c, k) with entries in [0, 1],
    and ``context_probs`` is the sampling distribution over contexts.
    """

    contexts: np.ndarray
    rewards: np.ndarray
    context_probs: np.ndarray

    def __post_init__(self) -> None:
        contexts = np.array(self.contexts, dtype=np.float64)
        rewards = np.array(self.rewards, dtype=np.float64)
        probs = np.array(self.context_probs, dtype=np.float64)
        if contexts.ndim != 2 or rewards.ndim != 2:
            raise ValueError("contexts and rewards must be 2-D")
        if rewards.shape[0] != contexts.shape[0]:
            raise ValueError("one reward row per context required")
        if probs.shape != (contexts.shape[0],):
            raise ValueError("context_probs must have one entry per context")
        if not _REWARD.accepts(rewards).all():
            raise ValueError("rewards must lie in [0, 1]")
        if np.any(probs < 0.0) or not np.isclose(probs.sum(), 1.0):
            raise ValueError("context_probs must be a distribution")
        for arr in (contexts, rewards, probs):
            arr.setflags(write=False)
        object.__setattr__(self, "contexts", contexts)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "context_probs", probs)

    @property
    def d(self) -> int:
        return self.contexts.shape[1]

    @property
    def k(self) -> int:
        return self.rewards.shape[1]

    @property
    def feature_norm_bound(self) -> float:
        return float(np.max(np.linalg.norm(self.contexts, axis=1)))


def enumerable_task() -> EnumerableTask:
    """The reference task: 5 one-hot contexts, 3 actions, fixed rewards.

    One-hot contexts make every context's action distribution an
    independent softmax column, which keeps hand analysis easy; the
    feature norm bound is exactly 1.
    """
    rewards = np.array(
        [
            [1.0, 0.0, 0.3],
            [0.2, 0.9, 0.0],
            [0.0, 0.4, 0.8],
            [0.7, 0.1, 0.5],
            [0.1, 0.6, 1.0],
        ]
    )
    return EnumerableTask(
        contexts=np.eye(5),
        rewards=rewards,
        context_probs=np.full(5, 0.2),
    )


def default_logging_policy(task: EnumerableTask) -> SoftmaxPolicy:
    """A fixed, moderately peaked logging policy for the reference task.

    Logits lean toward good actions without starving any action of
    probability, so propensities stay comfortably above typical truncation
    levels and importance weights stay modest.
    """
    weights = 1.2 * task.rewards.T @ np.asarray(task.contexts)
    return SoftmaxPolicy(weights, np.zeros(task.k))


def exact_risk(task: EnumerableTask, policy: SoftmaxPolicy) -> float:
    """True risk of a softmax policy: 1 − Σ_c P(c) Σ_a π(a|x_c)·R[c,a]."""
    probs = action_prob_matrix(policy, task.contexts)
    return exact_risk_of_probs(task, probs)


def exact_risk_of_probs(task: EnumerableTask, probs: np.ndarray) -> float:
    """True risk for explicit per-context action probabilities (c×k).

    Accepts any stochastic policy evaluated at the task contexts, e.g. a
    Monte Carlo estimate of a mixed-logit policy.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.shape != task.rewards.shape:
        raise ValueError(f"probs must have shape {task.rewards.shape}")
    reward = float(np.einsum("c,ca,ca->", task.context_probs, probs, task.rewards))
    return 1.0 - reward


def task_logs(
    task: EnumerableTask, policy: SoftmaxPolicy, n: int, seed: int
) -> LoggedDataset:
    """Simulate n logged records from ``policy`` interacting with the task.

    Contexts are drawn i.i.d. from ``context_probs``, actions by the
    Gumbel-max sampler, propensities are the exact softmax probabilities of
    the sampled actions, and rewards come from the reward table.
    """
    _check_count("n", n, 1)
    _check_dims(policy, task)
    rng = np.random.default_rng(seed)
    ctx_idx = rng.choice(task.contexts.shape[0], size=n, p=task.context_probs)
    X = task.contexts[ctx_idx]
    actions, propensities = _gumbel_max_log(policy, X, rng)
    return LoggedDataset(
        features=X,
        actions=actions,
        propensities=propensities,
        rewards=task.rewards[ctx_idx, actions],
        k=task.k,
        feature_norm_bound=task.feature_norm_bound,
    )


# -----------------------------------------------------------------------
# Gaussian-blob classification task
# -----------------------------------------------------------------------


@dataclass(frozen=True)
class BlobTask:
    """k-class task: class centers on the unit sphere, noisy unit-norm
    features.  ``noise`` scales isotropic Gaussian noise added before the
    features are renormalized; larger values make classes harder to
    separate."""

    centers: np.ndarray
    noise: float

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=np.float64)
        if centers.ndim != 2:
            raise ValueError("centers must be (k, d)")
        _check_nonnegative("noise", self.noise)
        centers.setflags(write=False)
        object.__setattr__(self, "centers", centers)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]


def blob_task(
    num_classes: int = 10, dim: int = 20, noise: float = 1.0, seed: int = 7
) -> BlobTask:
    """Draw class centers uniformly on the unit sphere."""
    _check_count("num_classes", num_classes, 2)
    _check_count("dim", dim, 1)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    return BlobTask(centers=centers, noise=noise)


def sample_labeled(task: BlobTask, n: int, seed: int) -> LabeledDataset:
    """Sample n labeled examples: uniform label, center-plus-noise feature,
    renormalized to unit length so the feature norm bound is exactly 1."""
    _check_count("n", n, 1)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, task.k, size=n)
    X = task.centers[labels] + task.noise * rng.standard_normal((n, task.d))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    # A zero vector is probability-zero; guard anyway.
    norms[norms == 0.0] = 1.0
    X /= norms
    return LabeledDataset(features=X, labels=labels, k=task.k)


def supervised_policy(
    data: LabeledDataset,
    lam: float = 0.01,
    *,
    epochs: int = 100,
    seed: int = 0,
) -> SoftmaxPolicy:
    """Fit a softmax classifier to labeled data by regularized NLL.

    Reuses the logging-policy fit by casting each example as a logged
    record with the label as action (propensity and reward are ignored by
    that objective).  Weights-only, biases zero.
    """
    logs = LoggedDataset(
        features=data.features,
        actions=data.labels,
        propensities=np.ones(len(data)),
        rewards=np.ones(len(data)),
        k=data.k,
    )
    return learn_logging_policy(logs, lam, epochs=epochs, seed=seed)


def split_for_logging(
    data: LabeledDataset, num_train: int, seed: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Split labeled data into (logging-policy train slice, bandit slice).

    Draws a seeded permutation and takes the first ``num_train`` examples
    for the supervised fit, leaving the rest for bandit conversion.
    """
    n = len(data)
    if not (0 < num_train < n):
        raise ValueError("num_train must lie strictly between 0 and n")
    perm = np.random.default_rng(seed).permutation(n)
    return data.subset(perm[:num_train]), data.subset(perm[num_train:])
