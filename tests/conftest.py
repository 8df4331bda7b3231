"""Shared fixtures: the enumerable task, its logging policy, and small logs."""

import math

import numpy as np
import pytest

from crmlab import (
    LoggedDataset,
    SoftmaxPolicy,
    TrainConfig,
    default_logging_policy,
    enumerable_task,
    objective_value,
    task_logs,
    zero_policy,
)
from crmlab.learning import _batch_gradient, _coefficient_columns, _StepWorkspace


@pytest.fixture(scope="session")
def task():
    return enumerable_task()


@pytest.fixture(scope="session")
def logging_policy(task):
    return default_logging_policy(task)


@pytest.fixture(scope="session")
def logs400(task, logging_policy):
    return task_logs(task, logging_policy, 400, seed=777)


@pytest.fixture(scope="session")
def logs2000(task, logging_policy):
    return task_logs(task, logging_policy, 2000, seed=20260815)


def one_record(propensity, reward):
    """Single-record logged dataset whose matched action prob is exactly 0.5.

    Built from a zero policy on a zero context (k=2), so the softmax is the
    exact float 0.5 and hand-computed estimator values are exact too.
    """
    X = np.zeros((1, 1))
    return LoggedDataset(
        features=X,
        actions=np.array([0]),
        propensities=np.array([float(propensity)]),
        rewards=np.array([float(reward)]),
        k=2,
        feature_norm_bound=0.0,
    )


def floor_propensity_logged(propensity=1e-307):
    """200 logged records (k=3, unit contexts, reward 1) whose every
    propensity is ``propensity``.  At tau = 1e-307 each IPS term is near
    1/tau, so the record terms are finite but their sum passes the float
    maximum; at the subnormal 4e-309 every r/max(p, tau) overflows."""
    rng = np.random.default_rng(307)
    X = rng.normal(size=(200, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return LoggedDataset(X, rng.integers(0, 3, size=200),
                         np.full(200, propensity), np.ones(200), 3, 1.0)


def subnormal_propensity_logged():
    """200 logged records (k=3, unit contexts, rewards 0 or 1) whose every
    propensity is the subnormal 4e-309.  At tau = 4e-309 a rewarded
    record's r/max(p, tau) overflows to inf, and the POEM u values spread
    far enough that their squared deviations overflow too."""
    rng = np.random.default_rng(309)
    X = rng.normal(size=(200, 3))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return LoggedDataset(X, rng.integers(0, 3, size=200), np.full(200, 4e-309),
                         rng.integers(0, 2, size=200).astype(float), 3, 1.0)


def zero_feature_logged():
    """200 logged records (k=3, rewards 0 or 1) whose every feature is 0.0,
    so the feature norm bound B is 0."""
    rng = np.random.default_rng(310)
    return LoggedDataset(np.zeros((200, 4)), rng.integers(0, 3, size=200),
                         np.full(200, 1.0 / 3.0),
                         rng.integers(0, 2, size=200).astype(float), 3, 0.0)


@pytest.fixture
def half_prob_policy():
    return zero_policy(1, 2)


def random_logged(rng, n, d, k, min_propensity=0.05):
    """Random logged dataset with propensities bounded away from zero."""
    X = rng.normal(size=(n, d))
    actions = rng.integers(0, k, size=n)
    propensities = rng.uniform(min_propensity, 1.0, size=n)
    rewards = rng.uniform(0.0, 1.0, size=n)
    return LoggedDataset(X, actions, propensities, rewards, k)


def smooth_logged(rng, n, d, k):
    """Logged data with propensities away from every truncation kink."""
    return random_logged(rng, n, d, k, min_propensity=0.3)


def fd_gradient(config, policy, prior, data, h=1e-5):
    """Central finite differences of objective_value over all parameters."""
    W0, b0 = policy.weights, policy.biases
    gW = np.zeros_like(W0)
    gb = np.zeros_like(b0)

    def value(W, b):
        return objective_value(config, SoftmaxPolicy(W, b), prior, data)

    for idx in np.ndindex(W0.shape):
        Wp, Wm = W0.copy(), W0.copy()
        Wp[idx] += h
        Wm[idx] -= h
        gW[idx] = (value(Wp, b0) - value(Wm, b0)) / (2 * h)
    for i in range(b0.shape[0]):
        bp, bm = b0.copy(), b0.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (value(W0, bp) - value(W0, bm)) / (2 * h)
    return gW, gb


def surrogate_gradient(surrogate, policy, data, workspace=None):
    """Gradient of a POEM surrogate averaged over every record of ``data``,
    as new (weights, biases) arrays: the training kernel fed the
    surrogate's (alpha, beta) columns, the step :func:`train` takes inside
    a POEM epoch.  The surrogate majorizes the ``poem`` data term only, so
    no ridge enters.  ``workspace`` lets calls share step buffers, as
    training steps do."""
    config = TrainConfig(objective="poem", tau=surrogate.tau)
    columns = _coefficient_columns(config, data) + (surrogate.alpha,
                                                     surrogate.beta)
    (k, d), m = policy.weights.shape, data.n
    grad = _batch_gradient(
        config, policy.weights, policy.biases, None, data.features,
        np.arange(m) * k + data.actions, columns,
        workspace or _StepWorkspace(m, k, d),
    )
    return grad[:, :d].copy(), grad[:, d].copy()


def rel_gradient_error(analytic, numeric):
    ga = np.concatenate([analytic[0].ravel(), analytic[1].ravel()])
    gn = np.concatenate([numeric[0].ravel(), numeric[1].ravel()])
    return float(np.linalg.norm(ga - gn) / max(np.linalg.norm(gn), 1e-8))


def golden_section_min(f, lo, hi, iters=200):
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    return (a + b) / 2.0
