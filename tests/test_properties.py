"""Property tests of the estimators and the POEM surrogate over generated
logs, and of the risk bounds and certificates over generated inputs.

hypothesis comes with the ``test`` extra (``pip install .[test]``); without
it this module is skipped.  Runs are derandomized and keep no example
database, so every run checks the same examples and writes no files.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from crmlab import (  # noqa: E402
    BoundInputs,
    LoggedDataset,
    MixedLogitSpec,
    SoftmaxPolicy,
    StabilityParams,
    TrainConfig,
    certificates,
    crm_bound_all_tau,
    crm_bound_fixed_tau,
    ips_risk,
    mcallester_bound,
    objective_value,
    poem_build_surrogate,
    truncated_ips_risk,
)

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def logs_and_policies(draw, min_n=1):
    """A logged dataset of ``min_n`` to 40 records and a softmax policy over
    it.  Propensities reach down to 1e-12, so truncation binds at most tau."""
    n = draw(st.integers(min_n, 40))
    k = draw(st.integers(2, 5))
    d = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * draw(st.floats(0.1, 10.0))
    propensities = np.array(
        draw(st.lists(st.floats(1e-12, 1.0), min_size=n, max_size=n))
    )
    rewards = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    data = LoggedDataset(
        X, rng.integers(0, k, size=n), propensities, rewards, k,
        float(np.linalg.norm(X, axis=1).max()),
    )
    scale = draw(st.floats(0.0, 5.0))
    policy = SoftmaxPolicy(scale * rng.normal(size=(k, d)),
                           scale * rng.normal(size=k))
    return data, policy


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    logs_and_policies(),
    st.floats(1e-6, 1.0, exclude_max=True),
)
def test_truncated_ips_risk_dominates_plain_and_stays_in_range(sample, tau):
    data, policy = sample
    truncated = truncated_ips_risk(policy, data, tau)
    # max(p, tau) >= p term by term, so each truncated term is at most the
    # plain one, and correct rounding keeps that order through the mean.
    assert truncated >= ips_risk(policy, data)
    # Each truncated term r·pi/max(p, tau) lies in [0, 1/tau]; the bound
    # 1 − 1/tau is itself rounded, so it gets a few ulps of 1/tau.
    assert truncated <= 1.0
    assert truncated >= 1.0 - 1.0 / tau - 4.0 * math.ulp(1.0 / tau)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    logs_and_policies(min_n=2),
    st.floats(1e-3, 1.0, exclude_max=True),
    st.floats(0.0, 10.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
)
def test_poem_surrogate_touches_at_anchor_and_dominates_nearby(
        sample, tau, lam, seed, step):
    data, anchor = sample
    surrogate = poem_build_surrogate(anchor, data, tau, lam)
    # A zero anchor variance drops the penalty for the epoch: no majorizer.
    hypothesis.assume(not surrogate.degenerate)
    config = TrainConfig("poem", lam=lam, tau=tau)
    rng = np.random.default_rng(seed)
    nearby = SoftmaxPolicy(
        anchor.weights + step * rng.normal(size=anchor.weights.shape),
        anchor.biases + step * rng.normal(size=anchor.biases.shape),
    )
    # Every u lies in [0, 1/tau], which bounds each surrogate and variance
    # term; round-off is allowed 1e-13 of the largest of them.
    tol = 1e-13 * (1.0 + abs(surrogate.const) + surrogate.alpha.max() / tau**2
                   + np.abs(surrogate.beta).max() / tau + lam / tau)
    at_anchor = objective_value(config, anchor, None, data)
    assert abs(surrogate.value(anchor, data) - at_anchor) <= tol
    at_nearby = objective_value(config, nearby, None, data)
    assert surrogate.value(nearby, data) >= at_nearby - tol


def ordered(values):
    """Two draws from ``values``, smaller first."""
    return st.lists(values, min_size=2, max_size=2).map(sorted)


kls = ordered(st.floats(0.0, 1e3))
sizes = ordered(st.integers(2, 10**6))
deltas = st.floats(1e-6, 1.0, exclude_max=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ordered(unit), kls, sizes, deltas)
def test_mcallester_bound_grows_with_kl_and_risk_and_shrinks_with_n(
        emps, kl, n, delta):
    base = mcallester_bound(emps[0], kl[0], n[1], delta)
    assert mcallester_bound(emps[1], kl[0], n[1], delta) >= base
    assert mcallester_bound(emps[0], kl[1], n[1], delta) >= base
    assert mcallester_bound(emps[0], kl[0], n[0], delta) >= base


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ordered(unit), kls, sizes, deltas,
       st.floats(1e-3, 1.0, exclude_max=True))
def test_crm_bound_grows_with_kl_and_risk_and_shrinks_with_n(
        fractions, kl, n, delta, tau):
    # The truncated empirical risk lies in [1 - 1/tau, 1].
    floor = 1.0 - 1.0 / tau
    emps = [floor + f * (1.0 - floor) for f in fractions]

    def bound(emp, kl_term, size):
        return crm_bound_fixed_tau(BoundInputs(size, delta, tau, kl_term, emp))

    base = bound(emps[0], kl[0], n[1])
    assert bound(emps[1], kl[0], n[1]) >= base
    assert bound(emps[0], kl[1], n[1]) >= base
    assert bound(emps[0], kl[0], n[0]) >= base


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    logs_and_policies(min_n=2),
    st.integers(0, 2**32 - 1),
    st.floats(1e-3, 100.0),
    st.floats(1e-6, 1.0),
    st.floats(1.0, 4.0),
    st.floats(1e-3, 1.0, exclude_max=True),
    deltas,
    st.booleans(),
)
def test_each_certificate_is_the_bound_of_its_own_numbers(
        sample, seed, sigma0, fraction, B_scale, tau, delta, with_learned):
    data, mean = sample
    rng = np.random.default_rng(seed)
    prior, w_hat = (
        SoftmaxPolicy(rng.normal(size=mean.weights.shape), np.zeros(mean.k))
        for _ in range(2)
    )
    learned = None
    if with_learned:
        learned = (w_hat, StabilityParams(float(rng.uniform(0.1, 10.0)),
                                          float(rng.uniform(1e-3, 1.0)),
                                          data.n, delta))
    spec = MixedLogitSpec(mean, fraction * sigma0, prior, sigma0)
    rows = certificates(spec, data, tau, delta,
                        B_scale * data.feature_norm_bound, learned)
    kinds = {"fixed_tau": (crm_bound_fixed_tau, delta),
             "all_tau": (crm_bound_all_tau, delta),
             "learned_prior": (crm_bound_fixed_tau, 0.5 * delta)}
    assert [r.bound for r in rows] == list(kinds)[:3 if with_learned else 2]
    for row in rows:
        bound, at_delta = kinds[row.bound]
        assert row.value == bound(BoundInputs(
            row.n, at_delta, row.tau, row.c_term / 2, row.emp_risk))
        if row.bound != "learned_prior":
            assert row.c_term == 2.0 * row.kl_bound
