"""Property tests of the estimators over generated logs, and of the risk
bounds over generated inputs.

hypothesis is not a declared dependency, so this module is skipped where it
is not installed.  Runs are derandomized and keep no example database, so
every run checks the same examples and writes no files.
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
    SoftmaxPolicy,
    crm_bound_fixed_tau,
    ips_risk,
    mcallester_bound,
    truncated_ips_risk,
)

unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def logs_and_policies(draw):
    """A logged dataset of 1 to 40 records and a softmax policy over it.
    Propensities reach down to 1e-12, so truncation binds at most tau."""
    n = draw(st.integers(1, 40))
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
