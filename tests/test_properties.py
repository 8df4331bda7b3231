"""Property tests of the estimators and the POEM surrogate over generated
logs, of the risk bounds and certificates over generated inputs, and of the
logged-CSV and model-file round trips.

hypothesis comes with the ``test`` extra (``pip install .[test]``); without
it this module is skipped.  Runs are derandomized and keep no example
database, so every run checks the same examples; only the round trips write
files, into temporary directories they remove.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from crmlab import (  # noqa: E402
    LoggedDataset,
    MixedLogitSpec,
    SoftmaxPolicy,
    StabilityParams,
    TrainConfig,
    certificates,
    crm_bound_all_tau,
    crm_bound_fixed_tau,
    ips_risk,
    load_logged,
    load_model,
    mcallester_bound,
    objective_value,
    poem_build_surrogate,
    save_logged,
    save_model,
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
        return crm_bound_fixed_tau(emp, kl_term, size, delta, tau)

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
        assert row.value == bound(row.emp_risk, row.c_term / 2, row.n,
                                  at_delta, row.tau)
        if row.bound != "learned_prior":
            assert row.c_term == 2.0 * row.kl_bound


finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(value):
    """The bytes of a float64 array or scalar, so -0.0 differs from 0.0."""
    return np.asarray(value, dtype=np.float64).tobytes()


@st.composite
def logged_datasets(draw):
    """A logged dataset of arbitrary finite features and arbitrary records
    in the CSV domains."""
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    return LoggedDataset(
        draw(arrays(np.float64, (n, d), elements=finite)),
        draw(arrays(np.int64, n, elements=st.integers(0, k - 1))),
        draw(arrays(np.float64, n, elements=st.floats(0.0, 1.0, exclude_min=True))),
        draw(arrays(np.float64, n, elements=unit)),
        k,
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(logged_datasets())
def test_logged_csv_round_trip_is_bit_exact(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "logs.csv"
        save_logged(path, data)
        back = load_logged(path, data.k)
    for name in ("features", "propensities", "rewards"):
        assert bits(getattr(back, name)) == bits(getattr(data, name)), name
    assert back.actions.tolist() == data.actions.tolist()
    assert bits(back.feature_norm_bound) == bits(data.feature_norm_bound)


@st.composite
def policies(draw, k, d):
    return SoftmaxPolicy(draw(arrays(np.float64, (k, d), elements=finite)),
                         draw(arrays(np.float64, k, elements=finite)))


@st.composite
def model_files(draw):
    """Arguments of ``save_model``: a policy of arbitrary finite parameters
    and each optional field either left out or drawn in its domain."""
    k = draw(st.integers(1, 5))
    d = draw(st.integers(1, 4))
    positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
    sigma0 = draw(st.none() | positive)
    sigma = draw(st.none() | (positive if sigma0 is None
                              else st.floats(0.0, sigma0, exclude_min=True)))
    return draw(policies(k, d)), dict(
        sigma=sigma, sigma0=sigma0,
        prior=draw(st.none() | policies(k, d)),
        feature_norm_bound=draw(st.none() | finite),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model_files())
def test_model_file_round_trip_is_bit_exact(model):
    policy, fields = model
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.model"
        save_model(path, policy, **fields)
        back = load_model(path)
    pairs = [(back.policy, policy)]
    if fields["prior"] is not None:
        pairs.append((back.prior, fields["prior"]))
    else:
        assert back.prior is None
    for got, want in pairs:
        assert bits(got.weights) == bits(want.weights)
        assert bits(got.biases) == bits(want.biases)
    for name in ("sigma", "sigma0", "feature_norm_bound"):
        got, want = getattr(back, name), fields[name]
        assert (got is None) == (want is None), name
        if want is not None:
            assert bits(got) == bits(want), name
