import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from crmlab import _jobs
from crmlab import (
    MixedLogitSpec,
    SoftmaxPolicy,
    action_prob_matrix,
    action_probs,
    load_model,
    mixed_logit_prob_bounds,
    mixed_logit_prob_mc,
    param_distance_sq,
    save_model,
    zero_policy,
)
from crmlab.policies import (
    _BLOCK_ROWS, _action_logits, _gumbel_max_log, _softmax_rows,
)


def bias_policy(biases, d=1):
    """Policy whose logits equal ``biases`` for every context."""
    b = np.asarray(biases, dtype=float)
    return SoftmaxPolicy(np.zeros((b.shape[0], d)), b)


class TestActionProbs:
    def test_uniform(self):
        p = action_probs(zero_policy(3, 5), np.zeros(3))
        np.testing.assert_allclose(p, np.full(5, 0.2), rtol=0, atol=0)

    def test_two_action_logit_gap_one(self):
        p = action_probs(bias_policy([1.0, 0.0]), np.zeros(1))
        assert abs(p[0] - 0.73106) < 1e-5
        assert abs(p[1] - 0.26894) < 1e-5

    def test_extreme_logits_no_overflow(self):
        p = action_probs(bias_policy([1000.0, 0.0]), np.zeros(1))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_simplex_and_positivity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            pol = SoftmaxPolicy(rng.normal(size=(k, d)), rng.normal(size=k))
            x = rng.normal(size=d)
            p = action_probs(pol, x)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p > 0.0)

    def test_rejects_nonfinite_context(self):
        with pytest.raises(ValueError):
            action_probs(zero_policy(2, 3), np.array([1.0, np.nan]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            action_probs(zero_policy(2, 3), np.zeros(4))

    def test_matrix_matches_per_row(self):
        rng = np.random.default_rng(2)
        pol = SoftmaxPolicy(rng.normal(size=(4, 3)), rng.normal(size=4))
        X = rng.normal(size=(6, 3))
        P = action_prob_matrix(pol, X)
        # matmul and matvec reduce in different orders; agreement is to a
        # few ulps, not bit-exact.
        for i in range(6):
            np.testing.assert_allclose(P[i], action_probs(pol, X[i]), rtol=1e-13)


# k covers every summation order of policies._row_sum and its edges: in
# sequence (k < 8), eight running sums (8 ≤ k ≤ 128, with and without a
# remainder) and the split above 128.
SUM_ORDER_KS = [1, 2, 7, 8, 9, 10, 16, 17, 128, 129, 200]


@pytest.mark.parametrize("k", SUM_ORDER_KS)
@pytest.mark.parametrize("m", [1, 37, 100, 5000])
def test_softmax_has_the_bits_of_numpys_row_major_softmax(k, m):
    # On action-major memory the one softmax forms each row sum by vector
    # adds in the order numpy sums a contiguous row; on the transposed view
    # of record-major rows it calls numpy's sum.  A numpy that sums in
    # another order fails here, by name, before the golden digests move; so
    # does a forward pass whose action-major logits lose the bits of
    # x·Wᵀ + b.
    rng = np.random.default_rng(1000 * k + m)
    d = 1 + (k * m) % 50
    X = rng.normal(size=(m, d))
    for scale in (0.1, 1.0, 30.0, 300.0):
        pol = SoftmaxPolicy(scale * rng.normal(size=(k, d)),
                            scale * rng.normal(size=k))
        logits = pol.logits(X)
        expected = _row_major_softmax(logits)
        z = _action_logits(pol, X)
        assert z.flags.c_contiguous
        assert np.array_equal(z, logits.T)
        for layout in (z, logits.copy().T):
            np.testing.assert_array_equal(_softmax_rows(layout).T, expected,
                                          strict=True)
        # Stacked blocks, as in a lockstep training step, get their own bits.
        stacked = np.stack([logits, 2.0 * logits])
        each = np.stack([expected, _row_major_softmax(2.0 * logits)])
        for layout in (np.ascontiguousarray(stacked.swapaxes(1, 2)),
                       stacked.copy().swapaxes(1, 2)):
            np.testing.assert_array_equal(_softmax_rows(layout).swapaxes(1, 2),
                                          each, strict=True)
        assert np.array_equal(action_prob_matrix(pol, X), expected)


class TestSampling:
    def test_goodness_of_fit(self):
        """Gumbel-argmax draws follow the softmax distribution.

        Uses the logger of simulate_logs and task_logs, batched so that
        10 policies x 100,000 draws stay fast.
        """
        rng = np.random.default_rng(7)
        for _ in range(10):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            pol = SoftmaxPolicy(rng.normal(size=(k, d)), rng.normal(size=k))
            x = rng.normal(size=d)
            draws, propensities = _gumbel_max_log(
                pol, np.tile(x, (100_000, 1)), rng
            )
            probs = action_probs(pol, x)
            np.testing.assert_allclose(propensities, probs[draws], rtol=1e-13)
            counts = np.bincount(draws, minlength=k)
            result = scipy.stats.chisquare(counts, 100_000 * probs)
            assert result.pvalue > 0.001


class TestMixedLogitSpec:
    def test_rejects_variance_above_prior(self):
        pol = zero_policy(2, 3)
        with pytest.raises(ValueError) as info:
            MixedLogitSpec(pol, 2.0, pol, 1.0)
        assert str(info.value) == "variance 2.0 must lie in [0, prior_variance 1.0]"

    def test_rejects_negative_variance(self):
        pol = zero_policy(2, 3)
        with pytest.raises(ValueError):
            MixedLogitSpec(pol, -0.1, pol, 1.0)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            MixedLogitSpec(zero_policy(2, 3), 0.5, zero_policy(3, 3), 1.0)

    def test_zero_variance_allowed(self):
        pol = zero_policy(2, 3)
        spec = MixedLogitSpec(pol, 0.0, pol, 1.0)
        assert spec.variance == 0.0

    @pytest.mark.parametrize("variance,prior_variance", [
        (1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan),
        (math.inf, 1.0),
    ])
    def test_rejects_non_finite_variances_naming_them(self, variance,
                                                      prior_variance):
        # An infinite prior variance once let mixed_logit_prob_mc return
        # (nan, nan) with a RuntimeWarning.
        pol = zero_policy(2, 3)
        with pytest.raises(ValueError) as info:
            MixedLogitSpec(pol, variance, pol, prior_variance)
        bad = prior_variance if not 0.0 < prior_variance < math.inf else variance
        assert repr(bad) in str(info.value)


# Sample counts on both sides of the MC's block boundaries.
BLOCK_EDGES = [1, 2, 7, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
               2 * _BLOCK_ROWS + 1, 200_000]


@pytest.fixture(params=[1, 2], ids=["inline", "helper_thread"])
def draw_workers(request, monkeypatch):
    """Runs the MC's normal draws inline (1) or on a helper thread (2),
    whatever the host's CPU count."""
    monkeypatch.setattr(_jobs, "worker_count",
                        lambda jobs: min(jobs, request.param))
    return request.param


def _returns_within(call, seconds=30.0):
    """``call()``'s result, run on a watcher thread so that a producer that
    never stops fails the test instead of hanging it."""
    outcome = {}

    def watched():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised on the test's thread
            outcome["error"] = exc

    watcher = threading.Thread(target=watched, daemon=True)
    watcher.start()
    watcher.join(seconds)
    assert not watcher.is_alive(), f"no return within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class _RecordingRng:
    """A generator stand-in: draws from ``default_rng(0)``, records the
    thread of each draw, and raises on draw number ``fail_at``."""

    def __init__(self, fail_at=None):
        self.rng = np.random.default_rng(0)
        self.fail_at = fail_at
        self.threads = []

    def standard_normal(self, shape):
        self.threads.append(threading.get_ident())
        if len(self.threads) == self.fail_at:
            raise FloatingPointError("draw failed")
        return self.rng.standard_normal(shape)


class TestMixedLogitMC:
    def test_tiny_variance_recovers_softmax(self):
        rng = np.random.default_rng(11)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        spec = MixedLogitSpec(pol, 1e-12, pol, 1.0)
        x = rng.normal(size=2)
        est, _ = mixed_logit_prob_mc(spec, x, 1, 2000, np.random.default_rng(0))
        assert abs(est - action_probs(pol, x)[1]) < 1e-6

    def test_estimate_in_unit_interval(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            pol = SoftmaxPolicy(rng.normal(size=(3, 2)), np.zeros(3))
            spec = MixedLogitSpec(pol, float(rng.uniform(0, 1)), pol, 1.0)
            est, se = mixed_logit_prob_mc(
                spec, rng.normal(size=2), 0, 500, np.random.default_rng(1)
            )
            assert 0.0 <= est <= 1.0
            assert se >= 0.0

    def test_symmetric_gaussian_logit_is_half(self):
        # k=2, d=1, zero mean weights, sigma=1, x=1: the logit difference is
        # symmetric around zero, so the probability of either action is 1/2.
        pol = zero_policy(1, 2)
        spec = MixedLogitSpec(pol, 1.0, pol, 1.0)
        est, se = mixed_logit_prob_mc(
            spec, np.ones(1), 0, 20_000, np.random.default_rng(9)
        )
        assert abs(est - 0.5) <= 3.0 * se

    def test_single_sample_has_nan_stderr(self):
        pol = zero_policy(1, 2)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        est, se = mixed_logit_prob_mc(spec, np.ones(1), 0, 1, np.random.default_rng(2))
        assert 0.0 <= est <= 1.0
        assert math.isnan(se)

    def test_rejects_bad_sample_count(self):
        pol = zero_policy(1, 2)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        with pytest.raises(ValueError):
            mixed_logit_prob_mc(spec, np.ones(1), 0, 0, np.random.default_rng(2))

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 8, 10, 16])
    @pytest.mark.parametrize("samples", BLOCK_EDGES)
    def test_bit_identical_to_row_major_reference(self, k, samples,
                                                  draw_workers):
        # The estimate must equal, bit for bit, the plain row-major
        # expression on an identically seeded generator, and leave that
        # generator in the same state.
        _check_against_reference(_row_major_probs, k, samples)

    @pytest.mark.parametrize("k", [8, 9, 10, 16])
    @pytest.mark.parametrize("samples", BLOCK_EDGES)
    def test_blocks_bit_identical_to_one_action_major_block(self, k, samples,
                                                            draw_workers):
        # The unblocked action-major expression: blocks, a one-row last
        # block (samples = block + 1) included, sum as one block does.
        _check_against_reference(_action_major_probs, k, samples)

    def test_peak_memory_below_one_full_block(self, draw_workers):
        # One (samples, k) float64 array at k = 10 and 200 000 samples is
        # 16 MB; drawing them all at once peaked at about twice that.
        rng = np.random.default_rng(5)
        pol = SoftmaxPolicy(rng.normal(size=(10, 20)), rng.normal(size=10))
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        x = rng.normal(size=20)
        tracemalloc.start()
        try:
            mixed_logit_prob_mc(spec, x, 3, 200_000, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000 * 10 * 8

    @pytest.mark.parametrize("samples,threaded", [
        (_BLOCK_ROWS, False), (_BLOCK_ROWS + 1, True), (3 * _BLOCK_ROWS, True),
    ])
    def test_draws_leave_the_callers_thread_only_for_two_blocks_and_cpus(
            self, draw_workers, samples, threaded):
        pol = zero_policy(2, 3)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        rng = _RecordingRng()
        mixed_logit_prob_mc(spec, np.ones(2), 0, samples, rng)
        off_caller = {t != threading.get_ident() for t in rng.threads}
        assert off_caller == {threaded and draw_workers == 2}
        assert len(rng.threads) == -(-samples // _BLOCK_ROWS)

    def test_failed_draw_reaches_the_caller_and_leaves_no_thread(
            self, draw_workers):
        pol = zero_policy(2, 3)
        spec = MixedLogitSpec(pol, 0.5, pol, 1.0)
        rng = _RecordingRng(fail_at=3)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="draw failed"):
            _returns_within(lambda: mixed_logit_prob_mc(
                spec, np.ones(2), 0, 6 * _BLOCK_ROWS, rng))
        assert threading.active_count() == threads
        assert len(rng.threads) == 3

    def test_bits_hold_under_rapid_thread_switches(self, monkeypatch):
        # Switching threads every microsecond interleaves the producer and
        # the caller at many more points than the default 5 ms does.
        monkeypatch.setattr(_jobs, "worker_count", lambda jobs: min(jobs, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _returns_within(lambda: _check_against_reference(
                _row_major_probs, 3, 5 * _BLOCK_ROWS + 3))
        finally:
            sys.setswitchinterval(interval)

    def test_zero_variance_equals_softmax_where_the_norm_squared_overflows(self):
        # ‖x‖² = 1e400 overflows; np.linalg.norm once made the scale inf and
        # the estimate (nan, nan).
        pol = SoftmaxPolicy(np.array([[1e-200], [0.0]]), np.zeros(2))
        spec = MixedLogitSpec(pol, 0.0, pol, 1.0)
        x = np.array([1e200])
        p = action_probs(pol, x)
        for a in (0, 1):
            est, se = mixed_logit_prob_mc(spec, x, a, 1000,
                                          np.random.default_rng(3))
            assert est == pytest.approx(p[a], rel=1e-15)
            assert se < 1e-15


class TestPrefetched:
    def test_consumer_stopping_early_stops_the_producer(self, monkeypatch):
        monkeypatch.setattr(_jobs, "worker_count", lambda jobs: min(jobs, 2))
        made = []

        def items():
            for i in range(100):
                made.append(i)
                yield i

        # One taken, the slots full, and one in hand, blocked on a full queue.
        full = 1 + _jobs._AHEAD + 1

        def stop_early():
            with _jobs.prefetched(items(), 100) as taken:
                assert next(taken) == 0
                deadline = time.monotonic() + 10.0
                while len(made) < full and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert len(made) == full

        threads = threading.active_count()
        _returns_within(stop_early)
        assert threading.active_count() == threads
        assert len(made) == full


def _row_major_softmax(z):
    """The plain numpy softmax of each row of ``z`` (m, k)."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _row_major_probs(mu, scale, samples, a, rng):
    """π(a) over one row-major (samples, k) draw."""
    z = mu + scale * rng.standard_normal((samples, mu.shape[0]))
    return _row_major_softmax(z)[:, a]


def _action_major_probs(mu, scale, samples, a, rng):
    """π(a) over one (samples, k) draw stored action-major, the unblocked
    form of mixed_logit_prob_mc."""
    z = np.multiply(
        rng.standard_normal((samples, mu.shape[0])).T, scale, order="C"
    )
    z += mu[:, None]
    return _softmax_rows(z)[a]


def _check_against_reference(reference, k, samples):
    """mixed_logit_prob_mc equals ``reference``'s mean and standard error bit
    for bit, and leaves its generator in the same state, over three
    (weight scale, variance) settings and the first and last action."""
    rng = np.random.default_rng(100 * k + samples)
    d = 3
    W = rng.normal(size=(k, d))
    b = rng.normal(size=k)
    x = rng.normal(size=d)
    for weight_scale, variance in [(1.0, 0.5), (1.0, 0.0), (300.0, 0.7)]:
        pol = SoftmaxPolicy(weight_scale * W, b)
        spec = MixedLogitSpec(pol, variance, pol, 1.0)
        mu = pol.logits(x)
        scale = float(np.sqrt(variance) * np.linalg.norm(x))
        for a in (0, k - 1):
            seed = 7 * k + samples + a
            got_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            est, se = mixed_logit_prob_mc(spec, x, a, samples, got_rng)
            p = reference(mu, scale, samples, a, ref_rng)
            ref_est = float(p.mean())
            ref_se = (
                float(p.std(ddof=1) / np.sqrt(samples))
                if samples > 1
                else float("nan")
            )
            assert est == ref_est
            if samples == 1:
                assert math.isnan(se)
            else:
                assert se == ref_se
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class TestSandwichBounds:
    def test_zero_variance_collapse_where_the_norm_squared_overflows(self):
        pol = SoftmaxPolicy(np.array([[1e-200], [0.0]]), np.zeros(2))
        spec = MixedLogitSpec(pol, 0.0, pol, 1.0)
        x = np.array([1e200])
        p = action_probs(pol, x)
        for a in (0, 1):
            assert mixed_logit_prob_bounds(spec, x, a, 1e200) == (p[a], p[a])

    def test_zero_variance_collapse(self):
        rng = np.random.default_rng(21)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        spec = MixedLogitSpec(pol, 0.0, pol, 1.0)
        x = rng.normal(size=2)
        x = x / np.linalg.norm(x)
        lo, hi = mixed_logit_prob_bounds(spec, x, 2, 1.0)
        p = action_probs(pol, x)[2]
        assert lo == p
        assert hi == p

    def test_half_prob_small_variance(self):
        pol = zero_policy(1, 2)
        spec = MixedLogitSpec(pol, 0.02, pol, 1.0)
        lo, hi = mixed_logit_prob_bounds(spec, np.ones(1), 0, 1.0)
        assert lo == pytest.approx(0.5 * math.exp(-0.01), rel=1e-12)
        assert hi == pytest.approx(0.5 * math.exp(0.04), rel=1e-12)
        assert abs(lo - 0.49502) < 1e-5
        assert abs(hi - 0.52041) < 1e-5

    def test_upper_clamped_to_one(self):
        # softmax prob 0.9 with sigma=1, B=2: the raw upper factor e^8
        # exceeds 1/0.9, so the bound must clamp.
        pol = bias_policy([math.log(9.0), 0.0])
        spec = MixedLogitSpec(pol, 1.0, pol, 1.0)
        lo, hi = mixed_logit_prob_bounds(spec, np.ones(1), 0, 2.0)
        assert hi == 1.0
        assert 0.0 < lo < 0.9

    def test_rejects_context_norm_above_bound(self):
        pol = zero_policy(2, 2)
        spec = MixedLogitSpec(pol, 0.1, pol, 1.0)
        with pytest.raises(ValueError):
            mixed_logit_prob_bounds(spec, np.array([3.0, 4.0]), 0, 1.0)

    def test_monotone_tightening_in_variance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
            x = rng.normal(size=2)
            B = float(np.linalg.norm(x)) + 0.5
            sig = np.sort(rng.uniform(0.001, 0.5, size=4))
            prior = float(sig[-1])
            los, his = [], []
            for s in sig:
                spec = MixedLogitSpec(pol, float(s), pol, prior)
                lo, hi = mixed_logit_prob_bounds(spec, x, 1, B)
                los.append(lo)
                his.append(hi)
            assert all(a >= b for a, b in zip(los, los[1:]))
            assert all(a <= b for a, b in zip(his, his[1:]))

    def test_mc_estimate_inside_sandwich(self):
        # Light version of the containment property; the acceptance suite
        # runs the full 1,000-case sweep at 200,000 draws.
        rng = np.random.default_rng(23)
        for _ in range(50):
            k, d = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            pol = SoftmaxPolicy(0.5 * rng.normal(size=(k, d)), np.zeros(k))
            sigma = float(rng.uniform(0.001, 0.1))
            x = rng.normal(size=d)
            B = float(np.linalg.norm(x)) * 1.1 + 1e-9
            a = int(rng.integers(k))
            spec = MixedLogitSpec(pol, sigma, pol, 1.0)
            lo, hi = mixed_logit_prob_bounds(spec, x, a, B)
            est, se = mixed_logit_prob_mc(spec, x, a, 4000, rng)
            assert lo - 4 * se <= est <= hi + 4 * se


class TestParamDistance:
    def test_identical_policies(self):
        pol = SoftmaxPolicy(np.ones((2, 2)), np.zeros(2))
        assert param_distance_sq(pol, pol) == 0.0

    def test_biases_excluded(self):
        a = SoftmaxPolicy(np.ones((2, 2)), np.array([5.0, -3.0]))
        b = SoftmaxPolicy(np.zeros((2, 2)), np.array([-100.0, 40.0]))
        assert param_distance_sq(a, b) == 4.0

    def test_hand_value(self):
        a = SoftmaxPolicy(np.array([[2.0, 0.0]]), np.zeros(1))
        b = SoftmaxPolicy(np.array([[0.0, 1.0]]), np.zeros(1))
        assert param_distance_sq(a, b) == 5.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            param_distance_sq(zero_policy(2, 2), zero_policy(3, 2))


class TestPolicyValueSemantics:
    def test_arrays_are_frozen_copies(self):
        w = np.ones((2, 2))
        pol = SoftmaxPolicy(w, np.zeros(2))
        w[0, 0] = 99.0
        assert pol.weights[0, 0] == 1.0
        with pytest.raises(ValueError):
            pol.weights[0, 0] = 5.0

    def test_rejects_nonfinite_weights(self):
        with pytest.raises(ValueError):
            SoftmaxPolicy(np.array([[np.inf]]), np.zeros(1))


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        pol = SoftmaxPolicy(rng.normal(size=(3, 4)), rng.normal(size=3))
        prior = SoftmaxPolicy(rng.normal(size=(3, 4)), rng.normal(size=3))
        path = tmp_path / "model.json"
        save_model(
            path, pol, sigma=0.25, sigma0=1.0, prior=prior, feature_norm_bound=1.75
        )
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.policy.weights, pol.weights)
        np.testing.assert_array_equal(loaded.policy.biases, pol.biases)
        np.testing.assert_array_equal(loaded.prior.weights, prior.weights)
        np.testing.assert_array_equal(loaded.prior.biases, prior.biases)
        assert loaded.sigma == 0.25
        assert loaded.sigma0 == 1.0
        assert loaded.feature_norm_bound == 1.75

    def test_optional_fields_absent(self, tmp_path):
        pol = zero_policy(2, 3)
        path = tmp_path / "bare.json"
        save_model(path, pol)
        loaded = load_model(path)
        assert loaded.sigma is None
        assert loaded.sigma0 is None
        assert loaded.prior is None

    @pytest.mark.parametrize("sigma,sigma0", [(2.0, 1.0), (0.0, 1.0), (-0.5, 1.0)])
    def test_save_rejects_sigma_outside_prior_scale(self, tmp_path, sigma, sigma0):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError) as err:
            save_model(path, zero_policy(2, 3), sigma=sigma, sigma0=sigma0)
        assert str(err.value) == (
            f"{path}: sigma={sigma} must lie in (0, sigma0={sigma0}]"
        )
        assert not path.exists()

    @pytest.mark.parametrize(
        "key,value",
        [("sigma", float("inf")), ("sigma0", float("inf")),
         ("feature_norm_bound", float("inf")), ("feature_norm_bound", float("nan"))],
    )
    def test_save_rejects_non_finite_number(self, tmp_path, key, value):
        path = tmp_path / "bad.json"
        with pytest.raises(ValueError) as err:
            save_model(path, zero_policy(2, 3), **{key: value})
        assert str(err.value) == (
            f"{path}: {key} must be a finite number, got {value!r}"
        )
        assert not path.exists()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json at all {")
        with pytest.raises(ValueError):
            load_model(path)
