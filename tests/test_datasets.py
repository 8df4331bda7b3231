import numpy as np
import pytest

from crmlab import (
    LabeledDataset,
    LoggedDataset,
    action_prob_matrix,
    kfold_split,
    load_labeled,
    load_logged,
    save_labeled,
    save_logged,
    simulate_logs,
    temper,
    zero_policy,
    SoftmaxPolicy,
)
from conftest import random_logged


class TestLabeledDataset:
    def test_basic_shape_and_access(self):
        X = np.arange(6.0).reshape(3, 2)
        data = LabeledDataset(X, np.array([0, 1, 2]), 3)
        assert data.d == 2
        assert len(data) == 3

    def test_rejects_label_out_of_range(self):
        X = np.zeros((2, 2))
        with pytest.raises(ValueError):
            LabeledDataset(X, np.array([0, 5]), 3)

    def test_subset(self):
        X = np.arange(8.0).reshape(4, 2)
        data = LabeledDataset(X, np.array([0, 1, 0, 1]), 2)
        sub = data.subset([2, 0])
        np.testing.assert_array_equal(sub.features, X[[2, 0]])
        np.testing.assert_array_equal(sub.labels, [0, 0])


class TestLoggedDataset:
    def test_rejects_zero_propensity(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([0.0]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_propensity_above_one(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([1.5]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_reward_outside_unit_interval(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([0.5]),
                np.array([1.2]), 2, 0.0,
            )

    def test_rejects_action_out_of_range(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([2]), np.array([0.5]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_bound_below_max_norm(self):
        X = np.array([[3.0, 4.0]])
        with pytest.raises(ValueError):
            LoggedDataset(X, np.array([0]), np.array([0.5]), np.array([0.0]), 2, 4.9)

    def test_subset_inherits_bound(self):
        rng = np.random.default_rng(0)
        data = random_logged(rng, 10, 3, 2)
        sub = data.subset([0, 1])
        assert sub.feature_norm_bound == data.feature_norm_bound
        assert sub.k == data.k
        assert sub.n == 2


class TestCsvRoundTrips:
    def test_labeled_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3)) * np.pi
        data = LabeledDataset(X, rng.integers(0, 4, size=20), 4)
        path = tmp_path / "labeled.csv"
        save_labeled(path, data)
        back = load_labeled(path, 4)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_logged_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = random_logged(rng, 25, 4, 3)
        path = tmp_path / "logs.csv"
        save_logged(path, data)
        back = load_logged(path, 3)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.propensities, data.propensities)
        np.testing.assert_array_equal(back.rewards, data.rewards)
        assert back.feature_norm_bound == data.feature_norm_bound

    def test_save_twice_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        data = random_logged(rng, 10, 2, 2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_logged(p1, data)
        save_logged(p2, data)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsvErrors:
    def test_bad_float_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nx,2.0,1\n")
        with pytest.raises(ValueError) as err:
            load_labeled(path, 2)
        assert "bad.csv" in str(err.value)
        assert "line 3" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ValueError):
            load_labeled(path, 2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(ValueError):
            load_labeled(path, 3)

    def test_logged_propensity_zero_rejected_with_line(self, tmp_path):
        path = tmp_path / "logs.csv"
        path.write_text(
            "f0,action,propensity,reward\n1.0,0,0.5,1.0\n1.0,1,0.0,0.0\n"
        )
        with pytest.raises(ValueError) as err:
            load_logged(path, 2)
        assert "line 3" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_logged(tmp_path / "nope.csv", 2)


class TestKfoldSplit:
    def test_partition_and_balance(self):
        folds = kfold_split(23, 5, seed=11)
        sizes = [len(folds.holdout_indices(f)) for f in range(5)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        seen = np.concatenate([folds.holdout_indices(f) for f in range(5)])
        assert sorted(seen.tolist()) == list(range(23))

    def test_train_is_complement(self):
        folds = kfold_split(17, 4, seed=5)
        for f in range(4):
            ho = set(folds.holdout_indices(f).tolist())
            tr = set(folds.train_indices(f).tolist())
            assert ho & tr == set()
            assert ho | tr == set(range(17))

    def test_deterministic(self):
        a = kfold_split(40, 5, seed=9)
        b = kfold_split(40, 5, seed=9)
        np.testing.assert_array_equal(a.fold_of, b.fold_of)

    def test_seed_changes_assignment(self):
        a = kfold_split(40, 5, seed=9)
        b = kfold_split(40, 5, seed=10)
        assert not np.array_equal(a.fold_of, b.fold_of)

    def test_rejects_more_folds_than_records(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, seed=0)


@pytest.fixture(scope="module")
def labeled():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 3))
    return LabeledDataset(X, rng.integers(0, 4, size=200), 4)


@pytest.fixture(scope="module")
def policy():
    rng = np.random.default_rng(7)
    return SoftmaxPolicy(rng.normal(size=(4, 3)), rng.normal(size=4))


class TestSimulateLogs:
    def test_propensities_are_exact_action_probs(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        P = action_prob_matrix(policy, logs.features)
        matched = P[np.arange(logs.n), logs.actions]
        np.testing.assert_array_equal(logs.propensities, matched)

    def test_rewards_are_label_hits(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        np.testing.assert_array_equal(
            logs.rewards, (logs.actions == labeled.labels).astype(float)
        )

    def test_bound_is_max_row_norm(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        norms = np.linalg.norm(labeled.features, axis=1)
        assert logs.feature_norm_bound == norms.max()

    def test_deterministic(self, labeled, policy):
        a = simulate_logs(policy, labeled, seed=100)
        b = simulate_logs(policy, labeled, seed=100)
        np.testing.assert_array_equal(a.actions, b.actions)

    def test_seed_matters(self, labeled, policy):
        a = simulate_logs(policy, labeled, seed=100)
        b = simulate_logs(policy, labeled, seed=101)
        assert not np.array_equal(a.actions, b.actions)

    def test_dimension_mismatch(self, labeled):
        with pytest.raises(ValueError):
            simulate_logs(zero_policy(5, 4), labeled, seed=0)


class TestTemper:
    def test_zero_kappa_gives_uniform(self):
        rng = np.random.default_rng(8)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        flat = temper(pol, 0.0)
        assert np.all(flat.weights == 0.0)
        assert np.all(flat.biases == 0.0)

    def test_identity_at_one(self):
        rng = np.random.default_rng(9)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        same = temper(pol, 1.0)
        np.testing.assert_array_equal(same.weights, pol.weights)
        np.testing.assert_array_equal(same.biases, pol.biases)

    def test_power_of_two_composition_exact(self):
        rng = np.random.default_rng(10)
        pol = SoftmaxPolicy(rng.normal(size=(3, 4)), rng.normal(size=3))
        # Scaling by powers of two is exact in binary floating point.
        round_trip = temper(temper(pol, 0.5), 2.0)
        np.testing.assert_array_equal(round_trip.weights, pol.weights)
        np.testing.assert_array_equal(round_trip.biases, pol.biases)

    def test_rejects_negative_and_nonfinite(self):
        pol = zero_policy(2, 2)
        with pytest.raises(ValueError):
            temper(pol, -0.5)
        with pytest.raises(ValueError):
            temper(pol, float("nan"))
