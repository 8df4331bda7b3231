"""Input validation: every check that guards a public boundary raises its
own message.

Each row builds one bad input and names the exact message it must raise.
``<tmp>`` in a message stands for the test's temporary directory.
"""

import json
import math

import numpy as np
import pytest

from crmlab import (
    BlobTask,
    EnumerableTask,
    LabeledDataset,
    LoggedDataset,
    MixedLogitSpec,
    SoftmaxPolicy,
    StabilityParams,
    TrainConfig,
    action_prob_matrix,
    blob_task,
    certificates,
    crm_bound_fixed_tau,
    closed_form_sigma,
    cross_validate,
    derive_seed,
    enumerable_task,
    exact_risk_of_probs,
    gaussian_kl_bound,
    gaussian_kl_exact,
    kfold_split,
    learn_logging_policy,
    load_labeled,
    load_logged,
    load_model,
    mcallester_bound,
    mean_param_risk,
    mixed_logit_prob_bounds,
    mixed_logit_prob_mc,
    objective_gradient,
    param_distance_sq,
    poem_build_surrogate,
    sample_labeled,
    save_model,
    simulate_logs,
    solve_logging_nll_exact,
    split_for_logging,
    task_logs,
    temper,
    zero_policy,
)
from conftest import one_record

POLICY = zero_policy(2, 3)
SPEC = MixedLogitSpec(POLICY, 0.1, POLICY, 1.0)
X = np.ones(2)


def logged(n=4, **columns):
    """A valid (n, 2) log with k = 3, with any column replaced."""
    values = dict(features=np.ones((n, 2)), actions=np.zeros(n, dtype=int),
                  propensities=np.full(n, 0.5), rewards=np.ones(n))
    values.update(columns)
    return LoggedDataset(k=3, **values)


def labeled(n=4):
    """A valid (n, 2) labeled set with k = 3."""
    return LabeledDataset(np.ones((n, 2)), np.zeros(n, dtype=int), 3)


def enumerable(**fields):
    task = enumerable_task()
    values = dict(contexts=task.contexts, rewards=task.rewards,
                  context_probs=task.context_probs)
    values.update(fields)
    return EnumerableTask(**values)


def empty_file(tmp):
    path = tmp / "empty.csv"
    path.write_text("")
    return load_labeled(path, 3)


def model_with_wrong_d(tmp):
    save_model(tmp / "m.model", POLICY)
    doc = json.loads((tmp / "m.model").read_text())
    doc["d"] = 5
    (tmp / "m.model").write_text(json.dumps(doc))
    return load_model(tmp / "m.model")


def poem_surrogate_on_other_data(tmp):
    surrogate = poem_build_surrogate(POLICY, logged(4), 0.01, 0.1)
    return surrogate.value(POLICY, logged(5))


CASES = {
    # bounds
    "crm_bound_fixed_tau.delta": (
        lambda tmp: crm_bound_fixed_tau(0.5, 0.0, 10, 1.0, 0.1),
        "delta must lie in (0, 1), got 1.0"),
    "crm_bound_fixed_tau.emp_risk_nan": (
        lambda tmp: crm_bound_fixed_tau(math.nan, 0.0, 10, 0.1, 0.1),
        "emp_risk must be at least 1 - 1/tau = -9.0, got nan"),
    "StabilityParams.delta": (
        lambda tmp: StabilityParams(lipschitz=1.0, lam=1.0, n=10, delta=0.0),
        "delta must lie in (0, 1), got 0.0"),
    "StabilityParams.n_float": (
        lambda tmp: StabilityParams(lipschitz=1.0, lam=1.0, n=2.5, delta=0.1),
        "n must be an integer, got 2.5"),
    "certificates.stability_n": (
        lambda tmp: certificates(SPEC, logged(), 0.1, 0.1, 2.0, learned=(
            POLICY, StabilityParams(1.0, 1.0, 10**12, 0.1))),
        "stability must have the log's n=4 and delta=0.1, got "
        "n=1000000000000, delta=0.1"),
    "certificates.stability_delta": (
        lambda tmp: certificates(SPEC, logged(), 0.1, 0.1, 2.0, learned=(
            POLICY, StabilityParams(1.0, 1.0, 4, 0.99))),
        "stability must have the log's n=4 and delta=0.1, got n=4, "
        "delta=0.99"),
    "mcallester_bound.n": (
        lambda tmp: mcallester_bound(0.5, 0.0, 1, 0.1),
        "n must be at least 2, got 1"),
    "mcallester_bound.delta": (
        lambda tmp: mcallester_bound(0.5, 0.0, 10, 1.5),
        "delta must lie in (0, 1), got 1.5"),
    "mcallester_bound.kl": (
        lambda tmp: mcallester_bound(0.5, math.inf, 10, 0.1),
        "kl must be nonnegative and finite, got inf"),
    "gaussian_kl_exact.sigma_inf": (
        lambda tmp: gaussian_kl_exact(POLICY, math.inf, POLICY, 1.0, 6),
        "sigma must be positive and finite, got inf"),
    "gaussian_kl_bound.sigma_inf": (
        lambda tmp: gaussian_kl_bound(POLICY, math.inf, POLICY, math.inf, 6),
        "sigma must be positive and finite, got inf"),
    # datasets
    "LabeledDataset.features_shape": (
        lambda tmp: LabeledDataset(np.zeros(3), np.zeros(3, dtype=int), 2),
        "features must be a nonempty (n, d) array"),
    "LabeledDataset.labels_shape": (
        lambda tmp: LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2),
        "labels must be a length-n vector"),
    "LabeledDataset.features_finite": (
        lambda tmp: LabeledDataset([[math.nan, 0.0]], [0], 2),
        "features must be finite"),
    "LoggedDataset.features_finite": (
        lambda tmp: logged(features=[[0.0, 1.0], [math.inf, 0.0],
                                     [0.0, 1.0], [0.0, 1.0]]),
        "features must be finite"),
    "LoggedDataset.actions_shape": (
        lambda tmp: logged(actions=np.zeros(3, dtype=int)),
        "actions must be a length-n vector"),
    "LoggedDataset.propensities_shape": (
        lambda tmp: logged(propensities=np.full(5, 0.5)),
        "propensities must be a length-n vector"),
    "LoggedDataset.rewards_shape": (
        lambda tmp: logged(rewards=np.ones((4, 1))),
        "rewards must be a length-n vector"),
    "LoggedDataset.propensities_nan": (
        lambda tmp: logged(propensities=[0.5, math.nan, 0.5, 0.5]),
        "propensities must lie in (0, 1], got nan"),
    "LoggedDataset.rewards_nan": (
        lambda tmp: logged(rewards=[1.0, 1.0, math.nan, 1.0]),
        "rewards must lie in [0, 1], got nan"),
    "LabeledDataset.k_fraction": (
        lambda tmp: LabeledDataset(np.ones((2, 2)), np.zeros(2, dtype=int), 1.5),
        "k must be an integer, got 1.5"),
    "LabeledDataset.k_bool": (
        lambda tmp: LabeledDataset(np.ones((2, 2)), np.zeros(2, dtype=int), True),
        "k must be an integer, got True"),
    "LoggedDataset.k_zero": (
        lambda tmp: LoggedDataset(np.ones((1, 2)), [0], [0.5], [1.0], 0),
        "k must be at least 1, got 0"),
    "load_labeled.no_header": (
        empty_file, "<tmp>/empty.csv: no header"),
    # k is checked before the file is opened, so a missing file is not read.
    "load_labeled.k": (
        lambda tmp: load_labeled(tmp / "absent.csv", 1.5),
        "k must be an integer, got 1.5"),
    "load_logged.k": (
        lambda tmp: load_logged(tmp / "absent.csv", 0),
        "k must be at least 1, got 0"),
    "kfold_split.num_folds": (
        lambda tmp: kfold_split(5, 0, seed=0),
        "num_folds must be at least 1, got 0"),
    "kfold_split.num_folds_above_n": (
        lambda tmp: kfold_split(3, 5, seed=0),
        "num_folds must be at most 3, got 5"),
    "kfold_split.seed": (
        lambda tmp: kfold_split(5, 2, seed=-1),
        "seed must be at least 0, got -1"),
    "simulate_logs.seed": (
        lambda tmp: simulate_logs(zero_policy(2, 3), labeled(), seed=-1),
        "seed must be at least 0, got -1"),
    "temper.overflow": (
        lambda tmp: temper(SoftmaxPolicy(np.full((2, 2), 2.0), np.zeros(2)),
                           1e308),
        "kappa=1e+308 overflows the policy parameters"),
    # estimators
    "mean_param_risk.sigma_nan": (
        lambda tmp: mean_param_risk(POLICY, math.nan, 2.0, logged(), 0.1),
        "sigma must be nonnegative and finite, got nan"),
    "mean_param_risk.B_nan": (
        lambda tmp: mean_param_risk(POLICY, 0.1, math.nan, logged(), 0.1),
        "B must be finite and cover the norm 1.4142135623730951, got nan"),
    # learning
    "TrainConfig.seed": (
        lambda tmp: TrainConfig("ips_l2", seed=-1),
        "seed must be at least 0, got -1"),
    "TrainConfig.epochs_float": (
        lambda tmp: TrainConfig("ips_l2", epochs=1.5),
        "epochs must be an integer, got 1.5"),
    "TrainConfig.seed_bool": (
        lambda tmp: TrainConfig("ips_l2", seed=True),
        "seed must be an integer, got True"),
    "TrainConfig.lam_inf": (
        lambda tmp: TrainConfig("ips_l2", lam=math.inf),
        "lam must be nonnegative and finite, got inf"),
    "TrainConfig.lambda_l2_inf": (
        lambda tmp: TrainConfig("poem_l2", lambda_l2=math.inf),
        "lambda_l2 must be nonnegative and finite, got inf"),
    "learn_logging_policy.seed": (
        lambda tmp: learn_logging_policy(logged(), 0.1, seed=-3),
        "seed must be at least 0, got -3"),
    "objective_gradient.poem_batch": (
        lambda tmp: objective_gradient(TrainConfig("poem"), zero_policy(1, 2),
                                       None, one_record(0.5, 1.0)),
        "n must be at least 2, got 1"),
    "cross_validate.training_fold": (
        lambda tmp: cross_validate(logged(2), [0.1], 2,
                                   TrainConfig("ips_l2", epochs=1)),
        "num_folds=2 leaves 1 of the 2 records for training; training needs "
        "at least 2"),
    "cross_validate.repeated_value": (
        lambda tmp: cross_validate(logged(), [0.1, 0.2, 0.1], 2,
                                   TrainConfig("ips_l2", epochs=1)),
        "lambda_grid values must be distinct, got 0.1 and 0.1"),
    "cross_validate.signed_zero": (
        lambda tmp: cross_validate(logged(), [0, -0.0], 2,
                                   TrainConfig("ips_l2", epochs=1)),
        "lambda_grid values must be distinct, got 0 and -0.0"),
    "closed_form_sigma.sigma0_inf": (
        lambda tmp: closed_form_sigma(logged(), 0.1, math.inf),
        "sigma0 must be positive and finite, got inf"),
    "solve_logging_nll_exact.lam_inf": (
        lambda tmp: solve_logging_nll_exact(logged(), math.inf),
        "lam must be positive and finite, got inf"),
    "PoemSurrogate.value.dataset": (
        poem_surrogate_on_other_data,
        "surrogate was built for a different dataset"),
    "poem_build_surrogate.n": (
        lambda tmp: poem_build_surrogate(zero_policy(1, 2),
                                         one_record(0.5, 1.0), 0.01, 0.1),
        "n must be at least 2, got 1"),
    "poem_build_surrogate.lam": (
        lambda tmp: poem_build_surrogate(POLICY, logged(), 0.01, -1.0),
        "lam must be nonnegative and finite, got -1.0"),
    "poem_build_surrogate.lam_nan": (
        lambda tmp: poem_build_surrogate(POLICY, logged(), 0.01, math.nan),
        "lam must be nonnegative and finite, got nan"),
    "poem_build_surrogate.lam_inf": (
        lambda tmp: poem_build_surrogate(POLICY, logged(), 0.01, math.inf),
        "lam must be nonnegative and finite, got inf"),
    # policies
    "MixedLogitSpec.prior_mean": (
        lambda tmp: MixedLogitSpec(POLICY, 0.1, zero_policy(2, 4), 1.0),
        "prior_mean has k=4, d=2, expected k=3, d=2"),
    "param_distance_sq.dimensions": (
        lambda tmp: param_distance_sq(POLICY, zero_policy(3, 3)),
        "policy has k=3, d=3, expected k=3, d=2"),
    "SoftmaxPolicy.biases": (
        lambda tmp: SoftmaxPolicy(np.zeros((2, 3)), np.zeros(3)),
        "biases must be a 1-D array of length k"),
    "action_prob_matrix.shape": (
        lambda tmp: action_prob_matrix(POLICY, np.ones((4, 3))),
        "contexts must be a nonempty (n, 2) array"),
    "action_prob_matrix.finite": (
        lambda tmp: action_prob_matrix(POLICY, [[0.0, math.nan]]),
        "contexts must be finite"),
    "mixed_logit_prob_mc.samples_float": (
        lambda tmp: mixed_logit_prob_mc(SPEC, X, 0, 2.5,
                                        np.random.default_rng(0)),
        "samples must be an integer, got 2.5"),
    "mixed_logit_prob_mc.action": (
        lambda tmp: mixed_logit_prob_mc(SPEC, X, 3, 10,
                                        np.random.default_rng(0)),
        "a must lie in [0, 3), got 3"),
    "mixed_logit_prob_bounds.action": (
        lambda tmp: mixed_logit_prob_bounds(SPEC, X, -1, 2.0),
        "a must lie in [0, 3), got -1"),
    "mixed_logit_prob_bounds.B_nan": (
        lambda tmp: mixed_logit_prob_bounds(SPEC, X, 0, math.nan),
        "B must be finite and cover the norm 1.4142135623730951, got nan"),
    "save_model.prior": (
        lambda tmp: save_model(tmp / "m.model", POLICY, prior=zero_policy(3, 3)),
        "prior has k=3, d=3, expected k=3, d=2"),
    "load_model.dimensions": (
        model_with_wrong_d,
        "<tmp>/m.model: stored dimensions disagree with arrays"),
    # seeding
    "derive_seed.master_seed": (
        lambda tmp: derive_seed("7", "tag"),
        "master_seed must be an integer"),
    # synthetic
    "EnumerableTask.ndim": (
        lambda tmp: enumerable(contexts=np.ones(5)),
        "contexts must be a nonempty (n, d) array"),
    "EnumerableTask.rewards_ndim": (
        lambda tmp: enumerable(rewards=np.ones(5)),
        "rewards must be a (5, k) array, got shape (5,)"),
    "EnumerableTask.contexts_nan": (
        lambda tmp: enumerable(contexts=np.where(np.eye(5), math.nan, 0.0)),
        "contexts must be finite"),
    "EnumerableTask.contexts_inf": (
        lambda tmp: enumerable(contexts=np.where(np.eye(5), math.inf, 0.0)),
        "contexts must be finite"),
    "EnumerableTask.reward_rows": (
        lambda tmp: enumerable(rewards=np.zeros((4, 3))),
        "rewards must be a (5, k) array, got shape (4, 3)"),
    "EnumerableTask.context_probs_shape": (
        lambda tmp: enumerable(context_probs=np.full(4, 0.25)),
        "context_probs must have shape (5,), got (4,)"),
    "EnumerableTask.rewards_range": (
        lambda tmp: enumerable(rewards=np.full((5, 3), 1.5)),
        "rewards must lie in [0, 1], got 1.5"),
    "EnumerableTask.rewards_nan": (
        lambda tmp: enumerable(rewards=np.full((5, 3), math.nan)),
        "rewards must lie in [0, 1], got nan"),
    "EnumerableTask.context_probs_sum": (
        lambda tmp: enumerable(context_probs=np.full(5, 0.3)),
        "context_probs must sum to 1, got sum 1.5"),
    "EnumerableTask.context_probs_negative": (
        lambda tmp: enumerable(context_probs=[0.5, 0.5, 0.5, -0.5, 0.0]),
        "context_probs must lie in [0, 1], got -0.5"),
    "exact_risk_of_probs.shape": (
        lambda tmp: exact_risk_of_probs(enumerable_task(), np.ones((5, 2))),
        "probs must have shape (5, 3)"),
    "exact_risk_of_probs.nan": (
        lambda tmp: exact_risk_of_probs(enumerable_task(),
                                        np.where(np.eye(5, 3), math.nan, 0.5)),
        "probs must lie in [0, 1], got nan"),
    "exact_risk_of_probs.negative": (
        lambda tmp: exact_risk_of_probs(enumerable_task(), np.full((5, 3), -1.0)),
        "probs must lie in [0, 1], got -1.0"),
    "task_logs.n": (
        lambda tmp: task_logs(enumerable_task(), zero_policy(5, 3), 0, seed=0),
        "n must be at least 1, got 0"),
    "task_logs.n_float": (
        lambda tmp: task_logs(enumerable_task(), zero_policy(5, 3), 2.5, seed=0),
        "n must be an integer, got 2.5"),
    "task_logs.seed": (
        lambda tmp: task_logs(enumerable_task(), zero_policy(5, 3), 2, seed=-1),
        "seed must be at least 0, got -1"),
    "BlobTask.centers": (
        lambda tmp: BlobTask(centers=np.ones(3), noise=0.1),
        "centers must be a nonempty (n, d) array"),
    "BlobTask.centers_empty": (
        lambda tmp: BlobTask(centers=np.zeros((0, 3)), noise=0.1),
        "centers must be a nonempty (n, d) array"),
    "BlobTask.centers_nan": (
        lambda tmp: BlobTask(centers=[[math.nan, 0.0], [0.0, 1.0]], noise=0.1),
        "centers must be finite"),
    "BlobTask.centers_inf": (
        lambda tmp: BlobTask(centers=[[math.inf, 0.0], [0.0, 1.0]], noise=0.1),
        "centers must be finite"),
    "BlobTask.noise": (
        lambda tmp: BlobTask(centers=np.eye(3), noise=-1.0),
        "noise must be nonnegative and finite, got -1.0"),
    "blob_task.classes": (
        lambda tmp: blob_task(num_classes=1),
        "num_classes must be at least 2, got 1"),
    "blob_task.seed": (
        lambda tmp: blob_task(seed=-7),
        "seed must be at least 0, got -7"),
    "sample_labeled.n": (
        lambda tmp: sample_labeled(blob_task(3, 2), 0, seed=0),
        "n must be at least 1, got 0"),
    "sample_labeled.seed": (
        lambda tmp: sample_labeled(blob_task(3, 2), 4, seed=1.0),
        "seed must be an integer, got 1.0"),
    "split_for_logging.num_train": (
        lambda tmp: split_for_logging(sample_labeled(blob_task(3, 2), 4, 0),
                                      4, seed=0),
        "num_train must be at most 3, got 4"),
    "split_for_logging.num_train_zero": (
        lambda tmp: split_for_logging(sample_labeled(blob_task(3, 2), 4, 0),
                                      0, seed=0),
        "num_train must be at least 1, got 0"),
    "split_for_logging.seed": (
        lambda tmp: split_for_logging(sample_labeled(blob_task(3, 2), 4, 0),
                                      2, seed=-1),
        "seed must be at least 0, got -1"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_its_message(tmp_path, case):
    build, message = CASES[case]
    with pytest.raises(ValueError) as err:
        build(tmp_path)
    assert str(err.value) == message.replace("<tmp>", str(tmp_path))
