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
    BoundInputs,
    EnumerableTask,
    LabeledDataset,
    LoggedDataset,
    MixedLogitSpec,
    SoftmaxPolicy,
    StabilityParams,
    TrainConfig,
    action_prob_matrix,
    blob_task,
    closed_form_sigma,
    derive_seed,
    enumerable_task,
    exact_risk_of_probs,
    gaussian_kl_bound,
    gaussian_kl_exact,
    kfold_split,
    load_labeled,
    load_model,
    mcallester_bound,
    mean_param_risk,
    mixed_logit_prob_bounds,
    mixed_logit_prob_mc,
    objective_gradient,
    poem_build_surrogate,
    sample_labeled,
    save_model,
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
    return surrogate.gradient(POLICY, logged(5))


CASES = {
    # bounds
    "BoundInputs.delta": (
        lambda tmp: BoundInputs(n=10, delta=1.0, tau=0.1, kl_term=0.0,
                                emp_risk=0.5),
        "delta must lie in (0, 1), got 1.0"),
    "BoundInputs.emp_risk_nan": (
        lambda tmp: BoundInputs(n=10, delta=0.1, tau=0.1, kl_term=0.0,
                                emp_risk=math.nan),
        "emp_risk must be at least 1 - 1/tau = -9.0, got nan"),
    "StabilityParams.delta": (
        lambda tmp: StabilityParams(lipschitz=1.0, lam=1.0, n=10, delta=0.0),
        "delta must lie in (0, 1), got 0.0"),
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
    "load_labeled.no_header": (
        empty_file, "<tmp>/empty.csv: no header"),
    "kfold_split.num_folds": (
        lambda tmp: kfold_split(5, 0, seed=0),
        "num_folds must be at least 1, got 0"),
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
    "objective_gradient.poem_batch": (
        lambda tmp: objective_gradient(TrainConfig("poem"), zero_policy(1, 2),
                                       None, one_record(0.5, 1.0)),
        "n must be at least 2, got 1"),
    "closed_form_sigma.sigma0_inf": (
        lambda tmp: closed_form_sigma(logged(), 0.1, math.inf),
        "sigma0 must be positive and finite, got inf"),
    "solve_logging_nll_exact.lam_inf": (
        lambda tmp: solve_logging_nll_exact(logged(), math.inf),
        "lam must be positive and finite, got inf"),
    "PoemSurrogate.gradient.dataset": (
        poem_surrogate_on_other_data,
        "surrogate was built for a different dataset"),
    "poem_build_surrogate.n": (
        lambda tmp: poem_build_surrogate(zero_policy(1, 2),
                                         one_record(0.5, 1.0), 0.01, 0.1),
        "n must be at least 2, got 1"),
    "poem_build_surrogate.lam": (
        lambda tmp: poem_build_surrogate(POLICY, logged(), 0.01, -1.0),
        "lam must be nonnegative, got -1.0"),
    "poem_build_surrogate.lam_nan": (
        lambda tmp: poem_build_surrogate(POLICY, logged(), 0.01, math.nan),
        "lam must be nonnegative, got nan"),
    # policies
    "SoftmaxPolicy.biases": (
        lambda tmp: SoftmaxPolicy(np.zeros((2, 3)), np.zeros(3)),
        "biases must be a 1-D array of length k"),
    "action_prob_matrix.shape": (
        lambda tmp: action_prob_matrix(POLICY, np.ones((4, 3))),
        "context matrix must have shape (n, 2)"),
    "action_prob_matrix.finite": (
        lambda tmp: action_prob_matrix(POLICY, [[0.0, math.nan]]),
        "context features must be finite"),
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
        "prior dimensions must match the policy"),
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
        "contexts and rewards must be 2-D"),
    "EnumerableTask.reward_rows": (
        lambda tmp: enumerable(rewards=np.zeros((4, 3))),
        "one reward row per context required"),
    "EnumerableTask.context_probs_shape": (
        lambda tmp: enumerable(context_probs=np.full(4, 0.25)),
        "context_probs must have one entry per context"),
    "EnumerableTask.rewards_range": (
        lambda tmp: enumerable(rewards=np.full((5, 3), 1.5)),
        "rewards must lie in [0, 1]"),
    "EnumerableTask.rewards_nan": (
        lambda tmp: enumerable(rewards=np.full((5, 3), math.nan)),
        "rewards must lie in [0, 1]"),
    "EnumerableTask.context_probs_sum": (
        lambda tmp: enumerable(context_probs=np.full(5, 0.3)),
        "context_probs must be a distribution"),
    "exact_risk_of_probs.shape": (
        lambda tmp: exact_risk_of_probs(enumerable_task(), np.ones((5, 2))),
        "probs must have shape (5, 3)"),
    "task_logs.n": (
        lambda tmp: task_logs(enumerable_task(), zero_policy(5, 3), 0, seed=0),
        "n must be at least 1, got 0"),
    "BlobTask.centers": (
        lambda tmp: BlobTask(centers=np.ones(3), noise=0.1),
        "centers must be (k, d)"),
    "BlobTask.noise": (
        lambda tmp: BlobTask(centers=np.eye(3), noise=-1.0),
        "noise must be nonnegative and finite, got -1.0"),
    "blob_task.classes": (
        lambda tmp: blob_task(num_classes=1),
        "num_classes must be at least 2, got 1"),
    "sample_labeled.n": (
        lambda tmp: sample_labeled(blob_task(3, 2), 0, seed=0),
        "n must be at least 1, got 0"),
    "split_for_logging.num_train": (
        lambda tmp: split_for_logging(sample_labeled(blob_task(3, 2), 4, 0),
                                      4, seed=0),
        "num_train must lie strictly between 0 and n"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_raises_its_message(tmp_path, case):
    build, message = CASES[case]
    with pytest.raises(ValueError) as err:
        build(tmp_path)
    assert str(err.value) == message.replace("<tmp>", str(tmp_path))
