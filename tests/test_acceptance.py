"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a one-line verdict (visible under ``pytest -s``) and
asserts a wall-clock budget on top of the substantive check. The three
reward-sweep checks share a single module-scoped simulation whose cost is
charged against each consumer's budget.

The image-classification check needs pre-extracted pixel features on disk
and runs for over an hour, so it is opt-in: set CRMLAB_FMNIST_DIR to a
directory holding train.csv / test.csv in the labeled-CSV format and
select the ``slow`` marker.
"""

import math
import os
import pathlib
import time
from dataclasses import replace
from statistics import fmean

import numpy as np
import pytest

from crmlab import (
    LoggedDataset,
    MixedLogitSpec,
    OBJECTIVES,
    SoftmaxPolicy,
    StabilityParams,
    TrainConfig,
    blob_task,
    certificates,
    closed_form_sigma,
    cross_validate,
    derive_seed,
    exact_risk,
    exact_risk_of_probs,
    expected_reward_stochastic,
    gaussian_kl_exact,
    ips_risk,
    load_labeled,
    mcallester_bound,
    mean_param_risk,
    mixed_logit_prob_bounds,
    mixed_logit_prob_mc,
    objective_gradient,
    objective_value,
    param_distance_sq,
    poem_build_surrogate,
    sample_labeled,
    simulate_logs,
    solve_logging_nll_exact,
    split_for_logging,
    supervised_policy,
    task_logs,
    temper,
    train,
    two_step_learned_lpr,
    zero_policy,
)
from conftest import (
    fd_gradient,
    golden_section_min,
    random_logged,
    rel_gradient_error,
    smooth_logged,
)


def verdict(label, ok, detail, t0, budget, carried=0.0):
    """Print one PASS/FAIL line, then enforce the check and its budget."""
    elapsed = carried + time.perf_counter() - t0
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail} ({elapsed:.1f}s)")
    assert ok, detail
    assert elapsed < budget, f"exceeded {budget:.0f}s budget: {elapsed:.1f}s"


def sem(values):
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def test_ips_estimate_is_unbiased(task, logging_policy):
    t0 = time.perf_counter()
    target = temper(logging_policy, 0.5)
    exact = exact_risk(task, target)
    runs = 200
    estimates = [
        ips_risk(target,
                 task_logs(task, logging_policy, 500, derive_seed(s, "ips-sweep")))
        for s in range(runs)
    ]
    gap = abs(float(np.mean(estimates)) - exact)
    allowance = 3.0 * sem(estimates)
    verdict("[ 1] unbiased ips estimate", gap <= allowance,
            f"|mean - exact| = {gap:.5f} vs 3*sem = {allowance:.5f}", t0, 30.0)


def test_risk_bounds_cover_true_risk(task, logging_policy):
    t0 = time.perf_counter()
    n, delta, tau = 500, 0.1, 0.05
    sigma, sigma0 = 1.0 / n, 1.0
    d_eff = task.rewards.shape[1] * task.contexts.shape[1]
    trials, needed = 100, 85
    wins = np.zeros(3, dtype=int)
    for t in range(trials):
        logs = task_logs(task, logging_policy, n, derive_seed(t, "bound-logs"))
        # A lightly trained posterior keeps the parameterized empirical risk
        # inside [0, 1], where the basic bound is defined.
        fit = train(TrainConfig(objective="ips_lpr", lam=0.1, epochs=20, seed=t),
                    logs, prior=logging_policy)
        posterior = fit.final_policy
        emp = mean_param_risk(posterior, sigma, 1.0, logs, tau)
        spec = MixedLogitSpec(posterior, sigma, logging_policy, sigma0)
        w_hat = solve_logging_nll_exact(logs, 0.01)
        stability = StabilityParams(lipschitz=2.0, lam=0.01, n=n, delta=delta)
        # Rows fixed_tau, all_tau, learned_prior share one mean_param_risk.
        fixed, _, learned = certificates(spec, logs, tau, delta,
                                         logs.feature_norm_bound,
                                         learned=(w_hat, stability))
        bounds = (
            mcallester_bound(
                emp,
                gaussian_kl_exact(posterior, sigma, logging_policy, sigma0, d_eff),
                n, delta),
            fixed.value,
            learned.value,
        )
        rng = np.random.default_rng(derive_seed(t, "bound-mc"))
        probs = np.empty_like(task.rewards)
        for c in range(probs.shape[0]):
            for a in range(probs.shape[1]):
                probs[c, a], _ = mixed_logit_prob_mc(spec, task.contexts[c], a,
                                                     200_000, rng)
        true_risk = exact_risk_of_probs(task, probs)
        wins += np.array([b >= true_risk for b in bounds])
    verdict("[ 2] risk bounds hold", bool(np.all(wins >= needed)),
            f"basic/fixed-trunc/learned-prior valid in "
            f"{wins[0]}/{wins[1]}/{wins[2]} of {trials} trials (need {needed})",
            t0, 300.0)


def test_probability_sandwich_brackets_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(60)
    cases = 1000
    hits = 0
    for _ in range(cases):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(2, 6))
        mean = SoftmaxPolicy(rng.normal(size=(k, d)), rng.normal(size=k))
        sigma = float(rng.uniform(1e-4, 0.1))
        x = rng.normal(size=d)
        B = float(np.linalg.norm(x))
        spec = MixedLogitSpec(mean, sigma, zero_policy(d, k), max(sigma, 0.1))
        a = int(rng.integers(0, k))
        lower, upper = mixed_logit_prob_bounds(spec, x, a, B)
        estimate, se = mixed_logit_prob_mc(spec, x, a, 200_000, rng)
        hits += lower - 4.0 * se <= estimate <= upper + 4.0 * se
    verdict("[ 3] probability sandwich", hits == cases,
            f"monte-carlo estimate bracketed in {hits}/{cases} cases", t0, 120.0)


def test_variance_formula_matches_golden_section():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 80))
        d = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        data = random_logged(rng, n, d, k, min_propensity=0.02)
        tau = float(rng.uniform(0.02, 0.3))
        B = data.feature_norm_bound
        d_eff = k * d
        sigma0 = float(10.0 ** rng.uniform(-3.0, 6.0))
        clipped_mean = float(
            np.mean(data.rewards / np.maximum(data.propensities, tau)))
        scale = d_eff / (tau * (data.n - 1))

        def sub_objective(log_sigma, B=B, clipped_mean=clipped_mean, scale=scale):
            s = math.exp(log_sigma)
            return 0.5 * s * B * B * clipped_mean - scale * math.log(s)

        reference = min(
            math.exp(golden_section_min(sub_objective, math.log(1e-12),
                                        math.log(sigma0))),
            sigma0,
        )
        got = closed_form_sigma(data, tau, sigma0)
        worst = max(worst, abs(got - reference) / reference)
    verdict("[ 4] closed-form variance", worst <= 1e-6,
            f"worst relative gap to golden-section = {worst:.2e}", t0, 10.0)


def test_every_objective_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(62)
    worst = {}
    for objective in OBJECTIVES:
        config = TrainConfig(objective=objective, lam=0.37, lambda_l2=0.21,
                             tau=0.15)
        top = 0.0
        data = None
        for i in range(100):
            if i % 10 == 0:
                data = smooth_logged(rng, 15, 3, 3)
            pol = SoftmaxPolicy(0.5 * rng.normal(size=(3, 3)),
                                0.5 * rng.normal(size=3))
            prior = (SoftmaxPolicy(0.5 * rng.normal(size=(3, 3)), np.zeros(3))
                     if objective.endswith("lpr") else None)
            analytic = objective_gradient(config, pol, prior, data)
            numeric = fd_gradient(config, pol, prior, data)
            top = max(top, rel_gradient_error(analytic, numeric))
        worst[objective] = top
    overall = max(worst.values())
    verdict("[ 5] objective gradients", overall <= 1e-4,
            "worst relative error "
            + ", ".join(f"{name}={err:.1e}" for name, err in worst.items()),
            t0, 60.0)


def test_poem_surrogate_majorizes_exact_objective():
    t0 = time.perf_counter()
    rng = np.random.default_rng(63)
    worst_anchor_gap = 0.0
    min_margin = math.inf
    for _ in range(20):
        data = random_logged(rng, 40, 3, 3)
        anchor = SoftmaxPolicy(0.4 * rng.normal(size=(3, 3)),
                               0.4 * rng.normal(size=3))
        lam = float(rng.uniform(0.05, 2.0))
        config = TrainConfig(objective="poem", lam=lam, tau=0.1)
        surrogate = poem_build_surrogate(anchor, data, 0.1, lam)
        anchor_gap = abs(surrogate.value(anchor, data)
                         - objective_value(config, anchor, None, data))
        worst_anchor_gap = max(worst_anchor_gap, anchor_gap)
        for _ in range(50):
            nearby = SoftmaxPolicy(
                anchor.weights + 0.3 * rng.normal(size=(3, 3)),
                anchor.biases + 0.3 * rng.normal(size=3),
            )
            margin = (surrogate.value(nearby, data)
                      - objective_value(config, nearby, None, data))
            min_margin = min(min_margin, margin)
    ok = worst_anchor_gap <= 1e-8 and min_margin >= -1e-12
    verdict("[ 6] poem majorization", ok,
            f"anchor gap <= {worst_anchor_gap:.1e}, "
            f"min domination margin = {min_margin:.1e}", t0, 30.0)


# Shared by the three reward-sweep checks below. The matched value sits where
# regularization bites without flattening the learner; the two-step value
# sits where both runs are near the unregularized optimum.
SWEEP_GRID = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)
MATCHED_LAMBDA = 1e-2
TWO_STEP_LAMBDA = 1e-5


@pytest.fixture(scope="module")
def reward_sweep():
    """Ten-seed regularization sweep on a 10-class, 20-feature task.

    One simulation serves three checks: the per-lambda comparison of the
    prior-anchored and l2-anchored learners, the flattened-logging
    comparison at a matched lambda, and the learned-vs-known-prior
    comparison. Per seed: 200 labeled examples fit the logging policy,
    5,000 bandit records are logged, and rewards are scored on a fresh
    4,000-example test set. Only final policies are read, so the direct
    train calls skip the per-epoch objective trace (the private
    ``_trace=False``; the final policies are bit-identical).
    """
    t0 = time.perf_counter()
    task = blob_task(10, 20, noise=0.25, seed=7)
    out = {
        "l2": {lam: [] for lam in SWEEP_GRID},
        "lpr": {lam: [] for lam in SWEEP_GRID},
        "logging": [],
        "learned_prior": [],
        "flat_l2": [],
        "flat_lpr": [],
    }
    for s in range(10):
        pool = sample_labeled(task, 5200, seed=1000 + s)
        head, bandit = split_for_logging(pool, 200, seed=2000 + s)
        logging = supervised_policy(head, 0.01, epochs=1500, seed=s)
        test = sample_labeled(task, 4000, seed=9000 + s)
        out["logging"].append(expected_reward_stochastic(logging, test))
        logs = simulate_logs(logging, bandit, seed=3000 + s)
        for lam in SWEEP_GRID:
            for name, prior in (("l2", None), ("lpr", logging)):
                fit = train(
                    TrainConfig(objective=f"ips_{name}", lam=lam, epochs=100,
                                seed=s),
                    logs, prior=prior, _trace=False)
                out[name][lam].append(
                    expected_reward_stochastic(fit.final_policy, test))
        two_step = two_step_learned_lpr(
            logs,
            TrainConfig(objective="ips_lpr", lam=TWO_STEP_LAMBDA, epochs=100,
                        seed=s))
        out["learned_prior"].append(
            expected_reward_stochastic(two_step.final_policy, test))
        flat = temper(logging, 0.0)
        flat_logs = simulate_logs(flat, bandit, seed=3000 + s)
        for name, prior, sink in (("ips_l2", None, out["flat_l2"]),
                                  ("ips_lpr", flat, out["flat_lpr"])):
            fit = train(
                TrainConfig(objective=name, lam=MATCHED_LAMBDA, epochs=100,
                            seed=s),
                flat_logs, prior=prior, _trace=False)
            sink.append(expected_reward_stochastic(fit.final_policy, test))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_regularization_sweep_prior_beats_l2(reward_sweep):
    t0 = time.perf_counter()
    margins = {
        lam: fmean(reward_sweep["lpr"][lam]) - fmean(reward_sweep["l2"][lam])
        for lam in SWEEP_GRID
    }
    worst_lam = min(margins, key=margins.get)
    lpr_pin = abs(fmean(reward_sweep["lpr"][1.0])
                  - fmean(reward_sweep["logging"]))
    l2_pin = abs(fmean(reward_sweep["l2"][1.0]) - 1.0 / 10)
    ok = margins[worst_lam] >= 0.0 and lpr_pin <= 0.02 and l2_pin <= 0.02
    verdict("[ 7] regularization sweep", ok,
            f"min prior-vs-l2 margin {margins[worst_lam]:+.4f} at "
            f"lambda={worst_lam:g}; over-regularized limits sit "
            f"{lpr_pin:.4f} from the logging reward and {l2_pin:.4f} from "
            f"uniform", t0, 900.0, carried=reward_sweep["elapsed"])


def test_flattened_logging_policy_removes_prior_advantage(reward_sweep):
    t0 = time.perf_counter()
    flat_gap = fmean(reward_sweep["flat_lpr"]) - fmean(reward_sweep["flat_l2"])
    flat_se = math.hypot(sem(reward_sweep["flat_lpr"]),
                         sem(reward_sweep["flat_l2"]))
    informed_gap = (fmean(reward_sweep["lpr"][MATCHED_LAMBDA])
                    - fmean(reward_sweep["l2"][MATCHED_LAMBDA]))
    informed_se = math.hypot(sem(reward_sweep["lpr"][MATCHED_LAMBDA]),
                             sem(reward_sweep["l2"][MATCHED_LAMBDA]))
    ok = (abs(flat_gap) <= 2.0 * flat_se
          and informed_gap > 2.0 * informed_se)
    verdict("[ 8] flattened-prior contrast", ok,
            f"flat logging: gap {flat_gap:+.5f} within 2se={2 * flat_se:.5f}; "
            f"trained logging: gap {informed_gap:+.4f} exceeds "
            f"2se={2 * informed_se:.4f}", t0, 900.0,
            carried=reward_sweep["elapsed"])


def test_learned_prior_matches_known_prior(reward_sweep):
    t0 = time.perf_counter()
    known = fmean(reward_sweep["lpr"][TWO_STEP_LAMBDA])
    learned = fmean(reward_sweep["learned_prior"])
    diff = abs(known - learned)
    verdict("[ 9] learned prior", diff <= 0.01,
            f"|reward(known prior) - reward(learned prior)| = {diff:.4f}",
            t0, 600.0, carried=reward_sweep["elapsed"])


def test_single_record_replacement_is_stable():
    t0 = time.perf_counter()
    lam, n = 0.05, 50
    limit = 2.0 / (lam * n) + 1e-6  # lipschitz 2B with unit-norm features
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        X = rng.normal(size=(n + 1, 4))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        actions = rng.integers(0, 3, size=n + 1)

        def dataset(rows, X=X, actions=actions):
            return LoggedDataset(X[rows], actions[rows], np.full(n, 0.5),
                                 np.zeros(n), 3, 1.0)

        base = dataset(np.arange(n))
        swapped = dataset(np.r_[n, np.arange(1, n)])
        moved = math.sqrt(param_distance_sq(
            solve_logging_nll_exact(base, lam),
            solve_logging_nll_exact(swapped, lam)))
        worst = max(worst, moved)
    verdict("[10] refit stability", worst <= limit,
            f"worst solution movement {worst:.4f} vs limit {limit:.4f}",
            t0, 60.0)


IMAGE_TABLE = {
    "logging": 0.5123,
    "ips_l2": 0.7778,
    "ips_lpr": 0.7955,
    "wnll_lpr": 0.7978,
}
IMAGE_TUNE_GRID = tuple(10.0 ** e for e in range(-8, -2))


@pytest.mark.slow
@pytest.mark.skipif(
    "CRMLAB_FMNIST_DIR" not in os.environ,
    reason="set CRMLAB_FMNIST_DIR to a directory with train.csv and test.csv",
)
def test_image_benchmark_reproduces_method_ordering():
    t0 = time.perf_counter()
    root = pathlib.Path(os.environ["CRMLAB_FMNIST_DIR"])
    pool = load_labeled(root / "train.csv", 10)
    test = load_labeled(root / "test.csv", 10)
    rewards = {name: [] for name in IMAGE_TABLE}
    for trial in range(10):
        head, rest = split_for_logging(pool, 1000,
                                       seed=derive_seed(trial, "image-split"))
        logging = supervised_policy(head, 0.01, epochs=100, seed=trial)
        rewards["logging"].append(expected_reward_stochastic(logging, test))
        logs = simulate_logs(logging, rest, seed=derive_seed(trial, "image-logs"))
        for method in ("ips_l2", "ips_lpr", "wnll_lpr"):
            prior = logging if method.endswith("lpr") else None
            config = TrainConfig(objective=method, lam=IMAGE_TUNE_GRID[0],
                                 epochs=100, seed=trial)
            tune = replace(config, seed=derive_seed(trial, "image-tune"))
            best, _ = cross_validate(logs, IMAGE_TUNE_GRID, 5, tune, prior=prior)
            fit = train(replace(config, lam=best), logs, prior=prior)
            rewards[method].append(
                expected_reward_stochastic(fit.final_policy, test))
    means = {name: fmean(values) for name, values in rewards.items()}
    ordered = (means["logging"] < means["ips_l2"]
               < min(means["ips_lpr"], means["wnll_lpr"]))
    close = all(abs(means[name] - IMAGE_TABLE[name]) <= 0.05
                for name in IMAGE_TABLE)
    verdict("[11] image benchmark", ordered and close,
            ", ".join(f"{name}={means[name]:.4f} (target {IMAGE_TABLE[name]})"
                      for name in IMAGE_TABLE), t0, 7200.0)
