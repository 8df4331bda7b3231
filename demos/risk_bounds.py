"""Certify a trained policy's risk with PAC-Bayes bounds, no test set needed.

Workflow: simulate logs on a synthetic task, train a prior-anchored policy,
then compute high-probability upper bounds on its true risk from the same
logs. Because the task is enumerable we can also print the exact risk, which
a bound can never see in practice, to show how much slack each certificate
carries and how it shrinks as the log grows.

Four certificates are compared:
  * the basic PAC-Bayes bound with the exact Gaussian KL,
  * the fixed-truncation bound at the training truncation level,
  * its all-truncation-levels variant (looser constants, wider coverage),
  * the learned-prior bound, which replaces the known logging policy with
    a ridge-penalized refit and pays a stability surcharge for it.
The last three are the rows ``certificates`` returns; the basic bound is
built from the exact KL and empirical risk those rows carry.
"""

import numpy as np

from crmlab import (
    MixedLogitSpec,
    StabilityParams,
    TrainConfig,
    certificates,
    default_logging_policy,
    enumerable_task,
    exact_risk_of_probs,
    mcallester_bound,
    mixed_logit_prob_mc,
    solve_logging_nll_exact,
    task_logs,
    train,
)

TAU, DELTA, SIGMA0 = 0.2, 0.1, 1.0


def certify(task, logging, n):
    logs = task_logs(task, logging, n, seed=99)
    fit = train(TrainConfig(objective="ips_lpr", lam=1.0, epochs=30, seed=0),
                logs, prior=logging)
    spec = MixedLogitSpec(fit.final_policy, 1.0 / n, logging, SIGMA0)
    refit = solve_logging_nll_exact(logs, 0.01)
    stability = StabilityParams(lipschitz=2.0, lam=0.01, n=n, delta=DELTA)
    fixed, all_tau, learned = certificates(
        spec, logs, TAU, DELTA, logs.feature_norm_bound,
        learned=(refit, stability),
    )

    # Ground truth by enumeration over Monte-Carlo action marginals.
    rng = np.random.default_rng(1)
    probs = np.empty_like(task.rewards)
    for c in range(probs.shape[0]):
        for a in range(probs.shape[1]):
            probs[c, a], _ = mixed_logit_prob_mc(spec, task.contexts[c], a,
                                                 100_000, rng)

    return {
        "emp": fixed.emp_risk,
        "basic": mcallester_bound(fixed.emp_risk, fixed.kl_exact, n, DELTA),
        "fixed": fixed.value,
        "all_tau": all_tau.value,
        "learned": learned.value,
        "true": exact_risk_of_probs(task, probs),
    }


def main():
    task = enumerable_task()
    logging = default_logging_policy(task)
    print(f"truncation {TAU}, confidence {1 - DELTA:.0%}, "
          f"posterior variance 1/n, anchored to the logging policy")
    print()
    header = ("n", "emp risk", "basic", "fixed", "all-tau", "learned", "true")
    print(("{:>8} " * len(header)).format(*header))
    for n in (2_000, 20_000, 100_000):
        row = certify(task, logging, n)
        print(f"{n:>8} {row['emp']:>8.4f} {row['basic']:>8.4f} "
              f"{row['fixed']:>8.4f} {row['all_tau']:>8.4f} "
              f"{row['learned']:>8.4f} {row['true']:>8.4f}")
    print()
    print("A certificate below 1 says something nontrivial about a risk in")
    print("[0, 1]. All four tighten toward the empirical risk at the 1/sqrt(n)")
    print("rate; the all-truncation and learned-prior variants pay for their")
    print("extra coverage with visibly more slack.")


if __name__ == "__main__":
    main()
