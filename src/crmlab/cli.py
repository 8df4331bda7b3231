"""Command-line surface for reproducible experiment runs.

Subcommands: ``simulate``, ``learn-logging``, ``train``, ``tune``,
``evaluate``, ``bound``.  All file outputs are CSV or structured text so
runs diff cleanly.  Exit codes: 0 success, 2 usage or validation failure,
3 numeric failure (training divergence).

Every subcommand that consumes randomness takes a master ``--seed`` and
derives a child seed from (master, subcommand tag) with the splitmix-style
derivation in :mod:`crmlab.seeding`; adding a pipeline stage therefore
never perturbs the randomness of earlier stages.  Outputs are byte-identical
across reruns with equal flags, except for recorded wall times in training
reports and trace files.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    BoundInputs,
    StabilityParams,
    c_term,
    crm_bound_all_tau,
    data_dep_c_term,
    data_dep_risk_bound,
    gaussian_kl_bound,
    gaussian_kl_exact,
    mixed_logit_risk_bound,
)
from .datasets import load_labeled, load_logged, save_logged, simulate_logs, temper
from .estimators import (
    _compensated_mean,
    argmax_accuracy,
    expected_reward_stochastic,
    ips_risk,
    mean_param_risk,
)
from .learning import (
    LPR_FAMILY,
    OBJECTIVES,
    DivergenceError,
    TrainConfig,
    cross_validate,
    learn_logging_policy,
    save_trace_csv,
    save_train_report,
    train,
)
from .policies import (
    MixedLogitSpec,
    SoftmaxPolicy,
    load_model,
    param_distance_sq,
    save_model,
)
from .seeding import derive_seed

__all__ = ["ExperimentConfig", "main"]

DEFAULT_LPR_GRID = tuple(10.0 ** e for e in range(-8, -2))
DEFAULT_VARIANCE_GRID = tuple(10.0 ** e for e in range(-3, 3))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run parameters: subcommand flags plus output placement."""

    run_id: str
    output_dir: Path

    def resolve(self, path: Optional[str]) -> Optional[Path]:
        """Resolve an output path against ``output_dir`` (absolute paths
        pass through)."""
        if path is None:
            return None
        p = Path(path)
        return p if p.is_absolute() else self.output_dir / p


def _experiment_config(ns: argparse.Namespace) -> ExperimentConfig:
    out_dir = Path(getattr(ns, "output_dir", "."))
    if not out_dir.exists():
        raise ValueError(f"output directory does not exist: {out_dir}")
    run_id = getattr(ns, "run_id", None) or ns.command
    return ExperimentConfig(run_id=run_id, output_dir=out_dir)


# ---------------------------------------------------------------------
# Flag types (validated at parse time so bad values exit 2 with usage)
# ---------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _unit_open_float(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _write_csv(path: Optional[Path], header: list[str], rows: list[list]) -> None:
    if path is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    # repr round-trips doubles exactly; CSV consumers get full precision.
    return repr(float(value))


# ---------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------


def cmd_simulate(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    model = load_model(ns.model)
    policy = temper(model.policy, ns.kappa)
    labeled = load_labeled(ns.labeled, k=policy.k)
    logs = simulate_logs(policy, labeled, derive_seed(ns.seed, "simulate"))
    out = cfg.resolve(ns.out)
    save_logged(out, logs)
    print(f"n={logs.n}")
    print(f"k={logs.k}")
    print(f"d={logs.d}")
    print(f"B={_fmt(logs.feature_norm_bound)}")
    print(f"logging_ips_reward={_fmt(1.0 - ips_risk(policy, logs))}")
    print(f"out={out}")
    return 0


def cmd_learn_logging(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    logs = load_logged(ns.logged, k=ns.k)
    policy = learn_logging_policy(
        logs,
        ns.lam,
        epochs=ns.epochs,
        batch_size=ns.batch_size,
        learning_rate=ns.lr,
        seed=derive_seed(ns.seed, "learn-logging"),
    )
    out = cfg.resolve(ns.out)
    save_model(out, policy, feature_norm_bound=logs.feature_norm_bound)
    logits = logs.features @ policy.weights.T + policy.biases
    logits -= logits.max(axis=1, keepdims=True)
    log_probs = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    nll = -_compensated_mean(log_probs[np.arange(logs.n), logs.actions])
    print(f"held_in_nll={_fmt(nll)}")
    print(f"out={out}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    logs = load_logged(ns.logged, k=ns.k)
    prior = None
    if ns.prior_model is not None:
        prior_file = load_model(ns.prior_model)
        prior = prior_file.policy
        if prior.k != ns.k:
            raise ValueError(
                f"prior model has k={prior.k} but --k is {ns.k}"
            )
    if (ns.objective in LPR_FAMILY) != (prior is not None):
        raise ValueError(
            "--prior-model is required for ips_lpr/wnll_lpr and "
            "rejected for every other objective"
        )
    config = TrainConfig(
        objective=ns.objective,
        lam=ns.lam,
        lambda_l2=ns.lambda_l2,
        tau=ns.tau,
        sigma0=ns.sigma0,
        epochs=ns.epochs,
        batch_size=ns.batch_size,
        learning_rate=ns.lr,
        adagrad_smoothing=ns.adagrad_smoothing,
        seed=derive_seed(ns.seed, "train"),
        train_biases=not ns.freeze_biases,
    )
    report = train(config, logs, prior=prior)
    if ns.sigma is not None:
        sigma = ns.sigma
    elif ns.sigma_mode == "closed-form":
        if report.sigma_star is None:
            raise ValueError(
                f"objective {ns.objective!r} has no closed-form sigma"
            )
        sigma = report.sigma_star
    else:
        sigma = 1.0 / logs.n
    if sigma > config.sigma0:
        raise ValueError(
            f"sigma={sigma} must not exceed sigma0={config.sigma0}"
        )
    out = cfg.resolve(ns.out)
    save_model(
        out,
        report.final_policy,
        sigma=sigma,
        sigma0=config.sigma0,
        prior=prior,
        feature_norm_bound=logs.feature_norm_bound,
    )
    report_path = cfg.resolve(ns.report) if ns.report else Path(str(out) + ".report.json")
    save_train_report(report_path, report, config)
    if ns.trace is not None:
        save_trace_csv(cfg.resolve(ns.trace), report)
    final = report.objective_trace[-1] if report.objective_trace else float("nan")
    print(f"objective={ns.objective}")
    print(f"final_objective={_fmt(final)}")
    print(f"sigma={_fmt(sigma)}")
    if report.sigma_star is not None:
        print(f"sigma_star={_fmt(report.sigma_star)}")
    if prior is not None:
        dist = math.sqrt(param_distance_sq(report.final_policy, prior))
        print(f"prior_distance={_fmt(dist)}")
    print(f"wall_time={_fmt(report.wall_time)}")
    print(f"out={out}")
    return 0


def cmd_tune(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    logs = load_logged(ns.logged, k=ns.k)
    prior = None
    if ns.prior_model is not None:
        prior = load_model(ns.prior_model).policy
    if (ns.method in LPR_FAMILY) != (prior is not None):
        raise ValueError(
            "--prior-model is required for ips_lpr/wnll_lpr and "
            "rejected for every other method"
        )
    if ns.grid is not None:
        grid = ns.grid
    elif ns.method in ("poem", "poem_l2"):
        grid = DEFAULT_VARIANCE_GRID
    else:
        grid = DEFAULT_LPR_GRID
    config = TrainConfig(
        objective=ns.method,
        lambda_l2=ns.lambda_l2,
        tau=ns.tau,
        epochs=ns.epochs,
        batch_size=ns.batch_size,
        learning_rate=ns.lr,
        adagrad_smoothing=ns.adagrad_smoothing,
        seed=0,
    )
    best, table = cross_validate(
        logs, ns.method, grid, ns.folds, derive_seed(ns.seed, "tune"), config,
        prior=prior,
    )
    header = (
        ["lambda"]
        + [f"fold{i}" for i in range(ns.folds)]
        + ["mean_score", "selected"]
    )
    rows = [
        [_fmt(row.lam)]
        + [_fmt(s) for s in row.fold_scores]
        + [_fmt(row.mean_score), int(row.lam == best)]
        for row in table
    ]
    _write_csv(cfg.resolve(ns.out), header, rows)
    print(f"best_lambda={_fmt(best)}")
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    model = load_model(ns.model)
    test = load_labeled(ns.labeled, k=model.policy.k)
    if test.features.shape[1] != model.policy.d:
        raise ValueError(
            f"model expects d={model.policy.d} features, test data has "
            f"d={test.features.shape[1]}"
        )
    reward = expected_reward_stochastic(model.policy, test)
    accuracy = argmax_accuracy(model.policy, test)
    print(f"stochastic_reward={_fmt(reward)}")
    print(f"argmax_accuracy={_fmt(accuracy)}")
    if ns.out is not None:
        _write_csv(
            cfg.resolve(ns.out),
            ["metric", "value"],
            [["stochastic_reward", _fmt(reward)],
             ["argmax_accuracy", _fmt(accuracy)]],
        )
    return 0


def cmd_bound(ns: argparse.Namespace) -> int:
    cfg = _experiment_config(ns)
    model = load_model(ns.model)
    logs = load_logged(ns.logged, k=model.policy.k)
    sigma = ns.sigma if ns.sigma is not None else model.sigma
    sigma0 = ns.sigma0 if ns.sigma0 is not None else model.sigma0
    if sigma is None or sigma0 is None:
        raise ValueError(
            "model file carries no sigma/sigma0; pass --sigma and --sigma0"
        )
    prior = model.prior
    if ns.prior_model is not None:
        prior = load_model(ns.prior_model).policy
    if prior is None:
        raise ValueError(
            "no prior available: embed one in the model file or pass "
            "--prior-model"
        )
    B = logs.feature_norm_bound
    if model.feature_norm_bound is not None:
        B = max(B, model.feature_norm_bound)
    d_eff = model.policy.k * model.policy.d
    spec = MixedLogitSpec(
        mean=model.policy, variance=sigma, prior_mean=prior,
        prior_variance=sigma0,
    )
    emp = mean_param_risk(model.policy, sigma, B, logs, ns.tau)
    kl_exact = gaussian_kl_exact(model.policy, sigma, prior, sigma0, d_eff)
    kl_bound = gaussian_kl_bound(model.policy, sigma, prior, sigma0, d_eff)
    c = c_term(model.policy, sigma, prior, sigma0, d_eff)

    header = [
        "bound", "n", "tau", "delta", "sigma", "sigma0",
        "emp_risk", "kl_exact", "kl_bound", "c_term", "value",
    ]

    def row(kind: str, c_value: float, value: float) -> list[str]:
        return [
            kind, str(logs.n), _fmt(ns.tau), _fmt(ns.delta), _fmt(sigma),
            _fmt(sigma0), _fmt(emp), _fmt(kl_exact), _fmt(kl_bound),
            _fmt(c_value), _fmt(value),
        ]

    rows = [row(
        "fixed_tau", c, mixed_logit_risk_bound(spec, logs, ns.tau, ns.delta)
    )]
    if ns.all_tau:
        inputs = BoundInputs(
            n=logs.n, delta=ns.delta, tau=ns.tau, kl_term=0.5 * c,
            emp_risk=emp,
        )
        rows.append(row("all_tau", c, crm_bound_all_tau(inputs)))
    if ns.learned_prior is not None:
        w_hat = load_model(ns.learned_prior).policy
        lipschitz = ns.lipschitz if ns.lipschitz is not None else 2.0 * B
        stability = StabilityParams(
            lipschitz=lipschitz, lam=ns.rerm_lambda, n=logs.n, delta=ns.delta
        )
        spec_hat = MixedLogitSpec(
            mean=model.policy, variance=sigma, prior_mean=w_hat,
            prior_variance=sigma0,
        )
        c_hat = data_dep_c_term(
            model.policy, sigma, w_hat, sigma0, stability, d_eff
        )
        value = data_dep_risk_bound(spec_hat, logs, ns.tau, ns.delta, stability)
        rows.append(row("learned_prior", c_hat, value))
    _write_csv(cfg.resolve(ns.out), header, rows)
    return 0


# ---------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--output-dir", default=".",
        help="directory for relative output paths (default: current)",
    )
    parser.add_argument(
        "--run-id", default=None, help="label recorded for this run"
    )


def _add_optimizer_flags(parser: argparse.ArgumentParser, epochs: int) -> None:
    parser.add_argument("--epochs", type=_nonneg_int, default=epochs)
    parser.add_argument("--batch-size", type=_positive_int, default=100)
    parser.add_argument("--lr", type=_positive_float, default=0.1)
    parser.add_argument(
        "--adagrad-smoothing", type=_positive_float, default=1.0
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crmlab",
        description=(
            "Counterfactual risk minimization from logged bandit feedback: "
            "simulation, training, tuning, evaluation, and risk bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "simulate",
        help="convert labeled data to bandit logs under a logging model",
    )
    p.add_argument("--labeled", required=True, help="labeled CSV path")
    p.add_argument("--model", required=True, help="logging-policy model file")
    p.add_argument(
        "--kappa", type=_nonneg_float, default=1.0,
        help="inverse temperature applied to the model (0 gives uniform)",
    )
    p.add_argument("--out", required=True, help="logged CSV output path")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "learn-logging", help="fit a logging policy to logged actions"
    )
    p.add_argument("--logged", required=True, help="logged CSV path")
    p.add_argument("--k", type=_positive_int, required=True,
                   help="action count")
    p.add_argument("--lambda", dest="lam", type=_positive_float, default=0.01,
                   help="ridge weight (must be positive)")
    p.add_argument("--out", required=True, help="model file output path")
    _add_optimizer_flags(p, epochs=100)
    _add_common(p)
    p.set_defaults(func=cmd_learn_logging)

    p = sub.add_parser("train", help="train a policy on logged data")
    p.add_argument("--logged", required=True, help="logged CSV path")
    p.add_argument("--k", type=_positive_int, required=True,
                   help="action count")
    p.add_argument("--objective", required=True, choices=OBJECTIVES)
    p.add_argument("--lambda", dest="lam", type=_nonneg_float, default=0.0)
    p.add_argument("--lambda-l2", type=_nonneg_float, default=0.0,
                   help="extra ridge weight (poem_l2 only)")
    p.add_argument("--tau", type=_unit_open_float, default=0.01)
    p.add_argument("--sigma0", type=_positive_float, default=1.0)
    p.add_argument("--prior-model", default=None,
                   help="prior model file (LPR objectives only)")
    p.add_argument(
        "--sigma-mode", choices=("fixed", "closed-form"), default="fixed",
        help="posterior variance written to the model file: fixed 1/n or "
             "the closed-form minimizer",
    )
    p.add_argument("--sigma", type=_positive_float, default=None,
                   help="explicit posterior variance (overrides --sigma-mode)")
    p.add_argument("--freeze-biases", action="store_true",
                   help="keep biases at zero during training")
    p.add_argument("--out", required=True, help="model file output path")
    p.add_argument("--report", default=None,
                   help="training report path (default: <out>.report.json)")
    p.add_argument("--trace", default=None,
                   help="optional per-epoch objective trace CSV")
    _add_optimizer_flags(p, epochs=500)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "tune", help="cross-validate a regularization weight on a grid"
    )
    p.add_argument("--logged", required=True, help="logged CSV path")
    p.add_argument("--k", type=_positive_int, required=True,
                   help="action count")
    p.add_argument(
        "--method", required=True,
        choices=[o for o in OBJECTIVES if o != "logging_nll"],
    )
    p.add_argument(
        "--grid", type=_grid, default=None,
        help="comma-separated grid values (default: powers of ten, "
             "1e-8..1e-3 for LPR/L2, 1e-3..1e2 for the POEM methods)",
    )
    p.add_argument("--folds", type=_positive_int, default=5)
    p.add_argument("--tau", type=_unit_open_float, default=0.01)
    p.add_argument("--lambda-l2", type=_nonneg_float, default=0.0)
    p.add_argument("--prior-model", default=None,
                   help="prior model file (LPR methods only)")
    p.add_argument("--out", required=True, help="per-lambda report CSV path")
    _add_optimizer_flags(p, epochs=100)
    _add_common(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "evaluate", help="score a saved model on labeled test data"
    )
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--labeled", required=True, help="labeled test CSV path")
    p.add_argument("--out", default=None, help="optional metrics CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "bound", help="compute risk bounds for a saved model"
    )
    p.add_argument("--model", required=True, help="posterior model file")
    p.add_argument("--prior-model", default=None,
                   help="prior model file (overrides any embedded prior)")
    p.add_argument("--logged", required=True, help="logged CSV path")
    p.add_argument("--tau", type=_unit_open_float, default=0.01)
    p.add_argument("--delta", type=_unit_open_float, default=0.1)
    p.add_argument("--sigma", type=_positive_float, default=None,
                   help="override the model file's posterior variance")
    p.add_argument("--sigma0", type=_positive_float, default=None,
                   help="override the model file's prior variance")
    p.add_argument("--all-tau", action="store_true",
                   help="add the truncation-covering bound row")
    p.add_argument(
        "--learned-prior", default=None,
        help="model file for a data-learned prior; adds the "
             "stability-inflated bound row",
    )
    p.add_argument("--rerm-lambda", type=_positive_float, default=0.01,
                   help="ridge weight used when learning the prior")
    p.add_argument("--lipschitz", type=_positive_float, default=None,
                   help="loss Lipschitz constant (default 2B)")
    p.add_argument("--out", default=None,
                   help="bound report CSV path (default: stdout)")
    _add_common(p)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except DivergenceError as exc:
        print(f"crmlab: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"crmlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
