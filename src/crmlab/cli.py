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

``train`` writes its model, report and trace to temporary files beside
them and moves them into place only once all of them are written, so a
failed write leaves none of them; a target that is not a regular file,
such as /dev/null, is written directly.  The other subcommands write one
file each; ``bound`` without ``--out`` writes to stdout, which cannot be
undone.

``simulate``, ``evaluate`` and ``bound`` take the action count k from the
model file, as a CSV stores none, so ``evaluate`` and ``bound`` accept a
model with more actions than its labeled or logged file used.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

from .bounds import Certificate, StabilityParams, certificates
from .datasets import load_labeled, load_logged, save_logged, simulate_logs, temper
from .estimators import argmax_accuracy, expected_reward_stochastic, ips_risk
from .learning import (
    LPR_FAMILY,
    OBJECTIVES,
    DivergenceError,
    TrainConfig,
    cross_validate,
    learn_logging_policy,
    objective_value,
    save_train_report,
    train,
)
from .policies import (
    MixedLogitSpec, SoftmaxPolicy, _staged, _writing, load_model,
    param_distance_sq, save_model,
)
from .seeding import derive_seed

__all__ = ["main"]

DEFAULT_LPR_GRID = tuple(10.0 ** e for e in range(-8, -2))
DEFAULT_VARIANCE_GRID = tuple(10.0 ** e for e in range(-3, 3))


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
    if not (0.0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (0.0 <= value < math.inf):
        raise argparse.ArgumentTypeError(f"must be nonnegative and finite, got {value}")
    return value


def _unit_open_float(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {value}")
    return value


def _grid(text: str) -> tuple[float, ...]:
    try:
        values = tuple(_nonneg_float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _write_csv(
    path: Optional[Path], header: list[str], rows: list[list],
    staged: Optional[list] = None,
) -> None:
    """Write ``header`` and ``rows`` as CSV lines to ``path``, or to stdout,
    through the library's one file writer (``staged`` as there)."""
    if path is None:
        csv.writer(sys.stdout, lineterminator="\n").writerows([header, *rows])
        return
    with _writing(path, staged) as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _fmt(value: float) -> str:
    # repr round-trips doubles exactly; CSV consumers get full precision.
    return repr(float(value))


def _load_prior_file(path: str, shape: tuple[int, int]) -> SoftmaxPolicy:
    prior = load_model(path).policy
    if prior.weights.shape != shape:
        raise ValueError(
            f"{path}: prior weights have shape {prior.weights.shape}, "
            f"model has {shape}"
        )
    return prior


def _load_prior(
    ns: argparse.Namespace, objective: str, shape: tuple[int, int]
) -> Optional[SoftmaxPolicy]:
    if (objective in LPR_FAMILY) != (ns.prior_model is not None):
        raise ValueError(
            "--prior-model is required for ips_lpr/wnll_lpr and "
            "rejected for every other objective"
        )
    if ns.prior_model is None:
        return None
    return _load_prior_file(ns.prior_model, shape)


# ---------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------


def cmd_simulate(ns: argparse.Namespace) -> int:
    model = load_model(ns.model)
    policy = temper(model.policy, ns.kappa)
    labeled = load_labeled(ns.labeled, k=policy.k)
    logs = simulate_logs(policy, labeled, derive_seed(ns.seed, "simulate"))
    out = ns.output_dir / ns.out
    save_logged(out, logs)
    print(f"n={logs.n}")
    print(f"k={logs.k}")
    print(f"d={logs.d}")
    print(f"B={_fmt(logs.feature_norm_bound)}")
    print(f"logging_ips_reward={_fmt(1.0 - ips_risk(policy, logs))}")
    print(f"out={out}")
    return 0


def cmd_learn_logging(ns: argparse.Namespace) -> int:
    logs = load_logged(ns.logged, k=ns.k)
    policy = learn_logging_policy(
        logs, ns.lam, epochs=ns.epochs, seed=derive_seed(ns.seed, "learn-logging")
    )
    out = ns.output_dir / ns.out
    save_model(out, policy, feature_norm_bound=logs.feature_norm_bound)
    nll = objective_value(TrainConfig("logging_nll"), policy, None, logs)
    print(f"held_in_nll={_fmt(nll)}")
    print(f"out={out}")
    return 0


def cmd_train(ns: argparse.Namespace) -> int:
    logs = load_logged(ns.logged, k=ns.k)
    prior = _load_prior(ns, ns.objective, (logs.k, logs.d))
    config = TrainConfig(
        objective=ns.objective,
        lam=ns.lam,
        lambda_l2=ns.lambda_l2,
        tau=ns.tau,
        sigma0=ns.sigma0,
        epochs=ns.epochs,
        seed=derive_seed(ns.seed, "train"),
    )
    report = train(config, logs, prior=prior)
    if ns.sigma_mode == "closed-form":
        if report.sigma_star is None:
            raise ValueError(
                f"objective {ns.objective!r} has no closed-form sigma"
            )
        sigma = report.sigma_star
    else:
        sigma = 1.0 / logs.n
    out = ns.output_dir / ns.out
    # The model, the report and the trace appear together or not at all.
    with _staged() as staged:
        save_model(
            out,
            report.final_policy,
            sigma=sigma,
            sigma0=config.sigma0,
            prior=prior,
            feature_norm_bound=logs.feature_norm_bound,
            _staged=staged,
        )
        save_train_report(Path(str(out) + ".report.json"), report, config,
                          _staged=staged)
        if ns.trace is not None:
            rows = zip(report.objective_trace, report.epoch_wall_times)
            _write_csv(ns.output_dir / ns.trace,
                       ["epoch", "objective", "wall_time"],
                       [[i, _fmt(obj), _fmt(wt)]
                        for i, (obj, wt) in enumerate(rows)], staged)
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
    logs = load_logged(ns.logged, k=ns.k)
    prior = _load_prior(ns, ns.method, (logs.k, logs.d))
    if ns.grid is not None:
        grid = ns.grid
    elif ns.method in ("poem", "poem_l2"):
        grid = DEFAULT_VARIANCE_GRID
    else:
        grid = DEFAULT_LPR_GRID
    config = TrainConfig(objective=ns.method, lambda_l2=ns.lambda_l2, tau=ns.tau,
                         epochs=ns.epochs, seed=derive_seed(ns.seed, "tune"))
    best, table = cross_validate(logs, grid, ns.folds, config, prior=prior)
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
    _write_csv(ns.output_dir / ns.out, header, rows)
    print(f"best_lambda={_fmt(best)}")
    return 0


def cmd_evaluate(ns: argparse.Namespace) -> int:
    model = load_model(ns.model)
    test = load_labeled(ns.labeled, k=model.policy.k)
    reward = expected_reward_stochastic(model.policy, test)
    accuracy = argmax_accuracy(model.policy, test)
    print(f"stochastic_reward={_fmt(reward)}")
    print(f"argmax_accuracy={_fmt(accuracy)}")
    if ns.out is not None:
        _write_csv(
            ns.output_dir / ns.out,
            ["metric", "value"],
            [["stochastic_reward", _fmt(reward)],
             ["argmax_accuracy", _fmt(accuracy)]],
        )
    return 0


def cmd_bound(ns: argparse.Namespace) -> int:
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
        prior = _load_prior_file(ns.prior_model, model.policy.weights.shape)
    if prior is None:
        raise ValueError(
            "no prior available: embed one in the model file or pass "
            "--prior-model"
        )
    spec = MixedLogitSpec(model.policy, sigma, prior, sigma0)
    B = logs.feature_norm_bound
    if model.feature_norm_bound is not None:
        B = max(B, model.feature_norm_bound)
    learned = None
    if ns.learned_prior is not None:
        w_hat = _load_prior_file(ns.learned_prior, model.policy.weights.shape)
        # L = 2B bounds the refit loss's gradient norm when every context
        # has norm <= B.
        learned = (w_hat, StabilityParams(
            lipschitz=2.0 * B, lam=ns.rerm_lambda, n=logs.n, delta=ns.delta
        ))
    header = [f.name for f in fields(Certificate)]
    rows = [
        [c.bound, str(c.n)] + [_fmt(getattr(c, f)) for f in header[2:]]
        for c in certificates(spec, logs, ns.tau, ns.delta, B, learned)
        if ns.all_tau or c.bound != "all_tau"
    ]
    out = None if ns.out is None else ns.output_dir / ns.out
    _write_csv(out, header, rows)
    return 0


# ---------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser, *, seed: bool) -> None:
    if seed:
        parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--output-dir", type=Path, default=Path("."),
        help="directory for relative output paths (default: current)",
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
    _add_common(p, seed=True)
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
    p.add_argument("--epochs", type=_nonneg_int, default=100)
    _add_common(p, seed=True)
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
    p.add_argument("--out", required=True,
                   help="model file output path; the report is <out>.report.json")
    p.add_argument("--trace", default=None,
                   help="optional per-epoch objective trace CSV")
    p.add_argument("--epochs", type=_nonneg_int, default=500)
    _add_common(p, seed=True)
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
    p.add_argument("--epochs", type=_nonneg_int, default=100)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser(
        "evaluate", help="score a saved model on labeled test data"
    )
    p.add_argument("--model", required=True, help="model file path")
    p.add_argument("--labeled", required=True, help="labeled test CSV path")
    p.add_argument("--out", default=None, help="optional metrics CSV path")
    _add_common(p, seed=False)
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
    p.add_argument("--out", default=None,
                   help="bound report CSV path (default: stdout)")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_bound)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if not ns.output_dir.exists():
            raise ValueError(f"output directory does not exist: {ns.output_dir}")
        return ns.func(ns)
    except (DivergenceError, FloatingPointError) as exc:
        print(f"crmlab: numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"crmlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
