"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``setup`` (untimed),
runs one timed pass in ``run_pass`` and checks the pass's outputs in
``check`` (untimed). crmlab receives only the generated inputs: the CLI
workloads call ``crmlab.cli.main(argv)`` in process with stdout captured,
the library workloads call the public API through the ``crmlab`` package
namespace, so the traced run sees every call.

Why these four (see README.md in this directory for the full glossary):

* ``pipeline``: the user's own path from log to certificate, the six CLI
  stages of ``demos/cli_pipeline.sh`` at acceptance scale; ``tune`` is
  most of it.
* ``train_sweep``: every training objective in memory; only ``learning``
  works, and the POEM surrogate runs nowhere else.
* ``ingest``: CSV read and write at 50k rows with no training.
* ``certify``: trials of the certificate-coverage protocol; the only
  workload that runs the Monte Carlo mixed-logit probability.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import crmlab
import crmlab.cli

# The blob task is fixed (the demo's task); the seed draws its samples.
BLOB = dict(num_classes=10, dim=20, noise=0.25, seed=7)
DELTA, TAU = 0.1, 0.05


def child_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed number ``index`` of the run seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(index,)).generate_state(1)[0])


@dataclass
class PassOutcome:
    """What one pass did, as the checks saw it."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    digest: str = ""
    quality: dict = field(default_factory=dict)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class CliRunner:
    """Calls ``crmlab.cli.main`` in process, one span per stage."""

    def __init__(self, recorder, workdir: Path) -> None:
        self.recorder = recorder
        self.workdir = workdir

    def __call__(self, stage: str, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        argv = [stage] + argv + ["--output-dir", str(self.workdir)]
        with self.recorder.span("cli." + stage.replace("-", "_")):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = crmlab.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()

    def masked(self, stdout: str) -> str:
        """Stdout with the work directory and wall times masked."""
        lines = []
        for line in stdout.replace(str(self.workdir), "<work>").splitlines():
            if line.startswith("wall_time="):
                line = "wall_time=<masked>"
            lines.append(line)
        return "\n".join(lines)


# Documented key=value lines of each CLI stage.
CLI_KEYS = {
    "simulate": ("n", "k", "d", "B", "logging_ips_reward", "out"),
    "learn-logging": ("held_in_nll", "out"),
    "tune": ("best_lambda",),
    "train": ("objective", "final_objective", "sigma", "sigma_star",
              "prior_distance", "wall_time", "out"),
    "evaluate": ("stochastic_reward", "argmax_accuracy"),
}
TEXT_KEYS = ("out", "objective")
BOUND_HEADER = ["bound", "n", "tau", "delta", "sigma", "sigma0", "emp_risk",
                "kl_exact", "kl_bound", "c_term", "value"]


def check_stage(stage: str, rc: int, stdout: str, stderr: str,
                bound_rows: tuple[str, ...]) -> tuple[dict, str | None]:
    """Parse a stage's stdout; return (values, failure or None)."""
    if rc != 0:
        return {}, f"{stage}: exit {rc}: {stderr.strip()[-200:]}"
    if stage == "bound":
        lines = stdout.strip().splitlines()
        table = [line.split(",") for line in lines]
        if not table or table[0] != BOUND_HEADER:
            return {}, "bound: table header differs"
        kinds = tuple(row[0] for row in table[1:])
        if kinds != tuple(bound_rows):
            return {}, f"bound: rows {kinds}, expected {tuple(bound_rows)}"
        if not all(_finite(v) for row in table[1:] for v in row[1:]):
            return {}, "bound: non-finite cell"
        return {row[0]: float(row[-1]) for row in table[1:]}, None
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            values[key] = value
    missing = [k for k in CLI_KEYS[stage] if k not in values]
    if missing:
        return values, f"{stage}: missing {', '.join(missing)}"
    bad = [k for k in CLI_KEYS[stage] if k not in TEXT_KEYS
           and not _finite(values[k])]
    if bad:
        return values, f"{stage}: non-finite {', '.join(bad)}"
    return values, None


def _labeled_pool(scale_pool: int, scale_test: int, seed: int):
    task = crmlab.blob_task(**BLOB)
    pool = crmlab.sample_labeled(task, scale_pool, seed=child_seed(seed, 1))
    test = crmlab.sample_labeled(task, scale_test, seed=child_seed(seed, 2))
    return pool, test


class Workload:
    """Defaults shared by the workloads."""

    # Every pass of a seed repeats the same work, so outputs must match.
    REPEATS_OUTPUTS = True

    def run_failures(self) -> list[str]:
        """Checks over the whole run, after the last pass."""
        return []

    def work_done(self) -> dict:
        """Units of work in one pass, by throughput metric name."""
        return {}


class CliWorkload(Workload):
    """CLI stages run in order; a failed stage ends the pass."""

    STAGES: tuple[str, ...] = ()
    BOUND_ROWS = ("fixed_tau", "all_tau", "learned_prior")

    def __init__(self, scale: str, recorder, workdir: Path) -> None:
        self.p = self.SCALES[scale]
        self.cli = CliRunner(recorder, workdir)
        self.work = workdir

    def argv(self, stage: str, results: list) -> list[str] | None:
        raise NotImplementedError

    def run_pass(self) -> list:
        results = []
        for stage in self.STAGES:
            argv = self.argv(stage, results)
            if argv is None:
                break
            results.append((stage, *self.cli(stage, _resolve(argv, self.work))))
            if results[-1][1] != 0:
                break
        return results

    def check(self, results: list) -> PassOutcome:
        outcome = PassOutcome(attempted=len(self.STAGES))
        parts, values = [], {}
        for stage, rc, stdout, stderr in results:
            values[stage], failure = check_stage(stage, rc, stdout, stderr,
                                                 self.BOUND_ROWS)
            if failure:
                outcome.failures.append(failure)
            parts += [stage, self.cli.masked(stdout)]
        outcome.failures += [f"{stage}: not run"
                             for stage in self.STAGES[len(results):]]
        if outcome.failures:
            return outcome
        self.check_files(outcome, parts)
        outcome.digest = _digest(parts)
        outcome.quality = {
            "policy_reward": float(values["evaluate"]["stochastic_reward"]),
            "certified_risk": values["bound"]["fixed_tau"],
        }
        return outcome

    def check_files(self, outcome: PassOutcome, parts: list) -> None:
        """Check the files a pass wrote and add them to the digest parts."""
        raise NotImplementedError


class Pipeline(CliWorkload):
    """simulate -> learn-logging -> tune -> train -> evaluate -> bound."""

    name = "pipeline"
    SCALES = {
        "full": dict(pool=5200, head=200, test=4000, fit_epochs=1500,
                     folds=5, tune_epochs=60, train_epochs=100),
        "tiny": dict(pool=260, head=60, test=200, fit_epochs=50,
                     folds=2, tune_epochs=3, train_epochs=5),
    }
    STAGES = ("simulate", "learn-logging", "tune", "train", "evaluate", "bound")

    def setup(self, seed: int) -> None:
        p, w = self.p, self.work
        pool, test = _labeled_pool(p["pool"], p["test"], seed)
        head, rest = crmlab.split_for_logging(pool, p["head"], seed=child_seed(seed, 3))
        crmlab.save_labeled(w / "bandit_pool.csv", rest)
        crmlab.save_labeled(w / "test.csv", test)
        logging = crmlab.supervised_policy(head, 0.01, epochs=p["fit_epochs"],
                                           seed=child_seed(seed, 4))
        # sample_labeled puts features on the unit sphere, so the bound is 1.
        crmlab.save_model(w / "logging.model", logging, feature_norm_bound=1.0)
        self.seeds = [str(child_seed(seed, 10 + i)) for i in range(4)]

    def argv(self, stage: str, results: list) -> list[str] | None:
        p, s = self.p, self.seeds
        if stage == "simulate":
            return ["--labeled", "bandit_pool.csv", "--model", "logging.model",
                    "--seed", s[0], "--out", "logs.csv"]
        if stage == "learn-logging":
            return ["--logged", "logs.csv", "--k", "10", "--seed", s[1],
                    "--out", "refit.model"]
        if stage == "tune":
            return ["--logged", "logs.csv", "--k", "10", "--method", "ips_lpr",
                    "--prior-model", "refit.model", "--folds", str(p["folds"]),
                    "--epochs", str(p["tune_epochs"]), "--seed", s[2],
                    "--out", "tuning.csv"]
        if stage == "train":
            best = _value(results[-1][2], "best_lambda")
            if best is None:
                return None
            return ["--logged", "logs.csv", "--k", "10", "--objective", "ips_lpr",
                    "--lambda", best, "--prior-model", "refit.model",
                    "--epochs", str(p["train_epochs"]),
                    "--sigma-mode", "closed-form", "--seed", s[3],
                    "--out", "policy.model"]
        if stage == "evaluate":
            return ["--model", "policy.model", "--labeled", "test.csv"]
        return ["--model", "policy.model", "--logged", "logs.csv",
                "--delta", str(DELTA), "--tau", str(TAU), "--all-tau",
                "--learned-prior", "refit.model", "--rerm-lambda", "0.01"]

    def check_files(self, outcome: PassOutcome, parts: list) -> None:
        tuning = (self.work / "tuning.csv").read_text().splitlines()
        if sum(line.endswith(",1") for line in tuning[1:]) != 1:
            outcome.failures.append("tune: table does not select one lambda")
        report = json.loads((self.work / "policy.model.report.json").read_text())
        report["wall_time"] = None
        parts.append(json.dumps(report, sort_keys=True))
        for name in ("logs.csv", "refit.model", "tuning.csv", "policy.model"):
            parts.append((self.work / name).read_bytes())


class Ingest(CliWorkload):
    """CSV-bound CLI stages on a large log, with no training."""

    name = "ingest"
    SCALES = {"full": dict(pool=50200, head=200, fit_epochs=1500),
              "tiny": dict(pool=560, head=60, fit_epochs=50)}
    STAGES = ("simulate", "evaluate", "bound")

    def setup(self, seed: int) -> None:
        p, w = self.p, self.work
        pool, _ = _labeled_pool(p["pool"], 1, seed)
        head, rest = crmlab.split_for_logging(pool, p["head"], seed=child_seed(seed, 3))
        self.logging = crmlab.supervised_policy(head, 0.01, epochs=p["fit_epochs"],
                                                seed=child_seed(seed, 4))
        self.rest = rest
        crmlab.save_labeled(w / "pool.csv", rest)
        crmlab.save_model(w / "logging.model", self.logging, feature_norm_bound=1.0)
        self.sim_seed = child_seed(seed, 10)
        self.checked_round_trip = False

    def argv(self, stage: str, results: list) -> list[str]:
        if stage == "simulate":
            return ["--labeled", "pool.csv", "--model", "logging.model",
                    "--seed", str(self.sim_seed), "--out", "logs.csv"]
        if stage == "evaluate":
            return ["--model", "logging.model", "--labeled", "pool.csv"]
        # Certify the logging policy itself: it is its own prior.
        return ["--model", "logging.model", "--prior-model", "logging.model",
                "--logged", "logs.csv", "--sigma", repr(1.0 / len(self.rest)),
                "--sigma0", "1.0", "--delta", str(DELTA), "--tau", str(TAU),
                "--all-tau", "--learned-prior", "logging.model"]

    def check_files(self, outcome: PassOutcome, parts: list) -> None:
        if not self.checked_round_trip:
            # Once per run; later passes must reproduce the digest instead.
            self.checked_round_trip = True
            failure = self._round_trip()
            if failure:
                outcome.failures.append(failure)
        parts.append((self.work / "logs.csv").read_bytes())

    def _round_trip(self) -> str | None:
        """The labeled and logged CSVs and the model file load back bit-exact."""
        expected = crmlab.simulate_logs(
            crmlab.temper(self.logging, 1.0), self.rest,
            crmlab.derive_seed(self.sim_seed, "simulate"))
        got = crmlab.load_logged(self.work / "logs.csv", k=expected.k)
        model = crmlab.load_model(self.work / "logging.model").policy
        pairs = [("features", got.features, expected.features),
                 ("actions", got.actions, expected.actions),
                 ("propensities", got.propensities, expected.propensities),
                 ("rewards", got.rewards, expected.rewards),
                 ("model weights", model.weights, self.logging.weights)]
        for label, a, b in pairs:
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                return f"round trip: {label} differ"
        if got.feature_norm_bound != expected.feature_norm_bound:
            return "round trip: feature norm bound differs"
        return None

    def work_done(self) -> dict:
        # simulate reads and writes the log, evaluate and bound read one each.
        return {"rows_per_s": 4 * len(self.rest)}


class TrainSweep(Workload):
    """Every training objective, library calls on one in-memory log."""

    name = "train_sweep"
    SCALES = {"full": dict(pool=5200, head=200, test=4000, fit_epochs=1500,
                           epochs=100),
              "tiny": dict(pool=260, head=60, test=200, fit_epochs=50, epochs=5)}
    # lam per objective: distance/ridge weight, or the variance weight.
    CONFIGS = (
        ("ips_lpr", dict(lam=1e-3)),
        ("wnll_lpr", dict(lam=1e-3)),
        ("ips_l2", dict(lam=1e-3)),
        ("poem", dict(lam=0.1)),
        ("poem_l2", dict(lam=0.1, lambda_l2=1e-3)),
    )
    REFIT_LAMBDA = 0.01

    def __init__(self, scale: str, recorder, workdir: Path) -> None:
        self.p = self.SCALES[scale]
        self.reference = None
        if scale == "full":
            doc = json.loads((Path(__file__).parent / "reference.json").read_text())
            self.reference = doc["train_sweep"]

    def setup(self, seed: int) -> None:
        p = self.p
        pool, self.test = _labeled_pool(p["pool"], p["test"], seed)
        head, rest = crmlab.split_for_logging(pool, p["head"], seed=child_seed(seed, 3))
        self.logging = crmlab.supervised_policy(head, 0.01, epochs=p["fit_epochs"],
                                                seed=child_seed(seed, 4))
        self.logs = crmlab.simulate_logs(self.logging, rest, child_seed(seed, 10))
        self.train_seed = child_seed(seed, 11)
        self.refit_seed = child_seed(seed, 12)

    def run_pass(self) -> list:
        results = []
        for objective, kwargs in self.CONFIGS:
            config = crmlab.TrainConfig(objective=objective, epochs=self.p["epochs"],
                                        seed=self.train_seed, **kwargs)
            prior = self.logging if objective in crmlab.LPR_FAMILY else None
            try:
                results.append((objective, config, crmlab.train(config, self.logs,
                                                                prior=prior)))
            except Exception as exc:  # counted as a failed operation
                results.append((objective, config, exc))
        try:
            refit = crmlab.learn_logging_policy(
                self.logs, self.REFIT_LAMBDA, epochs=self.p["epochs"],
                seed=self.refit_seed)
        except Exception as exc:
            refit = exc
        results.append(("logging_nll", None, refit))
        return results

    def check(self, results: list) -> PassOutcome:
        outcome = PassOutcome(attempted=len(results))
        parts, finals, rewards = [], {}, []
        for objective, config, result in results:
            if isinstance(result, Exception):
                outcome.failures.append(f"{objective}: {type(result).__name__}: {result}")
                continue
            if objective == "logging_nll":
                policy = result
                config = crmlab.TrainConfig(objective="logging_nll",
                                            lam=self.REFIT_LAMBDA, train_biases=False)
                trace = [crmlab.objective_value(config, policy, None, self.logs)]
            else:
                policy, trace = result.final_policy, result.objective_trace
                rewards.append(crmlab.expected_reward_stochastic(policy, self.test))
            if len(trace) == 0 or not all(math.isfinite(v) for v in trace):
                outcome.failures.append(f"{objective}: non-finite objective trace")
                continue
            finals[objective] = trace[-1]
            if self.reference is not None:
                ref = self.reference["final_objective"][objective]
                tol = self.reference["rel_tolerance"]
                if abs(trace[-1] - ref) > tol * abs(ref):
                    outcome.failures.append(
                        f"{objective}: final objective {trace[-1]!r} is not within "
                        f"{tol} of the reference {ref!r}")
            parts += [objective, repr(trace), policy.weights.tobytes(),
                      policy.biases.tobytes()]
        if outcome.failures:
            return outcome
        ips = results[0][2]
        spec = crmlab.MixedLogitSpec(ips.final_policy, ips.sigma_star,
                                     self.logging, 1.0)
        outcome.digest = _digest(parts)
        outcome.quality = {
            "policy_reward": float(np.mean(rewards)),
            "certified_risk": crmlab.mixed_logit_risk_bound(spec, self.logs, TAU,
                                                            DELTA),
            "final_objective": finals,
        }
        return outcome

    def work_done(self) -> dict:
        return {"record_epochs_per_s":
                (len(self.CONFIGS) + 1) * self.logs.n * self.p["epochs"]}


class Certify(Workload):
    """Trials of the certificate-coverage protocol on the enumerable task."""

    name = "certify"
    REPEATS_OUTPUTS = False  # each pass runs the next trials
    SCALES = {"full": dict(trials=5, n=500, epochs=20, draws=200_000),
              "tiny": dict(trials=2, n=50, epochs=2, draws=2_000)}
    SIGMA0 = 1.0
    STABILITY_LAMBDA = 0.01
    COVERAGE_NEEDED = 0.85

    def __init__(self, scale: str, recorder, workdir: Path) -> None:
        self.p = self.SCALES[scale]
        self.passes = 0
        self.wins = np.zeros(3, dtype=int)
        self.trials = 0

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.task = crmlab.enumerable_task()
        self.logging = crmlab.default_logging_policy(self.task)
        # Warm-up: the exact solver's first call pays its lazy imports.
        warm = crmlab.task_logs(self.task, self.logging, 50, seed=0)
        crmlab.solve_logging_nll_exact(warm, self.STABILITY_LAMBDA)

    def _trial(self, t: int) -> dict:
        task, logging, p = self.task, self.logging, self.p
        n = p["n"]
        sigma = 1.0 / n
        d_eff = task.k * task.d
        logs = crmlab.task_logs(task, logging, n, child_seed(self.seed, 1000 + 2 * t))
        fit = crmlab.train(crmlab.TrainConfig(objective="ips_lpr", lam=0.1,
                                              epochs=p["epochs"], seed=t),
                           logs, prior=logging)
        posterior = fit.final_policy
        emp = crmlab.mean_param_risk(posterior, sigma, 1.0, logs, TAU)
        spec = crmlab.MixedLogitSpec(posterior, sigma, logging, self.SIGMA0)
        w_hat = crmlab.solve_logging_nll_exact(logs, self.STABILITY_LAMBDA)
        spec_hat = crmlab.MixedLogitSpec(posterior, sigma, w_hat, self.SIGMA0)
        stability = crmlab.StabilityParams(lipschitz=2.0, lam=self.STABILITY_LAMBDA,
                                           n=n, delta=DELTA)
        kl = crmlab.gaussian_kl_exact(posterior, sigma, logging, self.SIGMA0, d_eff)
        bounds = (
            crmlab.mcallester_bound(emp, kl, n, DELTA),
            crmlab.mixed_logit_risk_bound(spec, logs, TAU, DELTA),
            crmlab.data_dep_risk_bound(spec_hat, logs, TAU, DELTA, stability),
        )
        rng = np.random.default_rng(child_seed(self.seed, 1001 + 2 * t))
        probs = np.empty_like(task.rewards)
        for c in range(probs.shape[0]):
            for a in range(probs.shape[1]):
                probs[c, a], _ = crmlab.mixed_logit_prob_mc(
                    spec, task.contexts[c], a, p["draws"], rng)
        true_risk = crmlab.exact_risk_of_probs(task, probs)
        return {"posterior": posterior, "bounds": bounds, "true_risk": true_risk}

    def run_pass(self) -> list:
        first = self.passes * self.p["trials"]
        self.passes += 1
        results = []
        for t in range(first, first + self.p["trials"]):
            try:
                results.append(self._trial(t))
            except Exception as exc:  # counted as a failed trial
                results.append(exc)
        return results

    def check(self, results: list) -> PassOutcome:
        outcome = PassOutcome(attempted=len(results))
        parts, rewards, certified = [], [], []
        for i, trial in enumerate(results):
            if isinstance(trial, Exception):
                outcome.failures.append(f"trial {i}: {type(trial).__name__}: {trial}")
                continue
            values = (*trial["bounds"], trial["true_risk"])
            if not all(math.isfinite(v) for v in values):
                outcome.failures.append(f"trial {i}: non-finite bound or risk")
                continue
            self.trials += 1
            self.wins += np.array([b >= trial["true_risk"] for b in trial["bounds"]])
            rewards.append(1.0 - crmlab.exact_risk(self.task, trial["posterior"]))
            certified.append(trial["bounds"][1])
            parts += [repr(values), trial["posterior"].weights.tobytes()]
        if outcome.failures:
            return outcome
        outcome.digest = _digest(parts)
        outcome.quality = {"policy_reward": float(np.median(rewards)),
                           "certified_risk": float(np.median(certified))}
        return outcome

    def run_failures(self) -> list[str]:
        """Coverage over every trial of the run, at the acceptance test's threshold."""
        if self.trials == 0:
            return ["no completed trials"]
        names = ("mcallester", "fixed_tau", "learned_prior")
        return [f"coverage: {name} bound held in {w}/{self.trials} trials"
                for name, w in zip(names, self.wins)
                if w < self.COVERAGE_NEEDED * self.trials]

    def work_done(self) -> dict:
        return {"trials_per_s": self.p["trials"]}


def _resolve(argv: list[str], work: Path) -> list[str]:
    """Prefix input file arguments with the work directory."""
    inputs = {"--labeled", "--model", "--logged", "--prior-model",
              "--learned-prior"}
    return [str(work / arg) if prev in inputs else arg
            for prev, arg in zip([None] + argv[:-1], argv)]


def _value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1:]
    return None


WORKLOADS = {cls.name: cls for cls in (Pipeline, TrainSweep, Ingest, Certify)}
