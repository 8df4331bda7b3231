"""Golden digests: pinned sha256 of every deterministic output.

A digest covers the exact bytes of a result: arrays by dtype, shape and raw
bytes, floats by their hex form, files byte for byte.  A change that moves
any output by one ulp therefore fails here, which is what a refactor that
promises identical outputs must show.  The only masked values are wall
times: the ``wall_time=`` line of ``train``, the report's ``wall_time``
field and the trace's wall-time column.

The ``bounds.`` entries evaluate each closed-form risk bound over one fixed
grid of (emp_risk, kl, n, delta, tau), the edges included: kl = 0, emp_risk
at and just below the 1 - 1/tau floor, n = 2 and n = 10**15, and the
smallest subnormal tau, where the all-tau bound is inf.  A point that is
rejected digests as its exception type and message.

The ``k10.`` entries repeat the training digests at the pipeline's shape
(k=10, d=20, 450 records, so every epoch ends in a 50-record batch).  From
k=8 numpy sums each softmax row pairwise rather than in sequence, so only
these entries pin the row-sum order the pipeline actually runs.

The table was taken with numpy 2.4.6 on OpenBLAS 0.3.31 (DYNAMIC_ARCH).
Another numpy or BLAS build may round differently; the failure message
prints the running versions so such a mismatch can be told apart from a
change of behaviour.  There is no tolerance and no switch to regenerate the
table: a change that alters an output on purpose edits the entries by hand
and says why.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np

from crmlab import (
    OBJECTIVES,
    SoftmaxPolicy,
    TrainConfig,
    blob_task,
    crm_bound_all_tau,
    crm_bound_fixed_tau,
    cross_validate,
    mcallester_bound,
    objective_gradient,
    poem_build_surrogate,
    sample_labeled,
    save_labeled,
    save_model,
    simulate_logs,
    split_for_logging,
    supervised_policy,
    temper,
    train,
)
from crmlab.cli import main
from conftest import surrogate_gradient

GOLDEN = {
    "train.ips_lpr":
        "8e0c51362e3a2623ee592ab588d7b640cdbbd0f470fff7170a5134501cd5db11",
    "train.wnll_lpr":
        "61da52c798174446fa3f3c49be8e5a5e3dae4c24f709907f0099be07d774c5fb",
    "train.ips_l2":
        "2b7bc5b7ea86ee6fde35f8407007339dc8e8b1e5773794a14d794ca3d1ddb28f",
    "train.poem":
        "3125992d331d3a4ab5de103a73199fa9ab3e439731cbade279efa4ec1a342370",
    "train.poem_l2":
        "56f6130d5e59519a9869ba1df954d1dcdc1f77855a99379b3b1adde825b03db6",
    "train.logging_nll":
        "c7c8bf333670a8c837f8eedaa00962934b0b21cacacf576266c53f1915b6b722",
    "objective_gradient.ips_lpr":
        "2777609fd9f599164f0cc7642d6cc7708f4cfb0ef7009f30216baa181d2920c0",
    "objective_gradient.wnll_lpr":
        "ef3ee4f238a100ad63afe93d964a31b78f9e7ecc37700ebce33f9a01dc665a47",
    "objective_gradient.ips_l2":
        "f869d7ebd8cd3b8b47c639a6ca2427f566e4fc1616a4bbf489db0dc416e8950f",
    "objective_gradient.poem":
        "a93b980b7a050cb9d2a26ffa10848a7445af28a95c16f5988cfab27f328faa38",
    "objective_gradient.poem_l2":
        "b0d583e62b0c6443e57281b9ef21e07baf2b5909f137bc9a4b63a01a6bab96be",
    "objective_gradient.logging_nll":
        "4aeb2939ba5df567bd81deaec42ca4561e67997d824bfa262b74df62b64cc7f0",
    "poem_build_surrogate":
        "08610ab422f553a85da576661e32eb7026c42606777c09b3a8649b74c729ecb0",
    "PoemSurrogate.value":
        "4659f9669e830bdb894c40ec07318a49b67b7ae1ec1b7c0acb38c6daf5900f63",
    "PoemSurrogate.gradient":
        "c2f50bf5e8e15227fd2b8f492ab6677fd7f9c52c3a318855e52c8272fa72327c",
    "cross_validate":
        "6b56fc444004370eb9e4a6317a559e241739cccc83a92cbe67a92375a12b175e",
    "bounds.mcallester_bound":
        "11c584b3cf59c6b5c9d2cb3aa08914842596794dc0247ba0e14ba37bbc67c410",
    "bounds.crm_bound_fixed_tau":
        "970073dcca3b52d1463326ff71e997a550458ce4e3262e5f43e085b36d4de7fb",
    "bounds.crm_bound_all_tau":
        "3af220d24682aabe53a0294269beec55f98e6489f2ffc9b8baa5e92bee15fd1e",
    "k10.train.ips_lpr":
        "e0b0da263265c2c16aeb18607a013e890666537f8bf2241a6bfee8d1cd74abf3",
    "k10.train.wnll_lpr":
        "0a1055ae4aff9b0cbeb6d26123c7cc3911bb846c4a270f51f905350f46f209ce",
    "k10.train.ips_l2":
        "e894412e5a582fdf60cd835cc3509700bb8fde7561402ec3c77f171fcb66f194",
    "k10.train.poem":
        "4b81c329f7f1994b4cc22d557307eacefe7c3a1c72cbdfe507af8a10142b541a",
    "k10.train.poem_l2":
        "20c2b4674c29f89636141a3e7885b2800b33c78546dfbd8757e5fc111522d27e",
    "k10.train.logging_nll":
        "ad0d29142d92d644323c2485c482b46038ba57a6f101abcb73bb41f6f61b6b32",
    "k10.train_trace_free.ips_lpr":
        "e140cecdbe94086b34825e9098fd43d40b3ca795fa9cf2ded8bda4d33843c1de",
    "k10.train_trace_free.wnll_lpr":
        "0eba1186e2f5ddfe8bd679708609f4e3cb4265f698753546d2ec7c66908fc242",
    "k10.train_trace_free.ips_l2":
        "5d395e05413ada74a8adecaf0fd14efafd89b3e92f1581f2b7769b5791f77675",
    "k10.train_trace_free.poem":
        "e575ed83617024baa70e6e0f1621ea348ccb3a746549874f8261f164286b552a",
    "k10.train_trace_free.poem_l2":
        "ffa2714262e572437b0c1f0238f418f32907504d36eacd54ed7fbbae0f803246",
    "k10.train_trace_free.logging_nll":
        "7c09605cced04b0057cf3a6f2fa05c093cdd4bb848a7f69d7464b966f8d08fed",
    "k10.objective_gradient.ips_lpr":
        "4a4b6d34dc511281ceeb358432b16dbb3acaa646a36238c662b6e7f54728746d",
    "k10.objective_gradient.wnll_lpr":
        "71efad5d3433c986fa42d9e18a7062114c2f49cc04e9a86801cd06dc8b4c5e4f",
    "k10.objective_gradient.ips_l2":
        "158695e5fe244e3fc1ea59f408bd09e3a5d24d666b76f0c2852724326b13bec7",
    "k10.objective_gradient.poem":
        "89ee04cb48da370944151b12cce081f44ca57fd09aa969955a9f3a0719a7e4c9",
    "k10.objective_gradient.poem_l2":
        "41de7c92ad5d72e81bc8b4f4b199d8c5e183da803ef2f7643d7a7075266055f5",
    "k10.objective_gradient.logging_nll":
        "1cabd07a1836c9e6464719c3aba30b218d821c36bfc286061fb1a6bc134d1aa9",
    "k10.PoemSurrogate.gradient":
        "cf9fda520229e0314d42ffd0cf66ef181eb2f89a2fea002b7324e767fdbbe7ee",
    "cli.simulate.stdout":
        "ab3cb8125dbb8a0aac4b3ae68eae3a4d9021ac669e08f8d6b763ced5e7bc14dc",
    "cli.simulate:logs.csv":
        "6228d35dc43d2c970ed817f64080121c85bab3c9ffc0bf14e586e6ac57508401",
    "cli.learn_logging.stdout":
        "261f5ad25f57def7b8a9e88095ea96313eaa6c0f816ee5ec5c2f89d677df0b16",
    "cli.learn_logging:refit.model":
        "4ff6c7890e474378abd3f8dee6d89a7f1b7121a13eb73a4aba59c6bfe0c3d7ab",
    "cli.tune_ips_lpr.stdout":
        "9ae425d5467a46b1ec1da7a74e84e81f3a39b4d90aa1db83b9b780fc02db2fbb",
    "cli.tune_ips_lpr:tune_ips_lpr.csv":
        "7e49bdf0ac0799dacafee5cd00a0349814d4c1bc6a68323584afad3cbae305bc",
    "cli.tune_poem_l2.stdout":
        "3435c79bb6bb95bfb39bf010616701e6c018bc0bf30e5cfb3c95b0a2a475fd53",
    "cli.tune_poem_l2:tune_poem_l2.csv":
        "40148c395cd3d10317f40b3a87757dc1ff89c959b9beefaff806b13c73fcaa3f",
    "cli.train.stdout":
        "9c7931eee6e83178adccf2752b98f3a6bba6488cb23e58ba5c092a719ddbeb3d",
    "cli.train:policy.model":
        "4be474cf4f204846216ee7cc5bd4572a312fd332979e6b3a05892db5206ed6b4",
    "cli.train:policy.model.report.json":
        "504f9d63607b799853d2da4df93187f03061e14afed81efea7fe5179f94aa0c7",
    "cli.train:trace.csv":
        "6025eb26e652b0e84edb0907b8ad0c273df38fc927b0f7974e934458cbb43519",
    "cli.evaluate.stdout":
        "9119be987cd135fc4de244bc35393702403f68524a6b9923eff402278a5a91ca",
    "cli.evaluate:eval.csv":
        "743df3b58828f87df71e387e9c2ea54f826d01dc7ba01db935f713002cb14cf2",
    "cli.bound.stdout":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "cli.bound:bound.csv":
        "f88b657829824963a92651c58cb0dcf472284c61bfd4c334e0e2ffeef039c8b3",
}

# Denominator truncation binds on the IPS objectives at TAU (58 of 1000
# propensities fall below it); the ratio cap binds on the POEM objectives
# at POEM_TAU for records the gradient policy favours.
TAU = 0.05
POEM_TAU = 0.3
LAMBDAS = {
    "ips_lpr": 1e-3,
    "wnll_lpr": 1e-3,
    "ips_l2": 1e-3,
    "poem": 0.5,
    "poem_l2": 0.5,
    "logging_nll": 0.01,
}


def _encode(part) -> bytes:
    if isinstance(part, np.ndarray):
        head = f"{part.dtype.str}{part.shape}:".encode()
        return head + np.ascontiguousarray(part).tobytes()
    if isinstance(part, float):
        return float(part).hex().encode() + b";"
    if isinstance(part, (list, tuple)):
        return b"[" + b"".join(_encode(p) for p in part) + b"]"
    if isinstance(part, bytes):
        return part
    return repr(part).encode() + b";"


def _digest(*parts) -> str:
    return hashlib.sha256(b"".join(_encode(p) for p in parts)).hexdigest()


def _config(
    objective: str, epochs: int = 8, train_biases: bool = True
) -> TrainConfig:
    return TrainConfig(
        objective=objective,
        lam=LAMBDAS[objective],
        lambda_l2=1e-3 if objective == "poem_l2" else 0.0,
        tau=POEM_TAU if objective in ("poem", "poem_l2") else TAU,
        sigma0=10.0,
        epochs=epochs,
        seed=31,
        train_biases=train_biases,
    )


def _blob_setup(k: int = 6, d: int = 8, n: int = 1000):
    """A k-action, d-feature blob task: its class centers, a logging policy,
    the n labeled rows it logs at inverse temperature 2, those logs, a test
    set."""
    task = blob_task(k, d, noise=0.5, seed=3)
    pool = sample_labeled(task, n + 100, seed=4)
    head, rest = split_for_logging(pool, 100, seed=5)
    logging = supervised_policy(head, 1e-3, epochs=300, seed=0)
    logs = simulate_logs(temper(logging, 2.0), rest, seed=6)
    test = sample_labeled(task, 300, seed=8)
    return task.centers, logging, rest, logs, test


def library_digests() -> dict[str, str]:
    centers, logging, _, logs, _ = _blob_setup()
    out = {}
    for objective in OBJECTIVES:
        prior = logging if objective in ("ips_lpr", "wnll_lpr") else None
        report = train(_config(objective), logs, prior=prior)
        out[f"train.{objective}"] = _digest(
            report.final_policy.weights, report.final_policy.biases,
            report.objective_trace, report.sigma_star,
        )

    rng = np.random.default_rng(9)
    policy = SoftmaxPolicy(6.0 * centers, 0.3 * rng.normal(size=6))
    batch = logs.subset(np.arange(200))
    for objective in OBJECTIVES:
        prior = logging if objective in ("ips_lpr", "wnll_lpr") else None
        out[f"objective_gradient.{objective}"] = _digest(
            *objective_gradient(_config(objective), policy, prior, batch)
        )

    surrogate = poem_build_surrogate(logging, logs, POEM_TAU, 0.5)
    out["poem_build_surrogate"] = _digest(
        surrogate.alpha, surrogate.beta, surrogate.const, surrogate.degenerate,
    )
    out["PoemSurrogate.value"] = _digest(surrogate.value(policy, logs))
    out["PoemSurrogate.gradient"] = _digest(
        *surrogate_gradient(surrogate, policy, logs))

    best, table = cross_validate(
        logs, [0.1, 1.0], 3, replace(_config("poem", epochs=4), seed=17)
    )
    out["cross_validate"] = _digest(
        best, [(row.lam, row.fold_scores, row.mean_score) for row in table]
    )
    return out


def pipeline_shape_digests() -> dict[str, str]:
    """Training digests at k=10, d=20 with a partial last batch."""
    centers, logging, _, logs, _ = _blob_setup(10, 20, 450)
    out = {}
    for objective in OBJECTIVES:
        prior = logging if objective in ("ips_lpr", "wnll_lpr") else None
        for name, trace in (("train", True), ("train_trace_free", False)):
            reports = [
                train(_config(objective, train_biases=biases), logs,
                      prior=prior, _trace=trace)
                for biases in (True, False)
            ]
            out[f"k10.{name}.{objective}"] = _digest(*(
                (r.final_policy.weights, r.final_policy.biases,
                 r.objective_trace, r.sigma_star)
                for r in reports
            ))

    rng = np.random.default_rng(9)
    policy = SoftmaxPolicy(6.0 * centers, 0.3 * rng.normal(size=10))
    batch = logs.subset(np.arange(150))
    for objective in OBJECTIVES:
        prior = logging if objective in ("ips_lpr", "wnll_lpr") else None
        out[f"k10.objective_gradient.{objective}"] = _digest(
            *objective_gradient(_config(objective), policy, prior, batch)
        )
    surrogate = poem_build_surrogate(logging, logs, POEM_TAU, 0.5)
    out["k10.PoemSurrogate.gradient"] = _digest(
        *surrogate_gradient(surrogate, policy, logs))
    return out


# Each bound as a function of one grid point (emp_risk, kl, n, delta, tau).
BOUNDS = {
    "mcallester_bound":
        lambda emp, kl, n, delta, tau: mcallester_bound(emp, kl, n, delta),
    "crm_bound_fixed_tau": crm_bound_fixed_tau,
    "crm_bound_all_tau": crm_bound_all_tau,
}


def _bound_grid():
    """Every (emp_risk, kl, n, delta, tau) point of the bound digests: at
    each tau, emp_risk at the floor 1 - 1/tau, inside and outside the
    round-off slack below it, and three values in [0, 1]."""
    for tau in (5e-324, 1e-3, 0.05, 0.3, 0.999):
        floor = 1.0 - 1.0 / tau
        slack = 1e-9 * max(1.0, 1.0 / tau)
        for emp in (floor, floor - 0.5 * slack, floor - 2.0 * slack,
                    0.0, 0.37, 1.0):
            for kl in (0.0, 1.5, 1e6):
                for n in (2, 1000, 10**15):
                    for delta in (1e-6, 0.05, 0.5):
                        yield emp, kl, n, delta, tau


def bound_digests() -> dict[str, str]:
    out = {}
    for name, bound in BOUNDS.items():
        results = []
        for point in _bound_grid():
            try:
                results.append(bound(*point))
            except (ValueError, ArithmeticError) as exc:
                results.append(f"{type(exc).__name__}: {exc}")
        out[f"bounds.{name}"] = _digest(results)
    return out


_MASKS = {
    "stdout": (re.compile(rb"^wall_time=.*$", re.M), b"wall_time=<masked>"),
    "report": (re.compile(rb'"wall_time": [^,\n}]+'), b'"wall_time": null'),
    "trace": (re.compile(rb"^(\d+,[^,]+),[^,\n]+$", re.M), rb"\1,<masked>"),
}


def _masked(kind: str, raw: bytes) -> bytes:
    pattern, replacement = _MASKS[kind]
    return pattern.sub(replacement, raw)


CLI_STAGES = (
    ("simulate", ["simulate", "--labeled", "bandit.csv",
                  "--model", "logging.model", "--kappa", "2", "--seed", "11",
                  "--out", "logs.csv"],
     ["logs.csv"]),
    ("learn_logging", ["learn-logging", "--logged", "logs.csv", "--k", "6",
                       "--epochs", "20", "--seed", "12",
                       "--out", "refit.model"],
     ["refit.model"]),
    ("tune_ips_lpr", ["tune", "--logged", "logs.csv", "--k", "6",
                      "--method", "ips_lpr", "--prior-model", "refit.model",
                      "--grid", "1e-4,1e-2", "--folds", "3", "--epochs", "5",
                      "--tau", "0.05", "--seed", "13",
                      "--out", "tune_ips_lpr.csv"],
     ["tune_ips_lpr.csv"]),
    ("tune_poem_l2", ["tune", "--logged", "logs.csv", "--k", "6",
                      "--method", "poem_l2", "--lambda-l2", "1e-3",
                      "--grid", "0.1,1", "--folds", "3", "--epochs", "5",
                      "--tau", "0.3", "--seed", "13",
                      "--out", "tune_poem_l2.csv"],
     ["tune_poem_l2.csv"]),
    ("train", ["train", "--logged", "logs.csv", "--k", "6",
               "--objective", "ips_lpr", "--lambda", "1e-3",
               "--prior-model", "refit.model", "--epochs", "10",
               "--tau", "0.05", "--sigma0", "10", "--sigma-mode", "closed-form",
               "--seed", "14", "--trace", "trace.csv",
               "--out", "policy.model"],
     ["policy.model", "policy.model.report.json", "trace.csv"]),
    ("evaluate", ["evaluate", "--model", "policy.model",
                  "--labeled", "test.csv", "--out", "eval.csv"],
     ["eval.csv"]),
    ("bound", ["bound", "--model", "policy.model", "--logged", "logs.csv",
               "--tau", "0.05", "--delta", "0.1", "--all-tau",
               "--learned-prior", "refit.model", "--rerm-lambda", "0.01",
               "--out", "bound.csv"],
     ["bound.csv"]),
)


def cli_digests(workdir: Path, capture) -> dict[str, str]:
    """Run the six CLI stages in ``workdir`` (the current directory) and
    digest each stage's stdout and written files.  ``capture`` returns and
    clears the stdout printed since its last call."""
    _, logging, rest, _, test = _blob_setup()
    save_labeled(workdir / "bandit.csv", rest)
    save_labeled(workdir / "test.csv", test)
    save_model(workdir / "logging.model", logging, feature_norm_bound=1.0)
    capture()
    out = {}
    for name, argv, files in CLI_STAGES:
        assert main(argv) == 0, name
        stdout = capture().encode()
        out[f"cli.{name}.stdout"] = _digest(_masked("stdout", stdout))
        for filename in files:
            raw = (workdir / filename).read_bytes()
            if filename.endswith(".report.json"):
                raw = _masked("report", raw)
            elif filename == "trace.csv":
                raw = _masked("trace", raw)
            out[f"cli.{name}:{filename}"] = _digest(raw)
    return out


def _blas_config() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown BLAS"
    return f"{blas.get('name')} {blas.get('openblas configuration', blas.get('version'))}"


def _group(name: str) -> str:
    """The test that checks entry ``name``: "bounds", "cli", "k10" or ""
    (library)."""
    head = name.split(".")[0]
    return head if head in ("bounds", "cli", "k10") else ""


def _check(actual: dict[str, str], group: str) -> None:
    expected = {k: v for k, v in GOLDEN.items() if _group(k) == group}
    differing = sorted(
        name for name in expected.keys() | actual.keys()
        if expected.get(name) != actual.get(name)
    )
    assert not differing, (
        f"outputs changed: {', '.join(differing)} "
        f"(numpy {np.__version__}, {_blas_config()})"
    )


def test_library_outputs_match_golden_digests():
    _check(library_digests(), "")


def test_bound_outputs_match_golden_digests():
    _check(bound_digests(), "bounds")


def test_pipeline_shape_outputs_match_golden_digests():
    _check(pipeline_shape_digests(), "k10")


def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _check(cli_digests(tmp_path, lambda: capsys.readouterr().out), "cli")
