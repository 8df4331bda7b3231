import argparse
import builtins
import csv
import errno
import io
import json
import math
import multiprocessing
import os
import stat

import numpy as np
import pytest

from crmlab import (
    LabeledDataset,
    SoftmaxPolicy,
    crm_bound_all_tau,
    crm_bound_fixed_tau,
    load_logged,
    load_model,
    save_labeled,
    save_logged,
    save_model,
    zero_policy,
)
from crmlab import _jobs, learning
from crmlab.cli import build_parser, main
from conftest import (
    floor_propensity_logged,
    subnormal_propensity_logged,
    zero_feature_logged,
)


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def usage_error(capsys, *argv):
    """Run a command line that must fail parsing; return its stderr."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def kv(out):
    """Parse the key=value report lines a subcommand prints."""
    pairs = {}
    for line in out.strip().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            pairs[key] = value
    return pairs


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a labeled set, a logging model, and simulated logs."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(2026)
    X = rng.normal(size=(120, 4))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    labels = rng.integers(0, 3, size=120)
    save_labeled(root / "labeled.csv", LabeledDataset(X, labels, 3))
    policy = SoftmaxPolicy(0.7 * rng.normal(size=(3, 4)), np.zeros(3))
    save_model(root / "logging.model", policy, feature_norm_bound=1.0)
    rc = main([
        "simulate", "--labeled", str(root / "labeled.csv"),
        "--model", str(root / "logging.model"),
        "--out", str(root / "logs.csv"), "--seed", "11",
    ])
    assert rc == 0
    return root


class TestSimulate:
    def test_reports_run_facts(self, ws, tmp_path, capsys):
        rc, out, err = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--out", tmp_path / "logs.csv",
            "--seed", "11",
        )
        assert rc == 0 and err == ""
        facts = kv(out)
        assert facts["n"] == "120"
        assert facts["k"] == "3"
        assert facts["d"] == "4"
        assert float(facts["B"]) == pytest.approx(1.0, rel=1e-12)
        assert 0.0 <= float(facts["logging_ips_reward"]) <= 1.0

    def test_kappa_zero_logs_exact_uniform_propensities(self, ws, tmp_path,
                                                        capsys):
        out_path = tmp_path / "uniform.csv"
        rc, out, _ = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--kappa", "0",
            "--out", out_path, "--seed", "4",
        )
        assert rc == 0
        logs = load_logged(out_path, k=3)
        assert np.all(logs.propensities == 1.0 / 3.0)

    def test_missing_model_exits_two_and_names_path(self, ws, tmp_path,
                                                    capsys):
        missing = tmp_path / "no-such.model"
        rc, out, err = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", missing, "--out", tmp_path / "x.csv",
        )
        assert rc == 2
        assert err.startswith("crmlab: error:")
        assert str(missing) in err

    def test_rerun_is_byte_identical(self, ws, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            rc, _, _ = run(
                capsys, "simulate", "--labeled", ws / "labeled.csv",
                "--model", ws / "logging.model", "--out", p, "--seed", "11",
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == (ws / "logs.csv").read_bytes()

    def test_seed_changes_logs(self, ws, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--out", tmp_path / "c.csv",
            "--seed", "12",
        )
        assert rc == 0
        assert (tmp_path / "c.csv").read_bytes() != \
            (ws / "logs.csv").read_bytes()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_kappa_names_kappa(self, ws, tmp_path, capsys):
        # kappa itself is finite, but kappa times a weight of 2 overflows.
        model = tmp_path / "big.model"
        save_model(model, SoftmaxPolicy(np.full((3, 4), 2.0), np.zeros(3)),
                   feature_norm_bound=1.0)
        rc, out, err = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", model, "--kappa", "1e308", "--out", tmp_path / "o.csv",
        )
        assert rc == 2 and out == ""
        assert err.splitlines() == [
            "crmlab: error: kappa=1e+308 overflows the policy parameters"
        ]
        assert not (tmp_path / "o.csv").exists()


class TestLearnLogging:
    def test_fit_beats_uniform_likelihood(self, ws, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "learn-logging", "--logged", ws / "logs.csv", "--k", "3",
            "--epochs", "30", "--out", tmp_path / "fit.model",
        )
        assert rc == 0
        assert float(kv(out)["held_in_nll"]) < math.log(3.0)
        fitted = load_model(tmp_path / "fit.model")
        assert np.all(fitted.policy.biases == 0.0)

    def test_zero_ridge_is_usage_error(self, ws, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([
                "learn-logging", "--logged", str(ws / "logs.csv"),
                "--k", "3", "--lambda", "0",
                "--out", str(tmp_path / "fit.model"),
            ])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_deterministic(self, ws, tmp_path, capsys):
        paths = [tmp_path / "f1.model", tmp_path / "f2.model"]
        for p in paths:
            rc, _, _ = run(
                capsys, "learn-logging", "--logged", ws / "logs.csv",
                "--k", "3", "--epochs", "10", "--out", p, "--seed", "5",
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrain:
    def test_l2_smoke_writes_model_report_trace(self, ws, tmp_path, capsys):
        model = tmp_path / "l2.model"
        trace = tmp_path / "trace.csv"
        rc, out, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--lambda", "1e-3", "--epochs", "5",
            "--out", model, "--trace", trace,
        )
        assert rc == 0 and err == ""
        facts = kv(out)
        assert math.isfinite(float(facts["final_objective"]))
        assert float(facts["sigma"]) == 1.0 / 120.0
        assert model.exists()
        report = json.loads((tmp_path / "l2.model.report.json").read_text())
        assert report["objective"] == "ips_l2"
        assert len(report["objective_trace"]) == 5
        assert len(trace.read_text().strip().splitlines()) == 6

    def test_trace_csv_rows_match_the_report(self, ws, tmp_path, capsys):
        rc, _, _ = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--lambda", "1e-3", "--epochs", "3",
            "--seed", "3", "--out", tmp_path / "m.model", "--trace", "trace.csv",
            "--output-dir", tmp_path,
        )
        assert rc == 0
        report = json.loads((tmp_path / "m.model.report.json").read_text())
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert lines[0] == "epoch,objective,wall_time"
        assert len(lines) == 4
        for epoch, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == epoch
            assert float(cells[1]) == report["objective_trace"][epoch]
            assert float(cells[2]) >= 0.0

    def test_closed_form_mode(self, ws, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--epochs", "2",
            "--sigma-mode", "closed-form", "--out", tmp_path / "s2.model",
        )
        assert rc == 0
        facts = kv(out)
        assert facts["sigma"] == facts["sigma_star"]

    def test_closed_form_mode_rejected_for_likelihood_fit(self, ws, tmp_path,
                                                          capsys):
        rc, _, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "logging_nll", "--lambda", "0.01", "--epochs", "2",
            "--sigma-mode", "closed-form", "--out", tmp_path / "x.model",
        )
        assert rc == 2
        assert "closed-form" in err

    def test_heavy_penalty_pins_policy_to_prior(self, ws, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_lpr", "--prior-model", ws / "logging.model",
            "--lambda", "1000", "--epochs", "150",
            "--out", tmp_path / "pin.model",
        )
        assert rc == 0
        assert float(kv(out)["prior_distance"]) < 0.05

    def test_prior_contract_both_directions(self, ws, tmp_path, capsys):
        rc, _, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_lpr", "--epochs", "1",
            "--out", tmp_path / "x.model",
        )
        assert rc == 2 and "prior-model" in err
        rc, _, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--prior-model", ws / "logging.model",
            "--epochs", "1", "--out", tmp_path / "x.model",
        )
        assert rc == 2 and "prior-model" in err

    def test_k_mismatched_prior_names_file_and_shapes(self, ws, tmp_path,
                                                       capsys):
        prior = tmp_path / "k2.model"
        save_model(prior, zero_policy(4, 2))
        rc, out, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_lpr", "--prior-model", prior, "--epochs", "1",
            "--out", tmp_path / "x.model",
        )
        assert rc == 2 and out == ""
        assert err == (
            f"crmlab: error: {prior}: prior weights have shape (2, 4), "
            f"model has (3, 4)\n"
        )
        assert list(tmp_path.iterdir()) == [prior]

    def test_sigma_above_sigma0_rejected(self, ws, tmp_path, capsys):
        # save_model refuses the pair before it writes anything.  The fixed
        # sigma is 1/n = 1/120.
        model = tmp_path / "x.model"
        rc, out, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--epochs", "1",
            "--sigma0", "0.001", "--out", model,
        )
        assert rc == 2 and out == ""
        assert err == (
            f"crmlab: error: {model}: sigma={1.0 / 120.0} must lie in "
            f"(0, sigma0=0.001]\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_infinite_sigma0_writes_no_model(self, ws, tmp_path, capsys):
        err = usage_error(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_l2", "--epochs", "1", "--sigma0", "inf",
            "--out", tmp_path / "inf.model",
        )
        assert "argument --sigma0: must be positive and finite, got inf" in err
        assert list(tmp_path.iterdir()) == []

    def test_divergence_exits_three(self, ws, tmp_path, capsys):
        rc, _, err = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "ips_lpr", "--prior-model", ws / "logging.model",
            "--lambda", "1e308", "--epochs", "2",
            "--out", tmp_path / "x.model",
        )
        assert rc == 3
        assert err.startswith("crmlab: numeric failure:")
        assert "epoch 0" in err

    @pytest.mark.parametrize("objective", ["ips_l2", "poem"])
    def test_record_terms_summing_past_float_max(self, tmp_path, capsys,
                                                 objective):
        # Every propensity and tau are 1e-307: the per-record terms are
        # finite and their sum passes the float maximum.
        save_logged(tmp_path / "floor.csv", floor_propensity_logged())
        rc, out, err = run(
            capsys, "train", "--logged", tmp_path / "floor.csv", "--k", "3",
            "--objective", objective, "--tau", "1e-307", "--epochs", "1",
            "--out", tmp_path / "x.model",
        )
        assert rc == 0 and err == ""
        report = json.loads((tmp_path / "x.model.report.json").read_text())
        assert math.isfinite(report["final_objective"])
        load_model(tmp_path / "x.model")

    # A numpy RuntimeWarning raised here fails the test: numpy would print
    # it on stderr before the one-line failure.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("objective", ["ips_l2", "wnll_lpr", "poem"])
    def test_subnormal_tau_fails_in_one_line(self, tmp_path, capsys,
                                             objective):
        save_logged(tmp_path / "sub.csv", subnormal_propensity_logged())
        save_model(tmp_path / "prior.model", zero_policy(3, 3),
                   feature_norm_bound=1.0)
        prior = (["--prior-model", tmp_path / "prior.model"]
                 if objective == "wnll_lpr" else [])
        rc, out, err = run(
            capsys, "train", "--logged", tmp_path / "sub.csv", "--k", "3",
            "--objective", objective, *prior, "--tau", "4e-309",
            "--epochs", "2", "--out", tmp_path / "x.model",
        )
        assert rc == 3 and out == ""
        assert err.startswith("crmlab: numeric failure:")
        assert err.count("\n") == 1

    # r/max(p, tau) overflows at a subnormal tau; sigma* must not become 0
    # and numpy must print no RuntimeWarning.
    @pytest.mark.filterwarnings("error")
    def test_subnormal_tau_closed_form_sigma_is_positive(self, tmp_path,
                                                         capsys):
        save_logged(tmp_path / "floor.csv", floor_propensity_logged(4e-309))
        rc, out, err = run(
            capsys, "train", "--logged", tmp_path / "floor.csv", "--k", "3",
            "--objective", "poem", "--tau", "4e-309", "--epochs", "2",
            "--sigma-mode", "closed-form", "--out", tmp_path / "x.model",
        )
        assert rc == 0 and err == ""
        facts = kv(out)
        assert 0.0 < float(facts["sigma_star"]) < math.inf
        assert facts["sigma"] == facts["sigma_star"]

    # With B = 0 the closed-form sigma* is its boundary value sigma0.
    @pytest.mark.parametrize("objective", ["ips_l2", "poem"])
    @pytest.mark.parametrize("mode", ["fixed", "closed-form"])
    def test_all_zero_features_train(self, tmp_path, capsys, objective, mode):
        save_logged(tmp_path / "zero.csv", zero_feature_logged())
        rc, out, err = run(
            capsys, "train", "--logged", tmp_path / "zero.csv", "--k", "3",
            "--objective", objective, "--epochs", "2", "--sigma-mode", mode,
            "--out", tmp_path / "x.model",
        )
        assert rc == 0 and err == ""
        assert kv(out)["sigma_star"] == "1.0"
        load_model(tmp_path / "x.model")

    def test_model_bytes_deterministic(self, ws, tmp_path, capsys):
        paths = [tmp_path / "m1.model", tmp_path / "m2.model"]
        for p in paths:
            rc, _, _ = run(
                capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
                "--objective", "poem", "--lambda", "0.5", "--epochs", "4",
                "--out", p, "--seed", "9",
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_train_then_evaluate_round_trip(self, ws, tmp_path, capsys):
        model = tmp_path / "wnll.model"
        rc, _, _ = run(
            capsys, "train", "--logged", ws / "logs.csv", "--k", "3",
            "--objective", "wnll_lpr", "--prior-model", ws / "logging.model",
            "--lambda", "1e-4", "--epochs", "20", "--out", model,
        )
        assert rc == 0
        rc, out, _ = run(
            capsys, "evaluate", "--model", model,
            "--labeled", ws / "labeled.csv",
        )
        assert rc == 0
        facts = kv(out)
        assert 0.0 <= float(facts["stochastic_reward"]) <= 1.0
        assert 0.0 <= float(facts["argmax_accuracy"]) <= 1.0


class TestTune:
    def test_default_grid_reports_six_rows(self, ws, tmp_path, capsys):
        out_path = tmp_path / "cv.csv"
        rc, out, _ = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_l2", "--folds", "3", "--epochs", "8",
            "--out", out_path,
        )
        assert rc == 0
        rows = read_rows(out_path)
        assert len(rows) == 6
        assert [float(r["lambda"]) for r in rows] == \
            [10.0 ** e for e in range(-8, -2)]
        selected = [r for r in rows if r["selected"] == "1"]
        assert len(selected) == 1
        assert float(kv(out)["best_lambda"]) == float(selected[0]["lambda"])
        for r in rows:
            scores = [float(r[f"fold{i}"]) for i in range(3)]
            assert float(r["mean_score"]) == pytest.approx(
                sum(scores) / 3, rel=1e-12
            )

    def test_variance_methods_use_their_grid(self, ws, tmp_path, capsys):
        out_path = tmp_path / "cv_poem.csv"
        rc, _, _ = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "poem", "--folds", "3", "--epochs", "5",
            "--out", out_path,
        )
        assert rc == 0
        rows = read_rows(out_path)
        assert [float(r["lambda"]) for r in rows] == \
            [10.0 ** e for e in range(-3, 3)]

    def test_custom_single_value_grid_echoes(self, ws, tmp_path, capsys):
        rc, out, _ = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_l2", "--grid", "1e-4", "--folds", "3",
            "--epochs", "5", "--out", tmp_path / "cv1.csv",
        )
        assert rc == 0
        assert float(kv(out)["best_lambda"]) == 1e-4
        rows = read_rows(tmp_path / "cv1.csv")
        assert len(rows) == 1 and rows[0]["selected"] == "1"

    def test_more_folds_than_records_is_usage_error(self, ws, tmp_path,
                                                    capsys):
        rc, _, err = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_l2", "--folds", "500", "--epochs", "2",
            "--out", tmp_path / "cv.csv",
        )
        assert rc == 2
        assert err.startswith("crmlab: error:")

    def test_one_record_training_fold_names_num_folds(self, ws, tmp_path,
                                                      capsys):
        # This once failed inside training with "n must be at least 2,
        # got 1", which named neither the folds nor the record count.
        path = tmp_path / "two.csv"
        save_logged(path, load_logged(ws / "logs.csv", k=3).subset([0, 1]))
        rc, out, err = run(
            capsys, "tune", "--logged", path, "--k", "3",
            "--method", "ips_l2", "--grid", "0.1", "--folds", "2",
            "--epochs", "1", "--out", tmp_path / "cv.csv",
        )
        assert rc == 2 and out == ""
        assert err == ("crmlab: error: num_folds=2 leaves 1 of the 2 records "
                       "for training; training needs at least 2\n")

    def test_lpr_method_requires_prior(self, ws, tmp_path, capsys):
        rc, _, err = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_lpr", "--folds", "3", "--epochs", "2",
            "--out", tmp_path / "cv.csv",
        )
        assert rc == 2 and "prior-model" in err

    def test_k_mismatched_prior_names_both_shapes(self, ws, tmp_path, capsys):
        save_model(tmp_path / "k2.model", zero_policy(4, 2))
        rc, out, err = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_lpr", "--prior-model", tmp_path / "k2.model",
            "--folds", "3", "--epochs", "2", "--out", tmp_path / "cv.csv",
        )
        assert rc == 2 and out == ""
        assert err.startswith("crmlab: error:") and err.count("\n") == 1
        assert "prior" in err and "(2, 4)" in err and "(3, 4)" in err
        assert err == (
            f"crmlab: error: {tmp_path / 'k2.model'}: prior weights have "
            f"shape (2, 4), model has (3, 4)\n"
        )

    def test_every_grid_value_diverged_exits_three(self, ws, tmp_path,
                                                   capsys):
        rc, out, err = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_l2", "--grid", "1e308", "--folds", "2",
            "--epochs", "2", "--out", tmp_path / "cv.csv",
        )
        assert rc == 3 and out == ""
        assert err == ("crmlab: numeric failure: training diverged for every "
                       "grid value; no lambda to select\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("grid, message", [
        ("0.1,0.1", "got 0.1 and 0.1"), ("0,-0", "got 0.0 and -0.0"),
    ], ids=["repeated", "signed_zero"])
    def test_repeated_grid_value_exits_two_with_one_line(
            self, ws, tmp_path, capsys, monkeypatch, grid, message):
        # Rejected before any job runs: no fold is trained.
        monkeypatch.setattr(learning, "_fit", None)
        rc, out, err = run(
            capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
            "--method", "ips_l2", "--grid", grid, "--folds", "2",
            "--epochs", "2", "--out", tmp_path / "cv.csv",
        )
        assert rc == 2 and out == ""
        assert err == ("crmlab: error: lambda_grid values must be distinct, "
                       f"{message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["ips_l2", "poem"])
    def test_subnormal_tau_fails_in_one_line(self, tmp_path, capsys, method):
        save_logged(tmp_path / "sub.csv", subnormal_propensity_logged())
        rc, out, err = run(
            capsys, "tune", "--logged", tmp_path / "sub.csv", "--k", "3",
            "--method", method, "--tau", "4e-309", "--folds", "2",
            "--epochs", "2", "--out", tmp_path / "cv.csv",
        )
        assert rc == 3 and out == ""
        assert err == ("crmlab: numeric failure: training diverged for every "
                       "grid value; no lambda to select\n")

    def test_all_zero_features_tune(self, tmp_path, capsys):
        save_logged(tmp_path / "zero.csv", zero_feature_logged())
        rc, out, err = run(
            capsys, "tune", "--logged", tmp_path / "zero.csv", "--k", "3",
            "--method", "ips_l2", "--grid", "0.1", "--folds", "2",
            "--epochs", "2", "--out", tmp_path / "cv.csv",
        )
        assert rc == 0 and err == ""
        assert len(read_rows(tmp_path / "cv.csv")) == 1

    def test_table_and_stdout_do_not_depend_on_worker_count(
            self, ws, tmp_path, capsys, monkeypatch):
        outputs = []
        for workers in (1, 2):
            monkeypatch.setattr(_jobs, "worker_count",
                                lambda jobs, cap=workers: min(jobs, cap))
            path = tmp_path / f"cv_{workers}.csv"
            rc, out, err = run(
                capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
                "--method", "ips_l2", "--grid", "1e-5,1e-3,1e308",
                "--folds", "3", "--epochs", "5", "--out", path,
                "--seed", "21",
            )
            assert rc == 0 and err == ""
            outputs.append((out, path.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_rerun_is_byte_identical(self, ws, tmp_path, capsys):
        paths = [tmp_path / "cv_a.csv", tmp_path / "cv_b.csv"]
        for p in paths:
            rc, _, _ = run(
                capsys, "tune", "--logged", ws / "logs.csv", "--k", "3",
                "--method", "ips_l2", "--grid", "1e-5,1e-3", "--folds", "3",
                "--epochs", "5", "--out", p, "--seed", "21",
            )
            assert rc == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEvaluate:
    def test_uniform_policy_scores_one_over_k(self, tmp_path, capsys):
        rng = np.random.default_rng(60)
        X = rng.normal(size=(40, 2))
        save_labeled(tmp_path / "t10.csv",
                     LabeledDataset(X, rng.integers(0, 10, size=40), 10))
        save_model(tmp_path / "uniform.model", zero_policy(2, 10))
        rc, out, _ = run(
            capsys, "evaluate", "--model", tmp_path / "uniform.model",
            "--labeled", tmp_path / "t10.csv",
            "--out", tmp_path / "metrics.csv",
        )
        assert rc == 0
        assert float(kv(out)["stochastic_reward"]) == pytest.approx(
            0.1, abs=1e-15
        )
        rows = read_rows(tmp_path / "metrics.csv")
        assert {r["metric"] for r in rows} == {"stochastic_reward",
                                               "argmax_accuracy"}

    def test_separable_policy_scores_one(self, tmp_path, capsys):
        labels = np.arange(20) % 4
        X = np.eye(4)[labels]
        save_labeled(tmp_path / "t4.csv", LabeledDataset(X, labels, 4))
        save_model(tmp_path / "sharp.model",
                   SoftmaxPolicy(5000.0 * np.eye(4), np.zeros(4)))
        rc, out, _ = run(
            capsys, "evaluate", "--model", tmp_path / "sharp.model",
            "--labeled", tmp_path / "t4.csv",
        )
        assert rc == 0
        facts = kv(out)
        assert float(facts["stochastic_reward"]) == 1.0
        assert float(facts["argmax_accuracy"]) == 1.0

    def test_feature_dimension_mismatch(self, ws, tmp_path, capsys):
        save_model(tmp_path / "d2.model", zero_policy(2, 3))
        rc, _, err = run(
            capsys, "evaluate", "--model", tmp_path / "d2.model",
            "--labeled", ws / "labeled.csv",
        )
        assert rc == 2
        assert "d=2" in err and "d=4" in err

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e400"])
    def test_non_finite_feature_names_line(self, tmp_path, capsys, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n0.5,{cell},1\n")
        save_model(tmp_path / "uniform.model", zero_policy(2, 3))
        rc, out, err = run(
            capsys, "evaluate", "--model", tmp_path / "uniform.model",
            "--labeled", path,
        )
        assert rc == 2
        assert out == ""
        assert err == f"crmlab: error: {path} line 3: non-finite f1 {cell!r}\n"


UNREADABLE_INPUTS = {
    # One cell over the csv module's 131072-character field limit.
    "oversized_cell": ("labeled", b"f0,f1,label\n1.0,2.0,0\n1." + b"0" * 200000
                       + b",2.0,1\n", "line 3:"),
    "labeled_not_utf8": ("labeled", b"f0,f1,label\n1.0,2.0,0\n0.5,\xff,1\n",
                         "utf-8"),
    "model_not_utf8": ("model", b'{"format": "\xff"}', "utf-8"),
}


class TestUnreadableInput:
    @pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
    def test_exits_two_with_one_line_naming_file(self, tmp_path, capsys,
                                                 case):
        role, content, needle = UNREADABLE_INPUTS[case]
        paths = {"model": tmp_path / "uniform.model",
                 "labeled": tmp_path / "t.csv"}
        save_model(paths["model"], zero_policy(2, 3))
        save_labeled(paths["labeled"],
                     LabeledDataset(np.eye(2), np.array([0, 1]), 3))
        paths[role].write_bytes(content)
        rc, out, err = run(
            capsys, "evaluate", "--model", paths["model"],
            "--labeled", paths["labeled"],
        )
        assert rc == 2 and out == ""
        assert err.startswith("crmlab: error:") and err.count("\n") == 1
        assert str(paths[role]) in err and needle in err


# Every subcommand with its input files as {role} placeholders: labeled and
# logged are CSVs, every other role a model file.
FILE_COMMANDS = {
    "simulate": ["simulate", "--labeled", "{labeled}", "--model", "{model}",
                 "--out", "o.csv"],
    "learn-logging": ["learn-logging", "--logged", "{logged}", "--k", "3",
                      "--epochs", "1", "--out", "o.model"],
    "train": ["train", "--logged", "{logged}", "--k", "3", "--objective",
              "ips_lpr", "--prior-model", "{prior}", "--epochs", "1",
              "--out", "o.model"],
    "tune": ["tune", "--logged", "{logged}", "--k", "3", "--method", "ips_lpr",
             "--prior-model", "{prior}", "--grid", "0.1", "--folds", "2",
             "--epochs", "1", "--out", "o.csv"],
    "evaluate": ["evaluate", "--model", "{model}", "--labeled", "{labeled}"],
    "bound": ["bound", "--model", "{model}", "--logged", "{logged}",
              "--prior-model", "{prior}", "--learned-prior", "{learned}"],
}
CSV_HEADERS = {"labeled": "f0,f1,label", "logged": "f0,f1,action,propensity,reward"}
# Four records, so each training fold of a two-fold tune has two.
CSV_ROWS = {"labeled": ["0.5,1.0,2", "1.0,0.0,0", "0.0,1.0,1", "0.5,0.5,0"],
            "logged": ["0.5,1.0,2,0.5,1.0", "1.0,0.0,0,0.25,0.0",
                       "0.0,1.0,1,0.5,0.5", "0.5,0.5,0,1.0,1.0"]}


def last_row_cells(edit):
    """A CSV defect: the last row's cells replaced by ``edit`` of them."""
    def defect(header, rows):
        return [header, *rows[:-1], ",".join(edit(rows[-1].split(",")))]
    return defect


# Defects of a CSV file, given its header and good rows (column 2 is the
# action or label) ...
CSV_DEFECTS = {
    "empty": lambda header, rows: [],
    "bad_header": lambda header, rows: [header.replace("f1", "g1"), *rows],
    "non_finite_cell": last_row_cells(lambda cells: ["nan", *cells[1:]]),
    "truncated_row": last_row_cells(lambda cells: cells[:-1]),
    "action_at_k": last_row_cells(lambda cells: [*cells[:2], "3", *cells[3:]]),
    "header_over_field_limit": lambda header, rows: [
        header.replace("f0", "f" * (csv.field_size_limit() + 1)), *rows],
}
# ... and of a model file, given the text of a good one.
MODEL_DEFECTS = {
    "empty": lambda text: "",
    "non_finite_cell": lambda text: text.replace("0.0", "NaN", 1),
    "truncated": lambda text: text[:len(text) // 2],
    "foreign_json": lambda text: json.dumps({"format": "other", "weights": [[0.0]]}),
}
FILE_CASES = [
    (command, role, defect)
    for command, argv in FILE_COMMANDS.items()
    for role in [arg[1:-1] for arg in argv if arg.startswith("{")]
    for defect in (CSV_DEFECTS if role in CSV_HEADERS else MODEL_DEFECTS)
]


def file_command(tmp_path, command, role=None, defect=None):
    """The argv of ``command`` on good input files in ``tmp_path``, with the
    file of ``role`` given ``defect``."""
    policy = zero_policy(2, 3)
    save_model(tmp_path / "good.model", policy, sigma=0.5, sigma0=1.0,
               prior=policy)
    model_text = (tmp_path / "good.model").read_text()
    paths = {}
    for name in ("labeled", "logged", "model", "prior", "learned"):
        if name in CSV_HEADERS:
            lines = [CSV_HEADERS[name], *CSV_ROWS[name]]
            if name == role:
                lines = CSV_DEFECTS[defect](CSV_HEADERS[name], CSV_ROWS[name])
            text = "".join(f"{line}\n" for line in lines)
        else:
            text = MODEL_DEFECTS[defect](model_text) if name == role else model_text
        paths[name] = tmp_path / f"{name}.in"
        paths[name].write_text(text)
    argv = [arg.format(**paths) for arg in FILE_COMMANDS[command]]
    return [*argv, "--output-dir", tmp_path]


class TestMalformedInputFile:
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_good_files_run(self, tmp_path, capsys, command):
        rc, _, err = run(capsys, *file_command(tmp_path, command))
        assert rc == 0 and err == ""

    @pytest.mark.parametrize("command,role,defect", FILE_CASES)
    def test_exits_two_with_one_line_naming_file(self, tmp_path, capsys,
                                                 command, role, defect):
        rc, out, err = run(capsys, *file_command(tmp_path, command, role, defect))
        assert rc == 2 and out == ""
        assert err.startswith("crmlab: error:") and err.count("\n") == 1
        assert str(tmp_path / f"{role}.in") in err


# The file each subcommand writes last, with the flags that ask for it.
LAST_WRITES = {
    "simulate": ([], "o.csv"),
    "learn-logging": ([], "o.model"),
    "train": ([], "o.model.report.json"),
    "train-trace": (["--trace", "t.csv"], "t.csv"),
    "tune": ([], "o.csv"),
    "evaluate": (["--out", "m.csv"], "m.csv"),
    "bound": (["--out", "b.csv"], "b.csv"),
}


class _FullDisk(io.StringIO):
    """A file opened on a full disk: every write fails with ENOSPC."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class TestFullDisk:
    @pytest.mark.parametrize("case", sorted(LAST_WRITES))
    def test_exits_two_with_one_line_naming_file(self, tmp_path, capsys,
                                                 monkeypatch, case):
        flags, name = LAST_WRITES[case]
        argv = [*file_command(tmp_path, case.removesuffix("-trace")), *flags]
        target = str(tmp_path / name)
        listing = sorted(os.listdir(tmp_path))
        real_open = builtins.open

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            # The target itself, or train's temporary file for it.
            if "w" in mode and os.fspath(file).startswith(target):
                return _FullDisk()
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", open_on_full_disk)
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert err == f"crmlab: error: cannot write {target}: No space left on device\n"
        if case.startswith("train"):
            # train's earlier outputs, already written, are not left behind.
            assert sorted(os.listdir(tmp_path)) == listing

    def test_train_onto_a_directory_leaves_no_file(self, tmp_path, capsys):
        # A directory is no regular file, so it is opened directly, which
        # fails; no temporary file stays behind.
        argv = file_command(tmp_path, "train")
        (tmp_path / "o.model").mkdir()
        listing = sorted(os.listdir(tmp_path))
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == (f"crmlab: error: cannot write {tmp_path / 'o.model'}: "
                       "Is a directory\n")
        assert sorted(os.listdir(tmp_path)) == listing

    def test_failed_move_into_place_leaves_no_temporary_file(
            self, tmp_path, capsys, monkeypatch):
        argv = file_command(tmp_path, "train")
        target = str(tmp_path / "o.model.report.json")
        real_replace = os.replace

        def replace_across_devices(src, dst):
            if os.fspath(dst) == target:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_across_devices)
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == ""
        assert err == (f"crmlab: error: cannot write {target}: "
                       "Invalid cross-device link\n")
        # The model, moved before the report, stays; no .tmp file does.
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]

    def test_train_writes_a_trace_into_a_pipe_directly(self, tmp_path, capsys):
        # A temporary file moved onto a non-regular target would replace
        # it, so the trace goes straight into the named pipe.
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            argv = [*file_command(tmp_path, "train"), "--trace", fifo]
            rc, _, err = run(capsys, *argv)
            text = os.read(reader, 1 << 16).decode()
        finally:
            os.close(reader)
        assert rc == 0 and err == ""
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert text.startswith("epoch,objective,wall_time\n0,")
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]


class TestNoChildLeft:
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_subcommand_leaves_no_worker_running(self, tmp_path, capsys,
                                                 monkeypatch, command):
        # Two workers, so tune's cross-validation runs on forked workers.
        monkeypatch.setattr(_jobs, "worker_count", lambda jobs: min(jobs, 2))
        rc, _, err = run(capsys, *file_command(tmp_path, command))
        assert rc == 0 and err == ""
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failure", ["worker_dies", "fork_fails"])
    def test_tune_worker_failure_exits_two_with_one_line(self, tmp_path, capsys,
                                                         monkeypatch, failure):
        # Four (lambda, fold) jobs on two forked workers.
        monkeypatch.setattr(_jobs, "worker_count", lambda jobs: min(jobs, 2))
        if failure == "worker_dies":
            monkeypatch.setattr(learning, "_cv_scores",
                                lambda *args: os._exit(9))
            message = ("A process in the process pool was terminated abruptly "
                       "while the future was running or pending.")
        else:
            def no_fork():
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

            monkeypatch.setattr(os, "fork", no_fork)
            message = f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}"
        rc, out, err = run(capsys, *file_command(tmp_path, "tune"),
                           "--grid", "0.1,0.2")
        assert rc == 2 and out == ""
        assert err == f"crmlab: error: {message}\n"
        assert not (tmp_path / "o.csv").exists()
        assert multiprocessing.active_children() == []


BAD_MODEL_EDITS = {
    "missing_weights": (lambda doc: doc.pop("weights"), "weights"),
    "null_weights": (lambda doc: doc.update(weights=None), None),
    "future_version": (lambda doc: doc.update(version=99), "version"),
    "prior_shape": (lambda doc: doc.update(prior_weights=[[0.0] * 4] * 4),
                    "prior_weights"),
    "prior_1d": (lambda doc: doc.update(prior_weights=[0.0] * 4),
                 "prior_weights"),
    "sigma_above_sigma0": (lambda doc: doc.update(sigma=2.0), "sigma"),
    "sigma_zero": (lambda doc: doc.update(sigma=0.0), "sigma"),
    "sigma_not_a_number": (lambda doc: doc.update(sigma="big"), "sigma"),
}


class TestModelSchema:
    @pytest.mark.parametrize("case", sorted(BAD_MODEL_EDITS))
    def test_bad_model_file_exits_two_with_one_line(self, ws, tmp_path,
                                                    capsys, case):
        edit, needle = BAD_MODEL_EDITS[case]
        good = tmp_path / "good.model"
        policy = load_model(ws / "logging.model").policy
        save_model(good, policy, sigma=0.5, sigma0=1.0, prior=policy)
        doc = json.loads(good.read_text())
        edit(doc)
        bad = tmp_path / f"{case}.model"
        bad.write_text(json.dumps(doc))
        rc, _, err = run(
            capsys, "evaluate", "--model", bad, "--labeled", ws / "labeled.csv",
        )
        assert rc == 2
        assert err.startswith("crmlab: error:") and err.count("\n") == 1
        assert str(bad) in err
        if needle is not None:
            assert needle in err.replace(str(bad), "")


@pytest.fixture(scope="module")
def posterior_model(ws):
    logging_model = load_model(ws / "logging.model")
    rng = np.random.default_rng(61)
    shifted = SoftmaxPolicy(
        logging_model.policy.weights + 0.3 * rng.normal(size=(3, 4)),
        logging_model.policy.biases.copy(),
    )
    path = ws / "posterior.model"
    save_model(path, shifted, sigma=0.2, sigma0=1.0,
               prior=logging_model.policy, feature_norm_bound=1.0)
    return path


class TestBound:
    def test_fixed_tau_row(self, ws, posterior_model, tmp_path, capsys):
        out_path = tmp_path / "bounds.csv"
        rc, _, _ = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--tau", "0.05", "--out", out_path,
        )
        assert rc == 0
        rows = read_rows(out_path)
        assert len(rows) == 1
        row = rows[0]
        assert row["bound"] == "fixed_tau"
        assert row["n"] == "120"
        assert float(row["sigma"]) == 0.2
        assert float(row["value"]) >= float(row["emp_risk"])
        assert float(row["kl_bound"]) >= float(row["kl_exact"])
        assert float(row["c_term"]) == pytest.approx(
            2.0 * float(row["kl_bound"]), rel=1e-12
        )

    def test_posterior_at_prior_has_zero_complexity(self, ws, tmp_path,
                                                    capsys):
        logging_policy = load_model(ws / "logging.model").policy
        path = tmp_path / "at_prior.model"
        save_model(path, logging_policy, sigma=1.0, sigma0=1.0,
                   prior=logging_policy, feature_norm_bound=1.0)
        rc, _, _ = run(
            capsys, "bound", "--model", path, "--logged", ws / "logs.csv",
            "--out", tmp_path / "b.csv",
        )
        assert rc == 0
        row = read_rows(tmp_path / "b.csv")[0]
        assert float(row["kl_exact"]) == 0.0
        assert float(row["c_term"]) == 0.0

    def test_all_tau_row_dominates_fixed(self, ws, posterior_model, tmp_path,
                                         capsys):
        rc, _, _ = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--tau", "0.05", "--all-tau",
            "--out", tmp_path / "b.csv",
        )
        assert rc == 0
        rows = {r["bound"]: r for r in read_rows(tmp_path / "b.csv")}
        assert set(rows) == {"fixed_tau", "all_tau"}
        assert float(rows["all_tau"]["value"]) >= \
            float(rows["fixed_tau"]["value"])

    def test_learned_prior_row_dominates_known(self, ws, posterior_model,
                                               tmp_path, capsys):
        # The learned-prior model holds the same parameters as the known
        # prior, so the rows differ only by the stability inflation.
        rc, _, _ = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--tau", "0.05",
            "--learned-prior", ws / "logging.model",
            "--out", tmp_path / "b.csv",
        )
        assert rc == 0
        rows = {r["bound"]: r for r in read_rows(tmp_path / "b.csv")}
        assert set(rows) == {"fixed_tau", "learned_prior"}
        assert float(rows["learned_prior"]["value"]) >= \
            float(rows["fixed_tau"]["value"])
        assert float(rows["learned_prior"]["c_term"]) >= \
            float(rows["fixed_tau"]["c_term"])

    def test_stdout_csv_without_out_flag(self, ws, posterior_model, capsys):
        rc, out, _ = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv",
        )
        assert rc == 0
        header = out.strip().splitlines()[0]
        assert header.startswith("bound,n,tau,delta,sigma,sigma0,emp_risk")

    def test_each_value_bounds_its_printed_numbers(self, ws, posterior_model,
                                                    tmp_path, capsys):
        # The model's feature-norm bound exceeds the log's (1.0), so the
        # printed emp_risk uses the model's.
        model = load_model(posterior_model)
        path = tmp_path / "wide.model"
        save_model(path, model.policy, sigma=model.sigma, sigma0=model.sigma0,
                   prior=model.prior, feature_norm_bound=3.0)
        rc, _, _ = run(
            capsys, "bound", "--model", path, "--logged", ws / "logs.csv",
            "--tau", "0.05", "--all-tau",
            "--learned-prior", ws / "logging.model",
            "--out", tmp_path / "b.csv",
        )
        assert rc == 0
        rows = {r["bound"]: r for r in read_rows(tmp_path / "b.csv")}
        bounds = {"fixed_tau": (crm_bound_fixed_tau, 1.0),
                  "all_tau": (crm_bound_all_tau, 1.0),
                  "learned_prior": (crm_bound_fixed_tau, 0.5)}
        assert set(rows) == set(bounds)
        for kind, (bound, delta_scale) in bounds.items():
            r = rows[kind]
            expected = bound(
                float(r["emp_risk"]), 0.5 * float(r["c_term"]), int(r["n"]),
                delta_scale * float(r["delta"]), float(r["tau"]),
            )
            assert float(r["value"]) == expected, kind

    @pytest.mark.parametrize(
        "flag,k,d",
        [("--prior-model", 2, 4), ("--learned-prior", 2, 4),
         ("--learned-prior", 3, 2), ("--prior-model", 3, 2)],
    )
    def test_prior_shape_mismatch_names_file_and_shapes(
        self, ws, posterior_model, tmp_path, capsys, flag, k, d
    ):
        prior = tmp_path / "mismatched.model"
        save_model(prior, zero_policy(d, k))
        rc, out, err = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", flag, prior,
        )
        assert rc == 2 and out == ""
        assert err == (
            f"crmlab: error: {prior}: prior weights have shape {(k, d)}, "
            f"model has (3, 4)\n"
        )

    def test_model_without_sigma_needs_flags(self, ws, tmp_path, capsys):
        policy = load_model(ws / "logging.model").policy
        save_model(tmp_path / "bare.model", policy)
        rc, _, err = run(
            capsys, "bound", "--model", tmp_path / "bare.model",
            "--logged", ws / "logs.csv",
        )
        assert rc == 2
        assert "sigma" in err

    def test_model_without_prior_rejected(self, ws, tmp_path, capsys):
        policy = load_model(ws / "logging.model").policy
        save_model(tmp_path / "noprior.model", policy, sigma=0.5, sigma0=1.0)
        rc, _, err = run(
            capsys, "bound", "--model", tmp_path / "noprior.model",
            "--logged", ws / "logs.csv",
        )
        assert rc == 2
        assert "prior" in err

    def test_sigma_above_sigma0_rejected(self, ws, posterior_model, capsys):
        rc, _, err = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--sigma", "2.0", "--sigma0", "1.0",
        )
        assert rc == 2
        assert err == (
            "crmlab: error: variance 2.0 must lie in [0, prior_variance 1.0]\n"
        )

    @pytest.mark.parametrize("all_tau", [[], ["--all-tau"]])
    def test_smallest_subnormal_tau_bounds_are_infinite(
        self, ws, posterior_model, tmp_path, capsys, all_tau
    ):
        rc, _, err = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--tau", "5e-324", *all_tau,
            "--out", tmp_path / "b.csv",
        )
        assert rc == 0 and err == ""
        rows = read_rows(tmp_path / "b.csv")
        assert len(rows) == 1 + len(all_tau)
        assert all(r["value"] == "inf" for r in rows)

    @pytest.mark.parametrize("flag", ["--sigma", "--sigma0", "--rerm-lambda"])
    def test_infinite_variance_flag_named(self, ws, posterior_model, capsys,
                                          tmp_path, flag):
        err = usage_error(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", flag, "inf", "--out", tmp_path / "b.csv",
        )
        assert f"argument {flag}: must be positive and finite, got inf" in err
        assert list(tmp_path.iterdir()) == []

    def test_tiny_sigma_gives_finite_kl_terms(self, ws, posterior_model,
                                               tmp_path, capsys):
        # sigma0/sigma overflows at sigma = 1e-320; the KL terms once read
        # inf and the run exited 2.  With k·d = 12 the log term alone is
        # 6·ln(1e320) = 4420.96.
        rc, _, err = run(
            capsys, "bound", "--model", posterior_model,
            "--logged", ws / "logs.csv", "--sigma", "1e-320",
            "--learned-prior", ws / "logging.model", "--out", tmp_path / "b.csv",
        )
        assert rc == 0 and err == ""
        rows = read_rows(tmp_path / "b.csv")
        assert {r["bound"] for r in rows} == {"fixed_tau", "learned_prior"}
        for r in rows:
            assert 4420.96 < float(r["kl_bound"]) < math.inf
            assert math.isfinite(float(r["value"]))


class TestFlagValues:
    """Every flag type rejects its bad values at parse time, naming the
    flag and the value, before any file is read or written."""

    @pytest.mark.parametrize("argv, message", [
        (["train", "--objective", "ips_l2", "--lambda", "inf"],
         "argument --lambda: must be nonnegative and finite, got inf"),
        (["train", "--objective", "poem_l2", "--lambda-l2", "inf"],
         "argument --lambda-l2: must be nonnegative and finite, got inf"),
        (["learn-logging", "--lambda", "inf"],
         "argument --lambda: must be positive and finite, got inf"),
        (["tune", "--method", "ips_l2", "--grid", "inf"],
         "argument --grid: must be nonnegative and finite, got inf"),
        (["tune", "--method", "ips_l2", "--grid", "0.1,-1"],
         "argument --grid: must be nonnegative and finite, got -1.0"),
        (["tune", "--method", "poem_l2", "--lambda-l2", "inf"],
         "argument --lambda-l2: must be nonnegative and finite, got inf"),
        (["tune", "--method", "ips_l2", "--grid", "0.1,x"],
         "argument --grid: bad grid '0.1,x': could not convert string to "
         "float: 'x'"),
        (["tune", "--method", "ips_l2", "--grid", ","],
         "argument --grid: grid must contain at least one value"),
        (["train", "--objective", "ips_l2", "--k", "0"],
         "argument --k: must be positive, got 0"),
        (["train", "--objective", "ips_l2", "--epochs", "-1"],
         "argument --epochs: must be nonnegative, got -1"),
        (["train", "--objective", "ips_l2", "--tau", "1"],
         "argument --tau: must lie in (0, 1), got 1.0"),
    ], ids=[
        "train-lambda-inf",
        "train-lambda-l2-inf",
        "learn-logging-lambda-inf",
        "tune-grid-inf",
        "tune-grid-negative",
        "tune-lambda-l2-inf",
        "tune-grid-not-a-number",
        "tune-grid-empty",
        "k-zero",
        "epochs-negative",
        "tau-one",
    ])
    def test_bad_value_is_usage_error(self, ws, tmp_path, capsys, argv,
                                      message):
        # The flag under test comes last, so it overrides the defaults.
        command, *rest = argv
        err = usage_error(
            capsys, command, "--logged", ws / "logs.csv", "--k", "3",
            "--out", tmp_path / "out", *rest,
        )
        assert err.splitlines()[-1] == f"crmlab {command}: error: {message}"
        assert list(tmp_path.iterdir()) == []


class _ReadRecorder(argparse.Namespace):
    """Namespace that records the name of every public attribute read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


class TestFlagsAreRead:
    def test_every_parsed_flag_is_read_by_its_handler(
        self, ws, posterior_model, tmp_path
    ):
        # One run per subcommand; together they reach every branch that
        # reads a flag (bound's --learned-prior branch reads --rerm-lambda).
        runs = {
            "simulate": ["--labeled", ws / "labeled.csv",
                         "--model", ws / "logging.model",
                         "--out", tmp_path / "s.csv"],
            "learn-logging": ["--logged", ws / "logs.csv", "--k", "3",
                              "--epochs", "1", "--out", tmp_path / "l.model"],
            "train": ["--logged", ws / "logs.csv", "--k", "3",
                      "--objective", "ips_l2", "--epochs", "1",
                      "--out", tmp_path / "t.model"],
            "tune": ["--logged", ws / "logs.csv", "--k", "3",
                     "--method", "ips_l2", "--grid", "1e-3", "--folds", "2",
                     "--epochs", "1", "--out", tmp_path / "cv.csv"],
            "evaluate": ["--model", ws / "logging.model",
                         "--labeled", ws / "labeled.csv",
                         "--out", tmp_path / "e.csv"],
            "bound": ["--model", posterior_model, "--logged", ws / "logs.csv",
                      "--learned-prior", ws / "logging.model",
                      "--out", tmp_path / "b.csv"],
        }
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        assert set(runs) == set(subparsers.choices)
        unread = {}
        for command, argv in runs.items():
            parsed = parser.parse_args([command] + [str(a) for a in argv])
            ns = _ReadRecorder(**vars(parsed))
            assert ns.func(ns) == 0, command
            dests = {action.dest for action in subparsers.choices[command]._actions
                     if not isinstance(action, argparse._HelpAction)}
            missing = sorted(dests - ns._reads)
            if missing:
                unread[command] = missing
        assert unread == {}


class TestOutputDir:
    def test_relative_outputs_resolve_against_output_dir(self, ws, tmp_path,
                                                         capsys):
        rc, out, _ = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--out", "rel_logs.csv",
            "--output-dir", tmp_path, "--seed", "11",
        )
        assert rc == 0
        assert (tmp_path / "rel_logs.csv").exists()
        assert kv(out)["out"] == str(tmp_path / "rel_logs.csv")

    def test_missing_output_dir_rejected(self, ws, tmp_path, capsys):
        rc, _, err = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--out", "x.csv",
            "--output-dir", tmp_path / "does-not-exist",
        )
        assert rc == 2
        assert "output directory" in err


class TestPipeline:
    def test_full_pipeline_end_to_end(self, ws, tmp_path, capsys):
        """simulate -> learn-logging -> train -> bound -> evaluate."""
        logs = tmp_path / "p_logs.csv"
        rc, _, _ = run(
            capsys, "simulate", "--labeled", ws / "labeled.csv",
            "--model", ws / "logging.model", "--out", logs, "--seed", "31",
        )
        assert rc == 0

        learned = tmp_path / "p_learned.model"
        rc, _, _ = run(
            capsys, "learn-logging", "--logged", logs, "--k", "3",
            "--epochs", "40", "--out", learned, "--seed", "31",
        )
        assert rc == 0

        trained = tmp_path / "p_trained.model"
        rc, out, _ = run(
            capsys, "train", "--logged", logs, "--k", "3",
            "--objective", "ips_lpr", "--prior-model", learned,
            "--lambda", "1e-4", "--epochs", "60",
            "--sigma-mode", "closed-form", "--out", trained, "--seed", "31",
        )
        assert rc == 0
        assert math.isfinite(float(kv(out)["final_objective"]))

        rc, _, _ = run(
            capsys, "bound", "--model", trained, "--logged", logs,
            "--learned-prior", learned, "--all-tau",
            "--out", tmp_path / "p_bounds.csv",
        )
        assert rc == 0
        rows = read_rows(tmp_path / "p_bounds.csv")
        assert {r["bound"] for r in rows} == \
            {"fixed_tau", "all_tau", "learned_prior"}
        for r in rows:
            assert math.isfinite(float(r["value"]))

        rc, out, _ = run(
            capsys, "evaluate", "--model", trained,
            "--labeled", ws / "labeled.csv",
        )
        assert rc == 0
        reward = float(kv(out)["stochastic_reward"])
        assert 0.0 <= reward <= 1.0
