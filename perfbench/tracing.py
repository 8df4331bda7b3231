"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps the public functions of each crmlab module (the names in
the module's ``__all__``) and installs each wrapper on every crmlab module
namespace that binds the function, so calls made inside the package are
recorded as well as the benchmark's own. The CLI layer is recorded by the
workloads themselves, one span around each ``crmlab.cli.main`` call.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` lists and
written out when the run ends. A span's self time is its duration minus the
time its direct children cover; the run is single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("cli", "datasets", "learning", "estimators", "policies", "bounds",
          "synthetic")
# `cli` is spanned around main() by the workloads; `seeding` is set-up only.
WRAPPED_MODULES = LAYERS[1:]
CLI_STAGES = ("simulate", "learn_logging", "tune", "train", "evaluate", "bound")
OBJECTIVES = ("ips_lpr", "wnll_lpr", "ips_l2", "poem", "poem_l2",
              "logging_nll")
DATASET_CLASSES = ("LabeledDataset", "LoggedDataset")

# Span attributes, computed from the bound call arguments and the result.
# A renamed parameter raises here, which is the point: the metric it feeds
# would otherwise silently read zero.
ATTRS = {
    "learning.train": lambda a, r: {
        "objective": a["config"].objective, "n": a["data"].n,
        "k": a["data"].k, "d": a["data"].d, "epochs": a["config"].epochs,
    },
    "learning.objective_value": lambda a, r: {
        "n": a["data"].n, "k": a["data"].k, "d": a["data"].d,
    },
    "datasets.load_logged": lambda a, r: {"rows": r.n},
    "datasets.load_labeled": lambda a, r: {"rows": len(r)},
    "datasets.save_logged": lambda a, r: {"rows": a["data"].n},
    "datasets.save_labeled": lambda a, r: {"rows": len(a["data"])},
    "policies.mixed_logit_prob_mc": lambda a, r: {"draws": a["samples"]},
}

# Every wrapped name a per-layer metric reads. Installing fails if one is
# missing, so a renamed or deleted function cannot turn a metric into zero.
REQUIRED_SPANS = (
    "datasets.load_logged", "datasets.save_logged", "datasets.load_labeled",
    "datasets.save_labeled", "datasets.simulate_logs", "datasets.subset",
    "learning.train", "learning.objective_value",
    "learning.poem_build_surrogate", "learning.cross_validate",
    "learning.learn_logging_policy", "learning.solve_logging_nll_exact",
    "estimators.truncated_ips_risk", "estimators.mean_param_risk",
    "estimators.ips_risk", "estimators.expected_reward_stochastic",
    "policies.action_prob_matrix", "policies.mixed_logit_prob_mc",
    "policies.load_model", "policies.save_model",
    "bounds.mixed_logit_risk_bound", "bounds.data_dep_risk_bound",
    "bounds.crm_bound_all_tau", "synthetic.task_logs",
)

PASS_SPAN = "bench.pass"
CSV_SPANS = ("datasets.load_logged", "datasets.save_logged",
             "datasets.load_labeled", "datasets.save_labeled")


class Recorder:
    """In-memory span list with a parent stack; off until ``enabled``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.enabled = False
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int, end: float, attrs=None) -> None:
        span = self.spans[index]
        span[2] = end
        span[4] = attrs
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """Record ``name`` around the block when enabled; else do nothing."""
        if not self.enabled:
            yield
            return
        index = self.open(name)
        try:
            yield
        except BaseException as exc:
            self.close(index, time.perf_counter(), {"error": type(exc).__name__})
            raise
        self.close(index, time.perf_counter())

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)


def _traced(recorder: Recorder, name: str, fn):
    attrs_of = ATTRS.get(name)
    signature = inspect.signature(fn) if attrs_of is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            recorder.close(index, time.perf_counter(),
                           {"error": type(exc).__name__})
            raise
        end = time.perf_counter()
        attrs = None
        if attrs_of is not None:
            attrs = attrs_of(signature.bind(*args, **kwargs).arguments, result)
        recorder.close(index, end, attrs)
        return result

    return traced


class Installation:
    """Wrappers on every crmlab namespace; ``remove`` restores the originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        installed = {"datasets.subset"}
        for layer in WRAPPED_MODULES:
            module = importlib.import_module(f"crmlab.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = _traced(self.recorder, f"{layer}.{attr}", obj)
                    installed.add(f"{layer}.{attr}")
        datasets = importlib.import_module("crmlab.datasets")
        for cls_name in DATASET_CLASSES:
            cls = getattr(datasets, cls_name)
            self._undo.append((cls, "subset", cls.__dict__["subset"]))
            setattr(cls, "subset",
                    _traced(self.recorder, "datasets.subset", cls.subset))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crmlab" and not mod_name.startswith("crmlab."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._undo.append((module, attr, value))
        missing = sorted(set(REQUIRED_SPANS) - installed)
        if missing:
            self.remove()
            raise RuntimeError(f"traced functions missing: {', '.join(missing)}")

    def remove(self) -> None:
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def pass_metrics(spans: list[list], first: int, last: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``spans[first]`` is the pass span; ``spans[first + 1:last]`` are its
    descendants (spans are appended in start order).
    """
    root = spans[first]
    pass_wall = root[2] - root[1]
    dur = {i: spans[i][2] - spans[i][1] for i in range(first, last)}
    children_time = {i: 0.0 for i in range(first, last)}
    for i in range(first + 1, last):
        children_time[spans[i][3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p > first:
            yield p
            p = spans[p][3]

    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    train_self = 0.0
    train_by_objective = {obj: 0.0 for obj in OBJECTIVES}
    record_epochs = flops = draws = cv_jobs = cv_diverged = 0
    rows = dict.fromkeys(CSV_SPANS, 0)
    for i in range(first + 1, last):
        name, _, _, _, attrs = spans[i]
        calls[name] = calls.get(name, 0) + 1
        up = [spans[p][0] for p in ancestors(i)]
        if name not in up:
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        self_time = dur[i] - children_time[i]
        if _layer(name) in layer_self:
            layer_self[_layer(name)] += self_time
        attrs = attrs or {}
        if name == "learning.train":
            train_self += self_time
            if "learning.train" not in up:
                train_by_objective[attrs["objective"]] += dur[i]
            epochs_done = attrs["n"] * attrs["epochs"]
            record_epochs += epochs_done
            flops += 4 * attrs["k"] * attrs["d"] * epochs_done
            if "learning.cross_validate" in up:
                cv_jobs += 1
                cv_diverged += attrs.get("error") == "DivergenceError"
        elif name == "learning.objective_value":
            flops += 2 * attrs["n"] * attrs["k"] * attrs["d"]
        elif name == "policies.mixed_logit_prob_mc":
            draws += attrs.get("draws", 0)
        if name in rows:
            rows[name] += attrs["rows"]

    def incl(name):
        return inclusive.get(name, 0.0)

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    top_level = sum(dur[i] for i in range(first + 1, last)
                    if spans[i][3] == first)
    m: dict[str, float] = {}
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = incl(f"cli.{stage}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for kind in ("load_logged", "save_logged", "load_labeled"):
        name = f"datasets.{kind}"
        m[f"{name}_us_per_row"] = per(incl(name), rows[name], 1e6)
    m["datasets.rows_read"] = sum(rows[n] for n in CSV_SPANS if ".load_" in n)
    m["datasets.rows_written"] = sum(rows[n] for n in CSV_SPANS if ".save_" in n)
    m["datasets.simulate_logs_s"] = incl("datasets.simulate_logs")
    m["datasets.subset_s"] = incl("datasets.subset")
    m["learning.train_s"] = incl("learning.train")
    m["learning.train_calls"] = calls.get("learning.train", 0)
    m["learning.record_epochs"] = record_epochs
    m["learning.minibatch_self_s"] = train_self
    m["learning.minibatch_ns_per_record_epoch"] = per(train_self, record_epochs, 1e9)
    for obj in OBJECTIVES:
        m[f"learning.train.{obj}_s"] = train_by_objective[obj]
    m["learning.objective_value_s"] = incl("learning.objective_value")
    m["learning.objective_value_calls"] = calls.get("learning.objective_value", 0)
    m["learning.poem_build_surrogate_s"] = incl("learning.poem_build_surrogate")
    m["learning.cross_validate_s"] = incl("learning.cross_validate")
    m["learning.cv_jobs"] = cv_jobs
    m["learning.cv_diverged"] = cv_diverged
    m["learning.learn_logging_policy_s"] = incl("learning.learn_logging_policy")
    m["learning.solve_logging_nll_exact_s"] = incl(
        "learning.solve_logging_nll_exact")
    m["learning.matmul_flops_computed"] = flops
    for name in ("truncated_ips_risk", "mean_param_risk", "ips_risk",
                 "expected_reward_stochastic"):
        m[f"estimators.{name}_s"] = incl(f"estimators.{name}")
    m["policies.action_prob_matrix_s"] = incl("policies.action_prob_matrix")
    m["policies.action_prob_matrix_calls"] = calls.get(
        "policies.action_prob_matrix", 0)
    m["policies.mixed_logit_prob_mc_s"] = incl("policies.mixed_logit_prob_mc")
    m["policies.mixed_logit_prob_mc_calls"] = calls.get(
        "policies.mixed_logit_prob_mc", 0)
    m["policies.mc_draws"] = draws
    m["policies.mc_ns_per_draw"] = per(
        incl("policies.mixed_logit_prob_mc"), draws, 1e9)
    m["policies.load_model_s"] = incl("policies.load_model")
    m["policies.save_model_s"] = incl("policies.save_model")
    for name in ("mixed_logit_risk_bound", "data_dep_risk_bound",
                 "crm_bound_all_tau"):
        m[f"bounds.{name}_s"] = incl(f"bounds.{name}")
    m["synthetic.task_logs_s"] = incl("synthetic.task_logs")
    m["trace.top_level_coverage"] = top_level / pass_wall if pass_wall > 0 else 0.0
    return m
