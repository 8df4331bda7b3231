"""Dataset containers, CSV ingestion, fold splitting, and log simulation.

Two on-disk formats, both UTF-8 CSV with ``.`` as the decimal separator and
no thousands separators:

* labeled data:  header ``f0,...,f{d-1},label``; one multiclass example per
  row, label an integer in [0, k).
* logged data:   header ``f0,...,f{d-1},action,propensity,reward``; one
  logged interaction per row with the propensity the probability the
  logging policy assigned to the logged action (in (0, 1]) and the reward
  in [0, 1].

Floats are serialized with shortest round-trip repr, so write -> read is
exact.  All containers are immutable after construction and safe to share
across threads.  Simulation consumes a single sequential RNG stream per
call, so a fixed seed reproduces logs exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .policies import SoftmaxPolicy, _softmax_rows, gumbel_noise

__all__ = [
    "LabeledDataset",
    "LoggedDataset",
    "FoldAssignment",
    "load_labeled",
    "save_labeled",
    "load_logged",
    "save_logged",
    "kfold_split",
    "simulate_logs",
    "temper",
]


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabeledDataset:
    """Multiclass examples: features (n×d) and integer labels in [0, k)."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        X = _frozen(self.features, np.float64)
        y = _frozen(self.labels, np.int64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError("features must be a nonempty (n, d) array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be a length-n vector")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if self.k < 1 or y.min() < 0 or y.max() >= self.k:
            raise ValueError("labels must lie in [0, k)")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.k)


@dataclass(frozen=True)
class LoggedDataset:
    """Logged bandit feedback: (context, action, propensity, reward) rows.

    ``feature_norm_bound`` is a number B with B ≥ ‖features_i‖ for every
    record; loaders and the simulator set it to the max row norm.  Subsets
    inherit the parent bound (still valid, possibly loose).
    """

    features: np.ndarray
    actions: np.ndarray
    propensities: np.ndarray
    rewards: np.ndarray
    k: int
    feature_norm_bound: float

    def __post_init__(self) -> None:
        X = _frozen(self.features, np.float64)
        a = _frozen(self.actions, np.int64)
        p = _frozen(self.propensities, np.float64)
        r = _frozen(self.rewards, np.float64)
        n = X.shape[0]
        if X.ndim != 2 or n == 0:
            raise ValueError("features must be a nonempty (n, d) array")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        for name, arr in (("actions", a), ("propensities", p), ("rewards", r)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must be a length-n vector")
        if self.k < 1 or a.min() < 0 or a.max() >= self.k:
            raise ValueError("actions must lie in [0, k)")
        if np.any(p <= 0.0) or np.any(p > 1.0):
            raise ValueError("propensities must lie in (0, 1]")
        if np.any(r < 0.0) or np.any(r > 1.0):
            raise ValueError("rewards must lie in [0, 1]")
        max_norm = float(np.sqrt((X * X).sum(axis=1).max()))
        # Tolerate 1 ulp of slack: bounds recomputed from serialized norms
        # must not fail on round-off.
        if self.feature_norm_bound < max_norm * (1.0 - 1e-12):
            raise ValueError("feature_norm_bound below the max context norm")
        for name, arr in (
            ("features", X),
            ("actions", a),
            ("propensities", p),
            ("rewards", r),
        ):
            object.__setattr__(self, name, arr)

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n(self) -> int:
        return self.features.shape[0]

    def __len__(self) -> int:
        return self.n

    def subset(self, indices) -> "LoggedDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LoggedDataset(
            self.features[idx],
            self.actions[idx],
            self.propensities[idx],
            self.rewards[idx],
            self.k,
            self.feature_norm_bound,
        )


@dataclass(frozen=True)
class FoldAssignment:
    """Record-to-fold map; fold sizes differ by at most one."""

    fold_of: np.ndarray
    num_folds: int

    def __post_init__(self) -> None:
        f = _frozen(self.fold_of, np.int64)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("fold_of must be a nonempty vector")
        if self.num_folds < 1 or f.min() < 0 or f.max() >= self.num_folds:
            raise ValueError("fold indices must lie in [0, num_folds)")
        sizes = np.bincount(f, minlength=self.num_folds)
        if sizes.max() - sizes.min() > 1:
            raise ValueError("fold sizes must differ by at most one")
        object.__setattr__(self, "fold_of", f)

    def holdout_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of != fold)


# -----------------------------------------------------------------------
# CSV ingestion
# -----------------------------------------------------------------------


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no header") from None
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    return header, rows


def _parse_float(path, lineno: int, column: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: invalid {column} {text!r}") from None


def _parse_int(path, lineno: int, column: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: invalid {column} {text!r}") from None


def load_labeled(path, k: int) -> LabeledDataset:
    """Load a labeled CSV (header ``f0,...,f{d-1},label``).

    ``d`` is inferred from the header; row order is preserved.  Raises
    ValueError naming the offending line for malformed rows, and for labels
    outside [0, k).
    """
    header, rows = _read_rows(path)
    if len(header) < 2 or header[-1] != "label":
        raise ValueError(f"{path}: expected header f0,...,f{{d-1}},label")
    d = len(header) - 1
    if header[:d] != [f"f{i}" for i in range(d)]:
        raise ValueError(f"{path}: expected header f0,...,f{{d-1}},label")
    if not rows:
        raise ValueError(f"{path}: no records")
    X = np.empty((len(rows), d))
    y = np.empty(len(rows), dtype=np.int64)
    for out, (lineno, row) in enumerate(rows):
        if len(row) != d + 1:
            raise ValueError(
                f"{path} line {lineno}: expected {d + 1} fields, got {len(row)}"
            )
        for j in range(d):
            X[out, j] = _parse_float(path, lineno, f"f{j}", row[j])
        label = _parse_int(path, lineno, "label", row[d])
        if not (0 <= label < k):
            raise ValueError(f"{path} line {lineno}: label {label} not in [0, {k})")
        y[out] = label
    return LabeledDataset(X, y, k)


def save_labeled(path, data: LabeledDataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"f{i}" for i in range(data.d)] + ["label"])
        for i in range(len(data)):
            writer.writerow(
                [repr(float(v)) for v in data.features[i]]
                + [int(data.labels[i])]
            )


def load_logged(path, k: int) -> LoggedDataset:
    """Load a logged CSV (header ``f0,...,f{d-1},action,propensity,reward``).

    Validates propensities in (0, 1] (full-support requirement) and rewards
    in [0, 1]; ``feature_norm_bound`` is set to the max row norm.
    """
    header, rows = _read_rows(path)
    tail = ["action", "propensity", "reward"]
    if len(header) < 4 or header[-3:] != tail:
        raise ValueError(
            f"{path}: expected header f0,...,f{{d-1}},action,propensity,reward"
        )
    d = len(header) - 3
    if header[:d] != [f"f{i}" for i in range(d)]:
        raise ValueError(
            f"{path}: expected header f0,...,f{{d-1}},action,propensity,reward"
        )
    if not rows:
        raise ValueError(f"{path}: no records")
    X = np.empty((len(rows), d))
    a = np.empty(len(rows), dtype=np.int64)
    p = np.empty(len(rows))
    r = np.empty(len(rows))
    for out, (lineno, row) in enumerate(rows):
        if len(row) != d + 3:
            raise ValueError(
                f"{path} line {lineno}: expected {d + 3} fields, got {len(row)}"
            )
        for j in range(d):
            X[out, j] = _parse_float(path, lineno, f"f{j}", row[j])
        action = _parse_int(path, lineno, "action", row[d])
        if not (0 <= action < k):
            raise ValueError(f"{path} line {lineno}: action {action} not in [0, {k})")
        a[out] = action
        prop = _parse_float(path, lineno, "propensity", row[d + 1])
        if not (0.0 < prop <= 1.0):
            raise ValueError(
                f"{path} line {lineno}: propensity {prop} not in (0, 1]"
            )
        p[out] = prop
        rew = _parse_float(path, lineno, "reward", row[d + 2])
        if not (0.0 <= rew <= 1.0):
            raise ValueError(f"{path} line {lineno}: reward {rew} not in [0, 1]")
        r[out] = rew
    B = float(np.sqrt((X * X).sum(axis=1).max()))
    return LoggedDataset(X, a, p, r, k, B)


def save_logged(path, data: LoggedDataset) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [f"f{i}" for i in range(data.d)] + ["action", "propensity", "reward"]
        )
        for i in range(data.n):
            writer.writerow(
                [repr(float(v)) for v in data.features[i]]
                + [
                    int(data.actions[i]),
                    repr(float(data.propensities[i])),
                    repr(float(data.rewards[i])),
                ]
            )


# -----------------------------------------------------------------------
# Folds, simulation, tempering
# -----------------------------------------------------------------------


def kfold_split(n: int, num_folds: int, seed: int) -> FoldAssignment:
    """Assign records to folds: seeded permutation, then striping.

    Deterministic for a fixed seed; fold sizes differ by at most one.
    """
    if num_folds < 1:
        raise ValueError("num_folds must be positive")
    if num_folds > n:
        raise ValueError(f"num_folds {num_folds} exceeds record count {n}")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % num_folds
    return FoldAssignment(fold_of, num_folds)


def simulate_logs(
    logging_policy: SoftmaxPolicy, data: LabeledDataset, seed: int
) -> LoggedDataset:
    """Generate logged bandit feedback from labeled data.

    For each example an action is sampled from the logging policy's softmax
    distribution (Gumbel perturbation), the propensity is the exact softmax
    probability of the sampled action, and the reward is 1 when the action
    equals the true label, else 0.
    """
    if logging_policy.d != data.d:
        raise ValueError(
            f"policy dimension {logging_policy.d} does not match data {data.d}"
        )
    rng = np.random.default_rng(seed)
    logits = data.features @ logging_policy.weights.T + logging_policy.biases
    P = _softmax_rows(logits)
    noise = gumbel_noise(rng, logits.shape)
    actions = np.argmax(logits + noise, axis=1)
    rows = np.arange(len(data))
    propensities = P[rows, actions]
    rewards = (actions == data.labels).astype(np.float64)
    B = float(np.sqrt((data.features * data.features).sum(axis=1).max()))
    return LoggedDataset(data.features, actions, propensities, rewards, data.k, B)


def temper(policy: SoftmaxPolicy, kappa: float) -> SoftmaxPolicy:
    """Scale all weights and biases by ``kappa`` (inverse temperature).

    ``kappa = 0`` yields the uniform policy, ``kappa = 1`` an identical
    copy; the input policy is never modified.
    """
    if not (np.isfinite(kappa) and kappa >= 0.0):
        raise ValueError("kappa must be a finite nonnegative real")
    return SoftmaxPolicy(policy.weights * kappa, policy.biases * kappa)
