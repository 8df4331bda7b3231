"""Dataset containers, CSV ingestion, fold splitting, and log simulation.

Two on-disk formats, both UTF-8 CSV with ``.`` as the decimal separator,
no thousands separators and finite features:

* labeled data:  header ``f0,...,f{d-1},label``; one multiclass example per
  row, label an integer in [0, k).
* logged data:   header ``f0,...,f{d-1},action,propensity,reward``; one
  logged interaction per row with the propensity the probability the
  logging policy assigned to the logged action (in (0, 1]) and the reward
  in [0, 1].

Floats are serialized with shortest round-trip repr, so write -> read is
exact.  Both formats go through one reader and one writer that work in
blocks of ``_BLOCK_ROWS`` records, so at most one block of row strings is
held at a time.  The reader converts a block column by column with the same
``float``/``int`` a row-by-row parse would use and checks it with numpy;
only when a block fails does it re-scan that block row by row, to raise a
ValueError naming the path and line (blank lines count) of the first bad
record.  Earlier blocks have passed, so that is the first bad record in the
file.  A ``csv.Error`` (such as a field over the csv module's size limit)
becomes a ValueError naming the path and line, and a UTF-8 decode error one
naming the path.  The writer emits ``repr`` of Python floats and ints, the bytes
``csv.writer`` gives for the same cells.

All containers are immutable after construction and safe to share across
threads.  Simulation consumes a single sequential RNG stream per call, so a
fixed seed reproduces logs exactly.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, NoReturn, Optional

import numpy as np

from .policies import (
    SoftmaxPolicy, _check_count, _check_dims, _check_nonnegative,
    _check_norm_bound, _gumbel_max_log,
)

__all__ = [
    "LabeledDataset",
    "LoggedDataset",
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


def _feature_matrix(features) -> np.ndarray:
    """``features`` frozen as a nonempty (n, d) float64 matrix of finite values."""
    X = _frozen(features, np.float64)
    if X.ndim != 2 or X.size == 0:
        raise ValueError("features must be a nonempty (n, d) array")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    return X


def _record_field(name: str, column: "_Column", values, n: int) -> np.ndarray:
    """``values`` frozen as a length-n vector whose every entry ``column``
    accepts: the check the CSV reader makes on the same column."""
    arr = _frozen(values, np.int64 if column.parse is int else np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-n vector")
    accepted = column.accepts(arr)
    if not accepted.all():
        raise ValueError(f"{name} must lie in {column.interval}, got {arr[~accepted][0]}")
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """Multiclass examples: features (n×d) and integer labels in [0, k)."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        X = _feature_matrix(self.features)
        y = _record_field("labels", _index_column("label", self.k), self.labels, len(X))
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
    record; left out, it is the max row norm.  An explicit bound may be
    looser, and subsets inherit the parent's (still valid, possibly loose).
    """

    features: np.ndarray
    actions: np.ndarray
    propensities: np.ndarray
    rewards: np.ndarray
    k: int
    feature_norm_bound: Optional[float] = None

    def __post_init__(self) -> None:
        X = _feature_matrix(self.features)
        object.__setattr__(self, "features", X)
        for name, column in (("actions", _index_column("action", self.k)),
                             ("propensities", _PROPENSITY), ("rewards", _REWARD)):
            values = _record_field(name, column, getattr(self, name), len(X))
            object.__setattr__(self, name, values)
        max_norm = float(np.sqrt((X * X).sum(axis=1).max()))
        if self.feature_norm_bound is None:
            object.__setattr__(self, "feature_norm_bound", max_norm)
        else:
            _check_norm_bound("feature_norm_bound", self.feature_norm_bound, max_norm)

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


# -----------------------------------------------------------------------
# CSV ingestion
# -----------------------------------------------------------------------

# Records parsed or written per block.  Bounds the row strings held at once.
_BLOCK_ROWS = 2048


class _Column(NamedTuple):
    """A non-feature CSV column: converter and accepted interval."""

    name: str
    parse: type  # float or int, applied to the cell text
    interval: str  # for messages, e.g. "(0, 1]"
    accepts: Callable  # elementwise on a Python scalar or a numpy array


def _index_column(name: str, k: int) -> _Column:
    return _Column(name, int, f"[0, {k})", lambda v: (0 <= v) & (v < k))


_PROPENSITY = _Column("propensity", float, "(0, 1]", lambda v: (0 < v) & (v <= 1))
_REWARD = _Column("reward", float, "[0, 1]", lambda v: (0 <= v) & (v <= 1))


def _parse_cell(path, lineno: int, name: str, parse: type, text: str):
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: invalid {name} {text!r}") from None


def _raise_row_error(path, block, d: int, tail: tuple[_Column, ...]) -> NoReturn:
    """Check ``block`` row by row and raise at its first defect."""
    width = d + len(tail)
    for lineno, row in block:
        if len(row) != width:
            raise ValueError(
                f"{path} line {lineno}: expected {width} fields, got {len(row)}"
            )
        for j in range(d):
            value = _parse_cell(path, lineno, f"f{j}", float, row[j])
            if not math.isfinite(value):
                raise ValueError(f"{path} line {lineno}: non-finite f{j} {row[j]!r}")
        for column, text in zip(tail, row[d:]):
            value = _parse_cell(path, lineno, column.name, column.parse, text)
            if not column.accepts(value):
                raise ValueError(
                    f"{path} line {lineno}: {column.name} {value} "
                    f"not in {column.interval}"
                )
    raise RuntimeError(f"{path}: block rejected but no row is malformed")


def _convert_block(rows, d: int, tail: tuple[_Column, ...]):
    """Column-wise conversion of one block; None if any check fails."""
    if any(len(row) != d + len(tail) for row in rows):
        return None
    cols = list(zip(*rows))
    m = len(rows)
    try:
        features = np.fromiter(
            map(float, itertools.chain.from_iterable(cols[:d])), np.float64, m * d
        ).reshape(d, m)
        values = [
            np.fromiter(
                map(column.parse, text),
                np.int64 if column.parse is int else np.float64,
                m,
            )
            for column, text in zip(tail, cols[d:])
        ]
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(features).all():
        return None
    if not all(column.accepts(v).all() for column, v in zip(tail, values)):
        return None
    return features, values


def _records(path, fh) -> Iterator[list[str]]:
    """``csv.reader`` records of ``fh``; csv and decode errors name ``path``.

    A decode error names no line: the decoder reads the file in chunks.
    """
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_table(
    path, tail: tuple[_Column, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read ``f0,...,f{d-1}`` followed by the ``tail`` columns.

    Returns the (n, d) feature matrix and one vector per tail column.
    """
    names = ",".join(column.name for column in tail)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: no header") from None
        d = len(header) - len(tail)
        if (
            d < 1
            or header[d:] != [column.name for column in tail]
            or header[:d] != [f"f{i}" for i in range(d)]
        ):
            raise ValueError(f"{path}: expected header f0,...,f{{d-1}},{names}")
        # Line numbers count blank lines, which csv.reader yields as [].
        records = ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
        feature_blocks, value_blocks = [], []
        while block := list(itertools.islice(records, _BLOCK_ROWS)):
            converted = _convert_block([row for _, row in block], d, tail)
            if converted is None:
                _raise_row_error(path, block, d, tail)
            feature_blocks.append(converted[0])
            value_blocks.append(converted[1])
    if not feature_blocks:
        raise ValueError(f"{path}: no records")
    # Row-major, as the rest of the package expects (row norms, matmuls).
    X = np.concatenate(feature_blocks, axis=1).T.copy()
    return X, [np.concatenate(parts) for parts in zip(*value_blocks)]


def _write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write one CSV line per row of ``columns`` (equal-length vectors).

    Cells are ``repr`` of Python floats and ints, which ``csv.writer`` would
    write unquoted, so the bytes match a ``csv.writer`` of the same rows.
    """
    n = columns[0].shape[0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            block = [col[start:start + _BLOCK_ROWS].tolist() for col in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*block))


def load_labeled(path, k: int) -> LabeledDataset:
    """Load a labeled CSV (header ``f0,...,f{d-1},label``).

    ``d`` is inferred from the header; row order is preserved.  Raises
    ValueError naming the offending line for malformed rows, non-finite
    features, and labels outside [0, k).
    """
    X, (y,) = _read_table(path, (_index_column("label", k),))
    return LabeledDataset(X, y, k)


def save_labeled(path, data: LabeledDataset) -> None:
    _write_table(
        path,
        [f"f{i}" for i in range(data.d)] + ["label"],
        [*data.features.T, data.labels],
    )


def load_logged(path, k: int) -> LoggedDataset:
    """Load a logged CSV (header ``f0,...,f{d-1},action,propensity,reward``).

    Validates propensities in (0, 1] (full-support requirement) and rewards
    in [0, 1]; ``feature_norm_bound`` is the max row norm.
    """
    X, (a, p, r) = _read_table(path, (_index_column("action", k), _PROPENSITY, _REWARD))
    return LoggedDataset(X, a, p, r, k)


def save_logged(path, data: LoggedDataset) -> None:
    _write_table(
        path,
        [f"f{i}" for i in range(data.d)] + ["action", "propensity", "reward"],
        [*data.features.T, data.actions, data.propensities, data.rewards],
    )


# -----------------------------------------------------------------------
# Folds, simulation, tempering
# -----------------------------------------------------------------------


def kfold_split(
    n: int, num_folds: int, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split records into folds: seeded permutation, then striping.

    Returns one ``(train, holdout)`` pair of ascending record indices per
    fold; the holdouts partition range(n) and each train is the rest.
    Deterministic for a fixed seed; fold sizes differ by at most one.
    """
    _check_count("num_folds", num_folds, 1)
    if num_folds > n:
        raise ValueError(f"num_folds {num_folds} exceeds record count {n}")
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=np.int64)
    fold_of[perm] = np.arange(n) % num_folds
    return [(np.flatnonzero(fold_of != fold), np.flatnonzero(fold_of == fold))
            for fold in range(num_folds)]


def simulate_logs(
    logging_policy: SoftmaxPolicy, data: LabeledDataset, seed: int
) -> LoggedDataset:
    """Generate logged bandit feedback from labeled data.

    For each example an action is sampled from the logging policy's softmax
    distribution (Gumbel perturbation), the propensity is the exact softmax
    probability of the sampled action, and the reward is 1 when the action
    equals the true label, else 0.
    """
    _check_dims(logging_policy, data)
    actions, propensities = _gumbel_max_log(
        logging_policy, data.features, np.random.default_rng(seed)
    )
    rewards = (actions == data.labels).astype(np.float64)
    return LoggedDataset(data.features, actions, propensities, rewards, data.k)


def temper(policy: SoftmaxPolicy, kappa: float) -> SoftmaxPolicy:
    """Scale all weights and biases by ``kappa`` (inverse temperature).

    ``kappa = 0`` yields the uniform policy, ``kappa = 1`` an identical
    copy; the input policy is never modified.
    """
    _check_nonnegative("kappa", kappa)
    with np.errstate(over="ignore"):
        weights, biases = policy.weights * kappa, policy.biases * kappa
    if not (np.isfinite(weights).all() and np.isfinite(biases).all()):
        raise ValueError(f"kappa={kappa!r} overflows the policy parameters")
    return SoftmaxPolicy(weights, biases)
