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
held at a time.

The reader hands each block of lines to numpy's C tokenizer
(``np.loadtxt`` with a structured dtype: the features, then one int64 or
float64 field per other column).  numpy 2.4.6, the floor in pyproject.toml,
reads a float to the bits ``float`` gives and rejects every cell
``float``/``int`` reject (older releases parse an int cell such as ``1.0``
through float), once the control characters U+001C to U+001F (which numpy
strips as whitespace and Python does not) are ruled out.  A block numpy
refuses, or one with such a character, a line over the csv field-size
limit or a value outside its column's domain, goes through the row scan:
``csv.reader`` records and ``float``/``int`` per cell.  The row scan returns the block's values when it finds no defect, so cells
numpy refuses but Python accepts (``1_000``, non-ASCII digits, Unicode
space padding) load as before; otherwise it raises a ValueError naming the
path and line (blank lines count) of the first bad record.  Earlier blocks
have passed, so that is the first bad record in the file.  A block with a
quote hands the rest of the file to the row scan, since a quoted cell may
hold a line break and cross a block boundary.  A ``csv.Error`` (such as a
field over the csv module's size limit) becomes a ValueError naming the
path and line, and a UTF-8 decode error one naming the path.

The writer emits ``repr`` of Python floats and ints, the bytes
``csv.writer`` gives for the same cells, one block at a time in the calling
process.

All containers are immutable after construction and safe to share across
threads.  Simulation consumes a single sequential RNG stream per call, so a
fixed seed reproduces logs exactly.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

import numpy as np

from .policies import (
    SoftmaxPolicy, _check_count, _check_dims, _check_nonnegative,
    _check_norm_bound, _feature_matrix, _frozen, _gumbel_max_log, _max_row_norm,
    _writing,
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


def _check_column(name: str, column: "_Column", arr: np.ndarray) -> None:
    """Reject ``arr`` unless ``column`` accepts its every entry."""
    accepted = column.accepts(arr)
    if not accepted.all():
        raise ValueError(f"{name} must lie in {column.interval}, got {arr[~accepted][0]}")


def _record_field(name: str, column: "_Column", values, n: int) -> np.ndarray:
    """``values`` frozen as a length-n vector whose every entry ``column``
    accepts: the check the CSV reader makes on the same column."""
    arr = _frozen(values, column.dtype)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a length-n vector")
    _check_column(name, column, arr)
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """Multiclass examples: features (n×d) and integer labels in [0, k)."""

    features: np.ndarray
    labels: np.ndarray
    k: int

    def __post_init__(self) -> None:
        _check_count("k", self.k, 1)
        X = _feature_matrix("features", self.features)
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
        _check_count("k", self.k, 1)
        X = _feature_matrix("features", self.features)
        object.__setattr__(self, "features", X)
        for name, column in (("actions", _index_column("action", self.k)),
                             ("propensities", _PROPENSITY), ("rewards", _REWARD)):
            values = _record_field(name, column, getattr(self, name), len(X))
            object.__setattr__(self, name, values)
        max_norm = _max_row_norm(X)
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

    @property
    def dtype(self) -> type:
        return np.int64 if self.parse is int else np.float64


def _index_column(name: str, k: int) -> _Column:
    return _Column(name, int, f"[0, {k})", lambda v: (0 <= v) & (v < k))


_PROPENSITY = _Column("propensity", float, "(0, 1]", lambda v: (0 < v) & (v <= 1))
_REWARD = _Column("reward", float, "[0, 1]", lambda v: (0 <= v) & (v <= 1))


def _parse_cell(path, lineno: int, name: str, parse: type, text: str):
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{path} line {lineno}: invalid {name} {text!r}") from None


def _scan_rows(path, rows, d: int, tail: tuple[_Column, ...]):
    """Parse ``(lineno, row)`` records cell by cell with ``float``/``int``.

    Raises at the first defect, naming the path and line; otherwise returns
    the (m, d) feature matrix and one vector per tail column.
    """
    width = d + len(tail)
    features, values = [], [[] for _ in tail]
    for lineno, row in rows:
        if len(row) != width:
            raise ValueError(
                f"{path} line {lineno}: expected {width} fields, got {len(row)}"
            )
        for j in range(d):
            value = _parse_cell(path, lineno, f"f{j}", float, row[j])
            if not math.isfinite(value):
                raise ValueError(f"{path} line {lineno}: non-finite f{j} {row[j]!r}")
            features.append(value)
        for column, text, parsed in zip(tail, row[d:], values):
            value = _parse_cell(path, lineno, column.name, column.parse, text)
            if not column.accepts(value):
                raise ValueError(
                    f"{path} line {lineno}: {column.name} {value} "
                    f"not in {column.interval}"
                )
            parsed.append(value)
    return (np.array(features, np.float64).reshape(-1, d),
            [np.array(parsed, column.dtype) for column, parsed in zip(tail, values)])


# Control characters that numpy's tokenizer strips from a cell as whitespace
# but ``float`` and ``int`` reject.
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_block(lines: list[str], text: str, dtype: np.dtype,
                 tail: tuple[_Column, ...]):
    """Parse a block of unquoted lines (``text`` is their concatenation)
    with numpy's C tokenizer; None unless it accepts every line and every
    value passes its column check, and for the blocks left to the row scan
    (see the module docstring).  Blocks of blank lines only go there too:
    numpy warns on them.
    """
    if (max(map(len, lines)) > csv.field_size_limit()
            or text.count("\n") + text.count("\r") == len(text)
            or any(char in text for char in _SEPARATORS)):
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                           quotechar=None, ndmin=1)
    except ValueError:
        return None
    features = table["features"]
    values = [table[column.name] for column in tail]
    if not np.isfinite(features).all():
        return None
    if not all(column.accepts(v).all() for column, v in zip(tail, values)):
        return None
    return features, values


def _records(path, lines, first: int) -> Iterator[tuple[int, list[str]]]:
    """The nonblank ``csv.reader`` records of ``lines``, which start at
    line ``first`` of ``path``, numbered from ``first`` (blank records
    count).  A csv error names the path and the line it is on."""
    reader = csv.reader(lines)
    try:
        for lineno, row in enumerate(reader, start=first):
            if row:
                yield lineno, row
    except csv.Error as exc:
        raise ValueError(f"{path} line {first - 1 + reader.line_num}: {exc}") from None


def _read_table(
    path, tail: tuple[_Column, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read ``f0,...,f{d-1}`` followed by the ``tail`` columns.

    Returns the (n, d) feature matrix and one vector per tail column.  A
    UTF-8 decode error names the path but no line: the decoder reads the
    file in chunks.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            blocks = [block for block in _table_blocks(path, fh, tail)
                      if len(block[0])]
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not blocks:
        raise ValueError(f"{path}: no records")
    features, values = zip(*blocks)
    # Row-major, as the rest of the package expects (row norms, matmuls).
    table = [np.concatenate(features),
             *(np.concatenate(parts) for parts in zip(*values))]
    # Read-only arrays with no other owner: a dataset takes them uncopied.
    for column in table:
        column.setflags(write=False)
    return table[0], table[1:]


def _table_blocks(path, fh, tail: tuple[_Column, ...]):
    """Check the header of ``fh``, then yield the parsed blocks of its
    records, each a (feature matrix, tail vectors) pair."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: no header") from None
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    d = len(header) - len(tail)
    if (
        d < 1
        or header[d:] != [column.name for column in tail]
        or header[:d] != [f"f{i}" for i in range(d)]
    ):
        names = ",".join(column.name for column in tail)
        raise ValueError(f"{path}: expected header f0,...,f{{d-1}},{names}")
    dtype = np.dtype([("features", np.float64, (d,)),
                      *((column.name, column.dtype) for column in tail)])
    # A header that matches is line 1 (it has no quoted line break), and
    # until a quote appears each line is one record (blank lines count).
    first = 2
    while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
        if '"' in (text := "".join(lines)):
            # A quoted cell may hold a line break and cross into the next
            # block, so csv.reader takes the rest of the file from here.
            records = _records(path, itertools.chain(lines, fh), first)
            while part := list(itertools.islice(records, _BLOCK_ROWS)):
                yield _scan_rows(path, part, d, tail)
            return
        parsed = _parse_block(lines, text, dtype, tail)
        if parsed is None:
            parsed = _scan_rows(path, _records(path, lines, first), d, tail)
        yield parsed
        first += len(lines)


def _write_table(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write one CSV line per row of ``columns`` (equal-length vectors).

    Cells are ``repr`` of Python floats and ints, which ``csv.writer`` would
    write unquoted, so the bytes match a ``csv.writer`` of the same rows.
    """
    n = columns[0].shape[0]
    with _writing(path) as fh:
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
    _check_count("k", k, 1)
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
    _check_count("k", k, 1)
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
    _check_count("num_folds", num_folds, 1, maximum=n)
    _check_count("seed", seed, 0)
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
    _check_count("seed", seed, 0)
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
