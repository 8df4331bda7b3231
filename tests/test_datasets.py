import csv
import errno
import io
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import crmlab.datasets
from crmlab import _jobs
from crmlab import (
    LabeledDataset,
    LoggedDataset,
    action_prob_matrix,
    kfold_split,
    load_labeled,
    load_logged,
    save_labeled,
    save_logged,
    simulate_logs,
    temper,
    zero_policy,
    SoftmaxPolicy,
)
from conftest import random_logged


class TestLabeledDataset:
    def test_basic_shape_and_access(self):
        X = np.arange(6.0).reshape(3, 2)
        data = LabeledDataset(X, np.array([0, 1, 2]), 3)
        assert data.d == 2
        assert len(data) == 3

    def test_rejects_label_out_of_range(self):
        X = np.zeros((2, 2))
        with pytest.raises(ValueError):
            LabeledDataset(X, np.array([0, 5]), 3)

    def test_subset(self):
        X = np.arange(8.0).reshape(4, 2)
        data = LabeledDataset(X, np.array([0, 1, 0, 1]), 2)
        sub = data.subset([2, 0])
        np.testing.assert_array_equal(sub.features, X[[2, 0]])
        np.testing.assert_array_equal(sub.labels, [0, 0])


class TestLoggedDataset:
    def test_rejects_zero_propensity(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([0.0]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_propensity_above_one(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([1.5]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_reward_outside_unit_interval(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([0]), np.array([0.5]),
                np.array([1.2]), 2, 0.0,
            )

    def test_rejects_action_out_of_range(self):
        with pytest.raises(ValueError):
            LoggedDataset(
                np.zeros((1, 1)), np.array([2]), np.array([0.5]),
                np.array([1.0]), 2, 0.0,
            )

    def test_rejects_bound_below_max_norm(self):
        X = np.array([[3.0, 4.0]])
        with pytest.raises(ValueError):
            LoggedDataset(X, np.array([0]), np.array([0.5]), np.array([0.0]), 2, 4.9)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf")])
    def test_rejects_nonfinite_bound(self, bound):
        X = np.array([[3.0, 4.0]])
        with pytest.raises(ValueError, match="feature_norm_bound"):
            LoggedDataset(X, np.array([0]), np.array([0.5]), np.array([0.0]), 2, bound)

    def test_default_bound_is_max_row_norm(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 4))
        data = LoggedDataset(X, rng.integers(0, 3, size=25), np.full(25, 0.5),
                             np.zeros(25), 3)
        expected = float(np.sqrt((X * X).sum(axis=1).max()))
        assert data.feature_norm_bound.hex() == expected.hex()
        loose = LoggedDataset(X, data.actions, data.propensities, data.rewards,
                              3, 2.0 * expected)
        assert loose.feature_norm_bound == 2.0 * expected
        assert loose.subset([0, 1]).feature_norm_bound == 2.0 * expected

    def test_default_bound_of_huge_features_is_finite(self):
        # The squares of these rows overflow; the norms do not.
        X = np.array([[3e200, 4e200], [-1e300, 0.0], [1e-300, 2e-300]])
        data = LoggedDataset(X, np.zeros(3, dtype=int), np.ones(3),
                             np.zeros(3), 2)
        assert data.feature_norm_bound == 1e300
        assert LoggedDataset(X[:1], [0], [1.0], [0.0], 2).feature_norm_bound \
            == pytest.approx(5e200, rel=1e-15)

    def test_rejects_zero_width_features(self):
        with pytest.raises(ValueError, match="nonempty"):
            LoggedDataset(np.zeros((3, 0)), np.zeros(3, dtype=int), np.ones(3),
                          np.ones(3), 2)

    def test_subset_inherits_bound(self):
        rng = np.random.default_rng(0)
        data = random_logged(rng, 10, 3, 2)
        sub = data.subset([0, 1])
        assert sub.feature_norm_bound == data.feature_norm_bound
        assert sub.k == data.k
        assert sub.n == 2


class TestCsvRoundTrips:
    def test_labeled_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3)) * np.pi
        data = LabeledDataset(X, rng.integers(0, 4, size=20), 4)
        path = tmp_path / "labeled.csv"
        save_labeled(path, data)
        back = load_labeled(path, 4)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_logged_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        data = random_logged(rng, 25, 4, 3)
        path = tmp_path / "logs.csv"
        save_logged(path, data)
        back = load_logged(path, 3)
        np.testing.assert_array_equal(back.features, data.features)
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.propensities, data.propensities)
        np.testing.assert_array_equal(back.rewards, data.rewards)
        assert back.feature_norm_bound == data.feature_norm_bound

    def test_save_twice_byte_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        data = random_logged(rng, 10, 2, 2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_logged(p1, data)
        save_logged(p2, data)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_logged_keeps_no_second_copy(self, tmp_path):
        # 20 000 records are ten reader blocks.  The parsed blocks and
        # their concatenation coexist once; the dataset then takes the
        # reader's read-only arrays as they are.  Copying them as well
        # peaked near three times the arrays' size.
        rng = np.random.default_rng(5)
        data = random_logged(rng, 20_000, 20, 10)
        path, again = tmp_path / "logs.csv", tmp_path / "again.csv"
        save_logged(path, data)
        tracemalloc.start()
        try:
            back = load_logged(path, 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        names = ("features", "actions", "propensities", "rewards")
        for name in names:
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(data, name), strict=True)
            assert not getattr(back, name).flags.writeable
        save_logged(again, back)
        assert again.read_bytes() == path.read_bytes()
        assert peak < 2.5 * sum(getattr(back, name).nbytes for name in names)

    def test_callers_writeable_arrays_are_copied(self):
        X = np.ones((3, 2))
        actions = np.array([0, 1, 0])
        data = LoggedDataset(X, actions, np.full(3, 0.5), np.ones(3), 2)
        X[0, 0] = 7.0
        actions[0] = 1
        assert data.features[0, 0] == 1.0 and data.actions[0] == 0
        assert not data.features.flags.writeable


class TestCsvErrors:
    def test_bad_float_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\nx,2.0,1\n")
        with pytest.raises(ValueError) as err:
            load_labeled(path, 2)
        assert "bad.csv" in str(err.value)
        assert "line 3" in str(err.value)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ValueError):
            load_labeled(path, 2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("f0,label\n1.0,7\n")
        with pytest.raises(ValueError):
            load_labeled(path, 3)

    def test_logged_propensity_zero_rejected_with_line(self, tmp_path):
        path = tmp_path / "logs.csv"
        path.write_text(
            "f0,action,propensity,reward\n1.0,0,0.5,1.0\n1.0,1,0.0,0.0\n"
        )
        with pytest.raises(ValueError) as err:
            load_logged(path, 2)
        assert "line 3" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_logged(tmp_path / "nope.csv", 2)


SMALL_BLOCK = 4


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(crmlab.datasets, "_BLOCK_ROWS", SMALL_BLOCK)


def csv_writer_bytes(header, rows):
    """Reference serialization: csv.writer over repr'd floats and ints."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue().encode("utf-8")


def awkward_features(rng, n, d):
    X = rng.normal(size=(n, d)) * np.pi
    special = [-0.0, 5e-324, 1e-300, 1e16, -123456789.125, 0.1]
    X.flat[: len(special)] = special[: X.size]
    return X


BLOCK_SIZES = [SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 2 * SMALL_BLOCK + 1]


class TestCsvBlocks:
    """Reads and writes that cross the block boundary."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_labeled_round_trip_and_reference_bytes(self, small_blocks,
                                                    tmp_path, n):
        rng = np.random.default_rng(n)
        data = LabeledDataset(awkward_features(rng, n, 3),
                              rng.integers(0, 4, size=n), 4)
        path = tmp_path / "labeled.csv"
        save_labeled(path, data)
        assert path.read_bytes() == csv_writer_bytes(
            ["f0", "f1", "f2", "label"],
            [[repr(float(v)) for v in data.features[i]] + [int(data.labels[i])]
             for i in range(n)],
        )
        back = load_labeled(path, 4)
        np.testing.assert_array_equal(back.features, data.features)
        assert np.signbit(back.features).tolist() == \
            np.signbit(data.features).tolist()
        np.testing.assert_array_equal(back.labels, data.labels)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_logged_round_trip_and_reference_bytes(self, small_blocks,
                                                   tmp_path, n):
        rng = np.random.default_rng(100 + n)
        X = awkward_features(rng, n, 2)
        p = rng.uniform(0.05, 1.0, size=n)
        p[-1] = 1.0
        r = rng.uniform(0.0, 1.0, size=n)
        r[0] = 0.0
        B = float(np.sqrt((X * X).sum(axis=1).max()))
        data = LoggedDataset(X, rng.integers(0, 3, size=n), p, r, 3, B)
        path = tmp_path / "logs.csv"
        save_logged(path, data)
        assert path.read_bytes() == csv_writer_bytes(
            ["f0", "f1", "action", "propensity", "reward"],
            [[repr(float(v)) for v in data.features[i]]
             + [int(data.actions[i]), repr(float(data.propensities[i])),
                repr(float(data.rewards[i]))]
             for i in range(n)],
        )
        back = load_logged(path, 3)
        np.testing.assert_array_equal(back.features, data.features)
        assert back.features.flags.c_contiguous
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.propensities, data.propensities)
        np.testing.assert_array_equal(back.rewards, data.rewards)
        assert back.feature_norm_bound == data.feature_norm_bound

    # (format, malformed row, message after "line N: "); the row lands on
    # line 7, the second record of the second block.
    DEFECTS = {
        "bad_float": ("logged", "0.5,x,1,0.5,1.0", "invalid f1 'x'"),
        "too_few_fields": ("logged", "0.5,1,0.5,1.0", "expected 5 fields, got 4"),
        "too_many_fields": ("labeled", "0.5,-1.25,1,0", "expected 3 fields, got 4"),
        "bad_label": ("labeled", "0.5,-1.25,one", "invalid label 'one'"),
        "label_range": ("labeled", "0.5,-1.25,3", "label 3 not in [0, 3)"),
        "action_range": ("logged", "0.5,-1.25,-1,0.5,1.0",
                         "action -1 not in [0, 3)"),
        "action_20_digits": ("logged", "0.5,-1.25,12345678901234567890,0.5,1.0",
                             "action 12345678901234567890 not in [0, 3)"),
        "propensity_zero": ("logged", "0.5,-1.25,1,0,1.0",
                            "propensity 0.0 not in (0, 1]"),
        "propensity_nan": ("logged", "0.5,-1.25,1,nan,1.0",
                           "propensity nan not in (0, 1]"),
        "reward_above_one": ("logged", "0.5,-1.25,1,0.5,1.5",
                             "reward 1.5 not in [0, 1]"),
        "non_finite_feature": ("labeled", "0.5,inf,1", "non-finite f1 'inf'"),
    }
    GOOD = {"labeled": "0.5,-1.25,1", "logged": "0.5,-1.25,1,0.5,1.0"}
    HEADER = {"labeled": "f0,f1,label",
              "logged": "f0,f1,action,propensity,reward"}

    def write(self, tmp_path, fmt, lines):
        path = tmp_path / f"{fmt}.csv"
        path.write_text("\n".join([self.HEADER[fmt], *lines]) + "\n")
        return path

    def load(self, fmt, path):
        return (load_labeled if fmt == "labeled" else load_logged)(path, 3)

    @pytest.mark.parametrize("case", sorted(DEFECTS))
    def test_defect_in_second_block_names_its_line(self, small_blocks,
                                                   tmp_path, case):
        fmt, bad, message = self.DEFECTS[case]
        lines = [self.GOOD[fmt]] * (2 * SMALL_BLOCK + 1)
        lines[5] = bad
        path = self.write(tmp_path, fmt, lines)
        with pytest.raises(ValueError) as err:
            self.load(fmt, path)
        assert str(err.value) == f"{path} line 7: {message}"

    def test_blank_lines_count_toward_line_numbers(self, small_blocks,
                                                   tmp_path):
        lines = [self.GOOD["logged"]] * (2 * SMALL_BLOCK + 1)
        lines[5] = "0.5,-1.25,1,0.5,1.5"
        lines[4:4] = ["", ""]
        path = self.write(tmp_path, "logged", lines)
        with pytest.raises(ValueError) as err:
            load_logged(path, 3)
        assert str(err.value) == f"{path} line 9: reward 1.5 not in [0, 1]"

    def test_first_defect_in_file_order_wins(self, small_blocks, tmp_path):
        lines = [self.GOOD["logged"]] * (3 * SMALL_BLOCK)
        lines[6] = "0.5,-1.25,1,0.5,1.5"
        lines[7] = "0.5,x,1,0.5,1.0"
        lines[9] = "0.5,-1.25,9,0.5,1.0"
        path = self.write(tmp_path, "logged", lines)
        with pytest.raises(ValueError) as err:
            load_logged(path, 3)
        assert str(err.value) == f"{path} line 8: reward 1.5 not in [0, 1]"

    def test_quoted_fields_and_crlf_load(self, small_blocks, tmp_path):
        n = 2 * SMALL_BLOCK + 1
        X = np.arange(2.0 * n).reshape(n, 2) / 8.0
        rows = [f'"{x0!r}",{x1!r},"{i % 3}",0.5,"1.0"' for i, (x0, x1)
                in enumerate(X.tolist())]
        path = tmp_path / "quoted.csv"
        path.write_bytes(("\r\n".join(
            ['"f0",f1,action,"propensity",reward', *rows]) + "\r\n").encode())
        back = load_logged(path, 3)
        np.testing.assert_array_equal(back.features, X)
        np.testing.assert_array_equal(back.actions, np.arange(n) % 3)
        np.testing.assert_array_equal(back.propensities, np.full(n, 0.5))
        np.testing.assert_array_equal(back.rewards, np.ones(n))

    def test_header_without_records(self, tmp_path):
        path = self.write(tmp_path, "labeled", ["", ""])
        with pytest.raises(ValueError) as err:
            load_labeled(path, 3)
        assert str(err.value) == f"{path}: no records"


def reference_load(path, fmt, k):
    """Row-by-row reference reader: csv.reader records, ``float``/``int``
    per cell, and the messages of the block reader.  It stops at the first
    defect in file order; a file with bad UTF-8 must hold no earlier defect,
    since the block reader decodes a whole block before checking it."""
    tail = {"labeled": [("label", int, lambda v: 0 <= v < k, f"[0, {k})")],
            "logged": [("action", int, lambda v: 0 <= v < k, f"[0, {k})"),
                       ("propensity", float, lambda v: 0 < v <= 1, "(0, 1]"),
                       ("reward", float, lambda v: 0 <= v <= 1, "[0, 1]")]}[fmt]
    names = [name for name, *_ in tail]
    features, values = [], [[] for _ in tail]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: no header")
            d = len(header) - len(tail)
            if d < 1 or header != [f"f{i}" for i in range(d)] + names:
                raise ValueError(f"{path}: expected header f0,...,f{{d-1}},"
                                 + ",".join(names))
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                where = f"{path} line {lineno}"
                if len(row) != d + len(tail):
                    raise ValueError(f"{where}: expected {d + len(tail)} "
                                     f"fields, got {len(row)}")
                for j, text in enumerate(row[:d]):
                    try:
                        value = float(text)
                    except ValueError:
                        raise ValueError(f"{where}: invalid f{j} {text!r}")
                    if not math.isfinite(value):
                        raise ValueError(f"{where}: non-finite f{j} {text!r}")
                    features.append(value)
                for (name, parse, accepts, interval), text, parsed in zip(
                        tail, row[d:], values):
                    try:
                        value = parse(text)
                    except ValueError:
                        raise ValueError(f"{where}: invalid {name} {text!r}")
                    if not accepts(value):
                        raise ValueError(f"{where}: {name} {value} not in {interval}")
                    parsed.append(value)
        except csv.Error as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}")
    if not features:
        raise ValueError(f"{path}: no records")
    X = np.array(features).reshape(-1, d)
    if fmt == "labeled":
        return LabeledDataset(X, values[0], k)
    return LoggedDataset(X, *values, k)


def outcome(load):
    """What a load gives: every array with its dtype and layout, or the
    ValueError text."""
    try:
        data = load()
    except ValueError as exc:
        return str(exc)
    arrays = [value for value in vars(data).values() if isinstance(value, np.ndarray)]
    return ([(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays],
            getattr(data, "feature_norm_bound", None))


GOOD_ROW = {"labeled": "0.5,-1.25,1", "logged": "0.5,-1.25,1,0.5,1.0"}
LIMIT = csv.field_size_limit()
LONG_ZERO = "0." + "0" * (LIMIT // 2) + "1"  # float accepts it; half the limit


def rows(fmt, n, **edits):
    """``n`` good rows of ``fmt`` with rows replaced by ``{index: row}``."""
    out = [GOOD_ROW[fmt]] * n
    for index, row in edits.items():
        out[int(index[1:])] = row
    return out


# (format, file text after the header line).  Each case loads through
# both readers; at SMALL_BLOCK, line 2 + 4i starts block i.
DIFFERENTIAL = {
    "plain": ("logged", "\n".join(rows("logged", 9)) + "\n"),
    "quoted_cell_across_blocks": (
        "logged", "\n".join(rows("logged", 3) + ['0.5,"', '-1.25",1,0.5,1.0']
                            + rows("logged", 5)) + "\n"),
    "quoted_cell_then_defect": (
        "logged", "\n".join(rows("logged", 3) + ['0.5,"', '-1.25",1,0.5,1.0']
                            + rows("logged", 5, r3="0.5,-1.25,1,0.5,2.0"))
        + "\n"),
    "underscore_digits": ("labeled", "\n".join(rows("labeled", 6, r4="1_000,2,1"))),
    "arabic_indic_digits": ("logged", "\n".join(
        rows("logged", 6, r5="\u0663.5,1,\u0661,0.5,1.0"))),
    "nbsp_padding": ("labeled", "\n".join(
        rows("labeled", 6, r1="\xa00.5\xa0,-1.25,\xa01\xa0"))),
    "separator_padding": ("labeled", "\n".join(rows("labeled", 6, r2="\x1c0.5,2,1"))),
    "crlf": ("logged", "\r\n".join(rows("logged", 9)) + "\r\n"),
    "lone_cr": ("logged", "\r".join(rows("logged", 9)) + "\r"),
    "lone_cr_then_defect": ("logged", "\r".join(
        rows("logged", 9, r6="0.5,-1.25,3,0.5,1.0")) + "\r"),
    "blank_lines": ("labeled", "\n\n" + "\n\n".join(rows("labeled", 5)) + "\n\n\n"),
    "blank_lines_then_defect": ("labeled", "\n\n".join(
        rows("labeled", 5, r4="0.5,x,1")) + "\n"),
    "whitespace_only_line": ("labeled", "\n".join(
        rows("labeled", 3) + ["  \t"] + rows("labeled", 3))),
    "header_only": ("labeled", ""),
    "header_then_blank_lines": ("logged", "\n" * 9),
    "cell_over_field_limit": ("labeled", "\n".join(
        rows("labeled", 5, r4="0." + "0" * LIMIT + "1,2,1"))),
    "line_over_field_limit": ("labeled", "\n".join(
        rows("labeled", 5, r4=f"{LONG_ZERO},{LONG_ZERO},1,2"[:-2]))),
    "nul_byte": ("labeled", "\n".join(rows("labeled", 6, r5="0.5,\x00,1"))),
    "non_utf8": ("labeled", "\n".join(rows("labeled", 6)) + "\n\udcff,1,1\n"),
    "nan_feature": ("labeled", "\n".join(rows("labeled", 6, r5="nan,1,1"))),
    "inf_feature": ("logged", "\n".join(rows("logged", 6, r5="0.5,-inf,1,0.5,1.0"))),
    "nan_propensity": ("logged", "\n".join(rows("logged", 6, r5="0.5,1,1,nan,1.0"))),
    "inf_reward": ("logged", "\n".join(rows("logged", 6, r5="0.5,1,1,0.5,inf"))),
    "action_20_digits": ("logged", "\n".join(
        rows("logged", 6, r5="0.5,1,12345678901234567890,0.5,1.0"))),
    "int_as_float": ("labeled", "\n".join(rows("labeled", 6, r5="0.5,1,1.0"))),
    "trailing_comma": ("labeled", "\n".join(rows("labeled", 6, r5="0.5,1,1,"))),
}


class TestCsvReaderMatchesReference:
    """Every case loads to the same arrays, or the same message, as the
    row-by-row reference, with blocks of SMALL_BLOCK lines and of the
    default size."""

    @pytest.mark.parametrize("block_rows", [SMALL_BLOCK, crmlab.datasets._BLOCK_ROWS])
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL))
    def test_same_arrays_or_message(self, monkeypatch, tmp_path, case,
                                    block_rows):
        monkeypatch.setattr(crmlab.datasets, "_BLOCK_ROWS", block_rows)
        fmt, body = DIFFERENTIAL[case]
        path = tmp_path / f"{case}.csv"
        header = TestCsvBlocks.HEADER[fmt]
        path.write_bytes((header + "\n" + body).encode("utf-8", "surrogateescape"))
        load = load_labeled if fmt == "labeled" else load_logged
        expected = outcome(lambda: reference_load(path, fmt, 3))
        assert outcome(lambda: load(path, 3)) == expected

    @pytest.mark.parametrize("text", ["1.0", "2.7", "1e0"])
    @pytest.mark.parametrize("fmt", ["labeled", "logged"])
    def test_float_looking_index_fails_whatever_the_warning_filter(
            self, tmp_path, fmt, text):
        # numpy 1.23 to 1.26 parsed such an int64 cell through float with
        # only a DeprecationWarning.  The suite's filter would turn that
        # warning into an error, so this runs with the default filter.
        path = tmp_path / f"{fmt}.csv"
        row = {"labeled": f"0.5,-1.25,{text}",
               "logged": f"0.5,-1.25,{text},0.5,1.0"}[fmt]
        path.write_text(TestCsvBlocks.HEADER[fmt] + "\n"
                        + "\n".join(rows(fmt, 3) + [row]) + "\n")
        name = {"labeled": "label", "logged": "action"}[fmt]
        load = load_labeled if fmt == "labeled" else load_logged
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            with pytest.raises(ValueError) as err:
                load(path, 3)
        assert str(err.value) == f"{path} line 5: invalid {name} {text!r}"

    def test_cases_load_and_fail_as_named(self, tmp_path):
        # The cases cover both outcomes: these load, every other one fails.
        loads = set()
        for case, (fmt, body) in DIFFERENTIAL.items():
            path = tmp_path / f"{case}.csv"
            path.write_bytes((TestCsvBlocks.HEADER[fmt] + "\n" + body)
                             .encode("utf-8", "surrogateescape"))
            if not isinstance(outcome(lambda: reference_load(path, fmt, 3)), str):
                loads.add(case)
        assert loads == {
            "plain", "quoted_cell_across_blocks", "underscore_digits",
            "arabic_indic_digits", "nbsp_padding", "crlf", "lone_cr",
            "blank_lines", "line_over_field_limit",
        }


class TestWriterForksNothing:
    def test_save_succeeds_when_no_process_can_start(self, small_blocks,
                                                      monkeypatch, tmp_path):
        # A write formats its blocks in the calling process, so a host that
        # cannot fork (EAGAIN) still gets the file.
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_jobs, "worker_count", lambda jobs: min(jobs, 2))
        logs = random_logged(np.random.default_rng(5), 10 * SMALL_BLOCK, 2, 3)
        save_logged(tmp_path / "logs.csv", logs)
        assert (tmp_path / "logs.csv").read_bytes() == csv_writer_bytes(
            ["f0", "f1", "action", "propensity", "reward"],
            [[*map(repr, logs.features[i].tolist()), int(logs.actions[i]),
              repr(float(logs.propensities[i])), repr(float(logs.rewards[i]))]
             for i in range(logs.n)],
        )


class TestKfoldSplit:
    def test_partition_and_balance(self):
        folds = kfold_split(23, 5, seed=11)
        assert len(folds) == 5
        sizes = [len(holdout) for _, holdout in folds]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1
        seen = np.concatenate([holdout for _, holdout in folds])
        assert sorted(seen.tolist()) == list(range(23))

    def test_train_is_complement(self):
        for train, holdout in kfold_split(17, 4, seed=5):
            assert np.all(np.diff(train) > 0) and np.all(np.diff(holdout) > 0)
            ho, tr = set(holdout.tolist()), set(train.tolist())
            assert ho & tr == set()
            assert ho | tr == set(range(17))

    def test_deterministic(self):
        a = kfold_split(40, 5, seed=9)
        b = kfold_split(40, 5, seed=9)
        for (train_a, holdout_a), (train_b, holdout_b) in zip(a, b):
            np.testing.assert_array_equal(train_a, train_b)
            np.testing.assert_array_equal(holdout_a, holdout_b)

    def test_seed_changes_assignment(self):
        a = kfold_split(40, 5, seed=9)
        b = kfold_split(40, 5, seed=10)
        assert not all(np.array_equal(x, y) for (_, x), (_, y) in zip(a, b))

    def test_rejects_more_folds_than_records(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5, seed=0)


@pytest.fixture(scope="module")
def labeled():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 3))
    return LabeledDataset(X, rng.integers(0, 4, size=200), 4)


@pytest.fixture(scope="module")
def policy():
    rng = np.random.default_rng(7)
    return SoftmaxPolicy(rng.normal(size=(4, 3)), rng.normal(size=4))


class TestSimulateLogs:
    def test_propensities_are_exact_action_probs(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        P = action_prob_matrix(policy, logs.features)
        matched = P[np.arange(logs.n), logs.actions]
        np.testing.assert_array_equal(logs.propensities, matched)

    def test_rewards_are_label_hits(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        np.testing.assert_array_equal(
            logs.rewards, (logs.actions == labeled.labels).astype(float)
        )

    def test_bound_is_max_row_norm(self, labeled, policy):
        logs = simulate_logs(policy, labeled, seed=100)
        norms = np.linalg.norm(labeled.features, axis=1)
        assert logs.feature_norm_bound == norms.max()

    def test_deterministic(self, labeled, policy):
        a = simulate_logs(policy, labeled, seed=100)
        b = simulate_logs(policy, labeled, seed=100)
        np.testing.assert_array_equal(a.actions, b.actions)

    def test_seed_matters(self, labeled, policy):
        a = simulate_logs(policy, labeled, seed=100)
        b = simulate_logs(policy, labeled, seed=101)
        assert not np.array_equal(a.actions, b.actions)

    def test_dimension_mismatch(self, labeled):
        with pytest.raises(ValueError):
            simulate_logs(zero_policy(5, 4), labeled, seed=0)


class TestTemper:
    def test_zero_kappa_gives_uniform(self):
        rng = np.random.default_rng(8)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        flat = temper(pol, 0.0)
        assert np.all(flat.weights == 0.0)
        assert np.all(flat.biases == 0.0)

    def test_identity_at_one(self):
        rng = np.random.default_rng(9)
        pol = SoftmaxPolicy(rng.normal(size=(3, 2)), rng.normal(size=3))
        same = temper(pol, 1.0)
        np.testing.assert_array_equal(same.weights, pol.weights)
        np.testing.assert_array_equal(same.biases, pol.biases)

    def test_power_of_two_composition_exact(self):
        rng = np.random.default_rng(10)
        pol = SoftmaxPolicy(rng.normal(size=(3, 4)), rng.normal(size=3))
        # Scaling by powers of two is exact in binary floating point.
        round_trip = temper(temper(pol, 0.5), 2.0)
        np.testing.assert_array_equal(round_trip.weights, pol.weights)
        np.testing.assert_array_equal(round_trip.biases, pol.biases)

    def test_rejects_negative_and_nonfinite(self):
        pol = zero_policy(2, 2)
        with pytest.raises(ValueError):
            temper(pol, -0.5)
        with pytest.raises(ValueError):
            temper(pol, float("nan"))
