"""Property tests for the input boundaries: dataset CSV, model JSON, synthesis spec, CLI
arguments, node RPC replies, the row-table constructors and the other library entry points."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import tempfile
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from joist import (
    Dataset, EvalReport, IntegrityError, JoistError, ModelKind, ModelSpec, RemoteError,
    RpcEndpoint, SplitPlan, SynthSpec, evaluate, fetch_block_features, load_model, load_synth_spec,
    predict, read_dataset, save_model,
)
from joist.cli import main
from joist.features import COLUMNS, COUNT_COLUMNS
from joist.ingest import CSV_HEADER, write_dataset, write_features_csv
from joist.models import PREDICTORS, from_json_dict, to_json_dict
from joist.output import TEMP_SUFFIX
from joist.stats import Centred, centred, correlation

from conftest import RPC_PASS, RPC_USER, assert_row_table, reference_read_dataset

INT64_MAX = 2**63 - 1

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def datasets(draw, max_rows=12):
    heights = draw(st.lists(st.integers(0, INT64_MAX), min_size=1, max_size=max_rows, unique=True))
    n = len(heights)

    def column(lo):
        return draw(st.lists(st.integers(lo, INT64_MAX), min_size=n, max_size=n))

    columns = {"height": heights, "size_bytes": column(1), "verify_time_us": column(1)}
    columns.update({name: column(0) for name in COLUMNS[2:7]})
    return Dataset(columns)


def _outcome(fn):
    """A dataset, or the type and message of the JoistError raised instead."""
    try:
        return fn()
    except JoistError as exc:
        return type(exc), str(exc)


@_SETTINGS
@given(ds=datasets())
def test_csv_write_read_round_trip(work, ds):
    path = work / "round_trip.csv"
    write_dataset(ds, path)
    assert read_dataset(path) == ds


# Field texts each reader must treat alike: lenient int() forms, int64
# bounds, signs, leading zeros, empty and non-ASCII fields.
_FIELDS = st.sampled_from(
    ["+5", " 5", "5 ", "1_000", "", "-0", "007", "0" * 25 + "1", "-1", "0", "0", "0", "1.5", "0x1f", "\u0663", "\xe9"]
    + [str(v) for v in (INT64_MAX, INT64_MAX + 1, -(2**63), -(2**63) - 1, 10**20, 9 * 10**18 - 1)]
)
_EDIT_BYTES = st.sampled_from([*b"0123456789", *b",\n-+_ \r.ae", 0x00, 0xC3, 0xFF])


@st.composite
def mutated_files(draw):
    ds = draw(datasets(max_rows=6))
    rows = [[str(v) for v in row] for row in zip(*(getattr(ds, c).tolist() for c in COLUMNS))]
    if draw(st.booleans()):  # Reorder or repeat rows to reach the height checks.
        rows = [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=8))]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_FIELDS)
    lines = [CSV_HEADER] + [",".join(row) for row in rows]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    raw = bytearray((end.join(lines) + end * draw(st.sampled_from([1, 0, 2]))).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(len(CSV_HEADER) - 1, len(raw)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            raw[at:at] = bytes([draw(_EDIT_BYTES)])
        elif at < len(raw):
            raw[at : at + 1] = b"" if op == "delete" else bytes([draw(_EDIT_BYTES)])
    return bytes(raw)


def _file(*rows: str) -> bytes:
    return "\n".join([CSV_HEADER, *rows]).encode() + b"\n"


@settings(_SETTINGS, max_examples=300)
@given(raw=mutated_files())
@example(raw=_file("1,0,0,0,0,0,0,5"))  # an invariant broken after a clean parse
@example(raw=_file("1,2,0,0,0,0,0,0", "2,3,0,0,0,0,0,5"))
@example(raw=_file("2,5,0,0,0,0,0,5", "1,5,0,0,0,0,0,5", "2,5,0,0,0,0,0,6"))
@example(raw=_file("1,5,0,0,0,0,5", "2,5,0,0,0,0,5"))  # every row one field short
@example(raw=_file("1,5,0,0,0,0,0,5,0"))
@example(raw=_file("+1,5,0,0,0,0,0,5"))
@example(raw=_file("1,5,0,0,0,0,0, 5"))
@example(raw=_file("1,5,0,0,0,0,0,99999999999999999999"))
@example(raw=_file("1,5,0,0,0,0,0,5", "", "2,5,0,0,0,0,0,5").rstrip(b"\n"))
def test_reader_agrees_with_reference_row_reader(work, raw):
    path = work / "mutated.csv"
    path.write_bytes(raw)
    assert _outcome(lambda: read_dataset(path)) == _outcome(lambda: reference_read_dataset(raw, path))


@st.composite
def files_with_bad_values(draw):
    """A valid dataset CSV with 1-3 cells broken (height < 0, size <= 0,
    count < 0 or time <= 0), sometimes with shuffled rows, blank lines or
    CRLF line ends."""
    ds = draw(datasets(max_rows=8))
    table = [[str(v) for v in row] for row in zip(*(getattr(ds, c).tolist() for c in COLUMNS))]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(table))
        column = draw(st.integers(0, len(COLUMNS) - 1))
        highest = -1 if COLUMNS[column] in ("height", *COUNT_COLUMNS) else 0
        row[column] = str(draw(st.integers(-(2**63), highest)))
    if draw(st.booleans()):
        table = draw(st.permutations(table))
    lines = [",".join(row) for row in table]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([CSV_HEADER, *lines]) + end


def _first_bad_cell(text: str) -> tuple[int, str]:
    """The row check the reader used to make, one row at a time in file order:
    the line and column of the first broken value rule."""
    lines = text.replace("\r\n", "\n").split("\n")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        values = dict(zip(COLUMNS, map(int, line.split(","))))
        if values["height"] < 0:
            return lineno, "height"
        if values["size_bytes"] <= 0:
            return lineno, "size_bytes"
        for name in COUNT_COLUMNS:
            if values[name] < 0:
                return lineno, name
        if values["verify_time_us"] <= 0:
            return lineno, "verify_time_us"
    raise AssertionError("the file breaks no value rule")


@settings(_SETTINGS, max_examples=200)
@given(text=files_with_bad_values())
@example(text=_file("1,5,0,0,0,0,0,0", "2,0,0,0,0,0,0,5").decode())  # row order beats rule order
@example(text=_file("2,5,0,0,0,0,0,5", "1,0,0,0,-1,0,0,0").decode())  # size before counts and time
@example(text=_file("1,5,0,0,0,0,0,5", "-2,0,0,0,0,0,0,0").decode())  # height before size
@example(text=_file("1,5,0,0,0,-3,-2,5", "", "2,5,0,0,0,0,0,0").decode().replace("\n", "\r\n"))
def test_reader_names_the_first_bad_line_and_column(work, text):
    path = work / "bad_values.csv"
    path.write_bytes(text.encode())
    lineno, name = _first_bad_cell(text)
    with pytest.raises(IntegrityError) as excinfo:
        read_dataset(path)
    assert str(excinfo.value).startswith(f"{path}:{lineno}: {name} must be ")


@_SETTINGS
@given(raw=st.binary(max_size=300), with_header=st.booleans())
def test_arbitrary_bytes_give_a_dataset_or_a_joist_error(work, raw, with_header):
    path = work / "arbitrary.csv"
    path.write_bytes((CSV_HEADER.encode() + b"\n" if with_header else b"") + raw)
    _outcome(lambda: read_dataset(path))


@_SETTINGS
@given(raw=st.binary(max_size=300))
def test_arbitrary_bytes_give_a_model_or_a_joist_error(work, raw):
    path = work / "arbitrary.json"
    path.write_bytes(raw)
    _outcome(lambda: load_model(path))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def model_like_docs(draw):
    kind = draw(st.sampled_from([k.value for k in ModelKind]) | st.text(max_size=6))
    names = list(PREDICTORS.get(kind, ("byte",))) + draw(st.lists(st.text(max_size=6), max_size=1))
    return {
        "kind": kind,
        "coefficients": {name: draw(_JSON) for name in names},
        "intercept_us": draw(_JSON),
        "schema_version": draw(st.sampled_from([1, 1, 2, None])),
    }


@_SETTINGS
@given(doc=_JSON | model_like_docs())
def test_arbitrary_json_gives_a_model_or_a_joist_error(doc):
    _outcome(lambda: from_json_dict(doc))


@_SETTINGS
@given(
    doc=_JSON
    | st.fixed_dictionaries(
        {
            "true_model": model_like_docs(),
            "noise_sigma_us": _JSON,
            "count_ranges": st.dictionaries(st.sampled_from(PREDICTORS[ModelKind.JOIST]), _JSON),
            "n_blocks": _JSON,
            "seed": _JSON,
        }
    )
)
def test_arbitrary_json_gives_a_synth_spec_or_a_joist_error(work, doc):
    path = work / "recipe.json"
    path.write_text(json.dumps(doc))
    _outcome(lambda: load_synth_spec(path))


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(list(ModelKind)))
    coefficients = {name: draw(_FINITE) for name in PREDICTORS[kind]}
    intercept = 0.0 if kind is ModelKind.FIXED_RATE else draw(_FINITE)
    return ModelSpec(kind, coefficients, intercept)


@_SETTINGS
@given(model=models())
def test_model_json_round_trip(work, model):
    path = work / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert json.loads(path.read_text())["kind"] == model.kind.value


# ---------------------------------------------------------------------------
# the row-table constructors: Dataset, Dataset.take and write_features_csv
# ---------------------------------------------------------------------------

# Each column's least value: sizes and times are positive, heights and counts non-negative.
_LEAST = {c: int(c in ("size_bytes", "verify_time_us")) for c in COLUMNS}

_ODD_CELLS = st.sampled_from(
    [-1, 0, 2**63, -(2**63) - 1, 10**30, 10**400, True, False, np.int64(3), np.uint64(2**63), np.int8(-1),
     np.float64(2.0), np.bool_(True), math.nan, 1.5, "1", None]
)
_BOOLS = st.sampled_from([True, False, np.bool_(True), np.bool_(False)])
_ODD_COLUMNS = st.sampled_from([5, "12", [[1, 2]], [[1], [1, 2]], {1, 2}, np.int64(4), [1] * 9])


@st.composite
def row_columns(draw):
    """Columns of up to six rows, heights drawn from a few values so that they repeat and come
    in any order, with odd cells, odd columns, missing keys or no mapping at all mixed in."""
    n = draw(st.integers(0, 6))
    columns = {}
    for name in COLUMNS:
        few = st.integers(0, 4) if name == "height" else st.integers(_LEAST[name], _LEAST[name] + 2)
        columns[name] = draw(st.lists(few | st.integers(_LEAST[name], INT64_MAX), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        columns[draw(st.sampled_from(COLUMNS))][draw(st.integers(0, n - 1))] = draw(_ODD_CELLS)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2])) if n else 0):  # a bool among the ints
        columns[draw(st.sampled_from(COLUMNS))][draw(st.integers(0, n - 1))] = draw(_BOOLS)
    for name, cells in columns.items():
        columns[name] = draw(st.sampled_from([list, tuple, np.array]))(cells)
    if draw(st.integers(0, 4)) == 4:
        columns[draw(st.sampled_from(COLUMNS))] = draw(_ODD_COLUMNS)
    if draw(st.integers(0, 4)) == 4:
        for name in draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=2)):
            columns.pop(name, None)
    form = draw(st.sampled_from(["dict"] * 12 + ["proxy", "pairs", "none"]))
    return {"dict": columns, "proxy": types.MappingProxyType(columns), "pairs": list(columns.items()), "none": None}[form]


def _plain(columns, names) -> bool:
    """Whether *columns* is a dict whose columns *names* are each n plain ints within int64, in a
    list, tuple or int64 array: the inputs whose outcome the oracle below fixes."""
    if type(columns) is not dict or any(name not in columns for name in names):
        return False
    cells = [columns[name] for name in names]
    if any(isinstance(col, np.ndarray) and not (col.dtype == np.int64 and col.ndim == 1) for col in cells):
        return False
    return len({len(col) if isinstance(col, (list, tuple, np.ndarray)) else -1 for col in cells}) == 1 and all(
        type(v) is int and -(2**63) <= v <= INT64_MAX for col in cells for v in np.asarray(col, object).tolist()
    )


def _bool_fault(columns, names) -> str | None:
    """For *columns* that are plain (see :func:`_plain`) once each bool cell is read as its int:
    the error of the first column in *names* that is a list or tuple holding a bool, which numpy
    reads as an int among ints (its first bool is shown) and as a bool among bools only; None if
    there is none, or if the columns are not plain that way."""
    if type(columns) is not dict:
        return None

    def is_bool(v) -> bool:
        return isinstance(v, (bool, np.bool_))

    sequences = {name: col for name, col in columns.items() if isinstance(col, (list, tuple))}
    as_ints = {**columns, **{name: [int(v) if is_bool(v) else v for v in col] for name, col in sequences.items()}}
    if not _plain(as_ints, names):
        return None
    for name in names:
        bools = [v for v in sequences.get(name, ()) if is_bool(v)]
        if bools:
            got = "dtype bool" if len(bools) == len(columns[name]) else repr(bools[0])
            return f"column {name} must hold integers within int64, got {got}"
    return None


def _height_sorted(columns, names) -> list[list[int]]:
    """The rows of plain or accepted *columns* as ints, sorted stably by height."""
    return sorted(([int(v) for v in row] for row in zip(*(columns[name] for name in names))), key=lambda r: r[0])


def _row_fault(rows: list[list[int]], names) -> str | None:
    """The error of int *rows* in height order: no rows, the first row that breaks a value rule
    (its first column that does), or the least repeated height; None if there is none."""
    if not rows:
        return "a dataset needs at least one sample"
    for row in rows:
        for name, value in zip(names, row):
            if value < _LEAST[name]:
                return f"height {row[0]}: {name} must be {'> 0' if _LEAST[name] else '>= 0'}, got {value}"
    repeats = [a[0] for a, b in zip(rows, rows[1:]) if a[0] == b[0]]
    return f"duplicate height {repeats[0]}" if repeats else None


@settings(_SETTINGS, max_examples=300)
@given(columns=row_columns())
@example(columns={c: [3, 1, 3, 2] if c == "height" else [1, 1, 1, 1] for c in COLUMNS})
@example(columns={c: np.array([5, 2, 9]) if c == "height" else [1, 0, 1] for c in COLUMNS})
@example(columns={c: [True, 1] if c == "n_spend" else [2, 1] for c in COLUMNS})
@example(columns={c: (1, np.bool_(False)) if c == "n_joinsplit" else [True, True] if c == "n_spend" else [2, 1]
                  for c in COLUMNS})
def test_row_table_constructors_give_the_sorted_rows_or_an_integrity_error(work, columns):
    """Dataset and write_features_csv give the stable height sort of the rows, checked, or an
    IntegrityError; plain int columns get the error of their first fault in height order, and
    int columns with a bool cell the error of their first such column."""
    ds = _outcome(lambda: Dataset(columns))
    if _bool_fault(columns, COLUMNS):
        assert ds == (IntegrityError, _bool_fault(columns, COLUMNS))
    if _plain(columns, COLUMNS):
        fault = _row_fault(_height_sorted(columns, COLUMNS), COLUMNS)
        assert ds == (IntegrityError, fault) if fault else isinstance(ds, Dataset)
    if isinstance(ds, Dataset):
        expected = _height_sorted(columns, COLUMNS)
        assert _row_fault(expected, COLUMNS) is None
        _assert_dataset_of(ds, expected, *columns.values())
    else:
        assert ds[0] is IntegrityError

    path = work / "features.csv"
    path.unlink(missing_ok=True)
    written = _outcome(lambda: write_features_csv(columns, path))
    names = COLUMNS[:-1]
    if _bool_fault(columns, names):
        assert written == (IntegrityError, _bool_fault(columns, names))
    if _plain(columns, names):
        fault = _row_fault(_height_sorted(columns, names), names)
        assert written == ((IntegrityError, fault) if fault else None)
    if written is None:
        expected = _height_sorted(columns, names)
        assert _row_fault(expected, names) is None
        lines = [CSV_HEADER, *(",".join(map(str, [*row, 0])) for row in expected)]
        assert path.read_text() == "".join(f"{line}\n" for line in lines)
    else:
        assert written[0] is IntegrityError and not path.exists()


def _assert_dataset_of(ds: Dataset, expected: list[list[int]], *sources) -> None:
    """*ds* holds the rows *expected* in one row table that shares no memory with any array of *sources*."""
    assert ds.table.tolist() == expected
    assert_row_table(ds)
    assert not any(isinstance(a, np.ndarray) and np.shares_memory(ds.table, a) for a in sources)


_ENDS = st.none() | st.integers(-8, 8)


@st.composite
def row_picks(draw, n):
    """Indices for Dataset.take of n rows: ints in and out of range, masks of about n booleans,
    slices, as lists or arrays, or something that is not a sequence of rows."""
    picks = draw(
        st.lists(st.integers(-n - 2, n + 1), max_size=8)
        | st.lists(st.booleans(), min_size=max(n - 1, 1), max_size=n + 1)
        | st.builds(slice, _ENDS, _ENDS, st.none() | st.integers(-3, 3).filter(bool))
        | st.sampled_from([None, 0, True, "a", [0.5], [[0, 1]], Ellipsis, (), (slice(None), slice(0, 3))])
    )
    if isinstance(picks, list) and all(type(v) in (int, bool) for v in picks) and draw(st.booleans()):
        return np.array(picks, dtype=bool if picks and type(picks[0]) is bool else np.intp)
    return picks


def _picked(rows: list, indices) -> list | None:
    """The rows that numpy's indexing picks for *indices*, or None if it picks no rows of the table."""
    if isinstance(indices, slice):
        return rows[indices]
    if indices is Ellipsis or (isinstance(indices, tuple) and not indices):
        return rows
    if isinstance(indices, np.ndarray):
        mask, values = indices.dtype == bool, indices.tolist()
    elif isinstance(indices, list) and all(type(v) in (int, bool) for v in indices):
        mask, values = bool(indices) and type(indices[0]) is bool, indices
    else:
        return None
    if mask:
        return [row for row, keep in zip(rows, values) if keep] if len(values) == len(rows) else None
    return [rows[i] for i in values] if all(-len(rows) <= i < len(rows) for i in values) else None


@settings(_SETTINGS, max_examples=300)
@given(data=st.data(), ds=datasets(max_rows=6))
def test_take_gives_the_sorted_rows_or_an_integrity_error(data, ds):
    indices = data.draw(row_picks(len(ds)))
    taken = _outcome(lambda: ds.take(indices))
    picked = _picked(ds.table.tolist(), indices)
    if picked is None:
        assert taken[0] is IntegrityError
        return
    expected = sorted(picked, key=lambda r: r[0])
    fault = _row_fault(expected, COLUMNS)
    if fault:
        assert taken == (IntegrityError, fault)
    else:
        _assert_dataset_of(taken, expected, ds.table)


# ---------------------------------------------------------------------------
# the other library entry points: records, writers, predict and evaluate
# ---------------------------------------------------------------------------

# Values of the wrong type or range for any argument: huge ints, bools, numpy scalars, NaN,
# strings, and ragged, 2-D or nested arrays.
_ODD = st.sampled_from(
    [None, True, False, -1, 0, 2.5, 10**30, 10**5000, -(10**5000), np.int64(3), np.float64(2.5), np.bool_(True),
     np.uint64(2**63), math.nan, math.inf, -0.0, "1", "", b"x", [[1, 2], [3]], np.zeros((2, 2)), [1, [2]],
     [10**5000], {}, {"a": 1}, ModelKind.JOIST]
)


def _either(draw, usual, odd=_ODD):
    """A value drawn from *usual*, or one time in three from *odd*."""
    return draw(odd) if draw(st.integers(0, 2)) == 0 else draw(usual)


@st.composite
def model_args(draw):
    """ModelSpec fields: coefficients with names missing or added, and any field of any value."""
    kind = _either(draw, st.sampled_from(list(ModelKind)))
    names = draw(st.lists(st.sampled_from(PREDICTORS.get(kind, ("byte",)) if isinstance(kind, ModelKind) else ["x"])))
    names += draw(st.lists(st.sampled_from(["byte", "spend", "other"]), max_size=1))
    coefficients = _either(draw, st.just({name: _either(draw, _FINITE) for name in names}))
    return kind, coefficients, _either(draw, st.just(0.0) | _FINITE)


@st.composite
def count_ranges(draw):
    """Count ranges with a key missing, or pairs reversed, of the wrong length or holding odd values."""
    names = draw(st.lists(st.sampled_from(PREDICTORS[ModelKind.JOIST]), unique=True, min_size=3))
    pair = st.tuples(st.integers(0, 50), st.integers(0, 50)).map(sorted) | st.lists(st.integers(-2, 10**20), max_size=3)
    return {name: _either(draw, pair, st.tuples(_ODD, st.integers(0, 5))) for name in names}


@settings(_SETTINGS, max_examples=300)
@given(data=st.data())
def test_records_give_a_value_or_a_joist_error(data):
    """SplitPlan, RpcEndpoint, ModelSpec and SynthSpec, each given any values for its fields."""
    draw = data.draw
    for record, fields in (
        (SplitPlan, [_either(draw, st.integers(0, 2**64 - 1)), _either(draw, st.integers(1, 10))]),
        (RpcEndpoint, [*(_either(draw, st.text(max_size=4)) for _ in range(3)),
                       _either(draw, st.floats(1e-3, 1e3)), _either(draw, st.integers(1, 64))]),
        (ModelSpec, draw(model_args())),
        (SynthSpec, [_either(draw, models()), _either(draw, st.floats(0, 1e3)), _either(draw, count_ranges()),
                     _either(draw, st.integers(1, 50)), _either(draw, st.integers(0, 2**64 - 1))]),
    ):
        made = _outcome(lambda: record(*fields))
        assert isinstance(made, record) or issubclass(made[0], JoistError)


@st.composite
def series(draw, n):
    """n floats, a few of them odd values, as a list, tuple or array; or an odd value in place of the series."""
    values = draw(st.lists(st.floats(-1e6, 1e6) | st.floats(), min_size=n, max_size=n))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1])) if n else 0):
        values[draw(st.integers(0, n - 1))] = draw(_ODD)
    forms = [list, tuple, np.array] if all(isinstance(v, float) for v in values) else [list, tuple]
    return _either(draw, st.sampled_from(forms).map(lambda form: form(values)))


@settings(_SETTINGS, max_examples=300)
@given(t=st.integers(0, 6).flatmap(lambda n: st.tuples(series(n), series(n))), p=_ODD | st.integers(0, 4))
@example(t=([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), p=10**5000)
@example(t=([1.7e308, -1.7e308, 1e308], [0.0, 0.0, 0.0]), p=0)  # deviations beyond float range
@example(t=([1e308, 1.5e308, 1.0], [-1e308, 0.0, 0.0]), p=0)  # an error beyond float range
def test_evaluate_gives_a_report_or_a_joist_error(t, p):
    report = _outcome(lambda: evaluate(*t, p))
    assert isinstance(report, EvalReport) and report.n == len(t[0]) or issubclass(report[0], JoistError)


@st.composite
def centred_or_odd(draw):
    """The input of centred(): up to six floats, a few of them odd values, or an odd value in
    their place (see series())."""
    return draw(st.integers(0, 6).flatmap(series))


def _centred_or_as_is(x):
    """centred(x), or x as it is when centred refuses it with a JoistError."""
    made = _outcome(lambda: centred(x))
    assert isinstance(made, Centred) or issubclass(made[0], JoistError)
    return made if isinstance(made, Centred) else x


@settings(_SETTINGS, max_examples=200)
@given(x=centred_or_odd(), t=centred_or_odd())
@example(x=[1.0, 2.0, 3.0], t=[1.0, 2.0])
@example(x={}, t=[1.0, 2.0])
@example(x=[], t=[1.0, 2.0])
@example(x=[[1.0, 2.0], [3.0]], t=[1.0, 2.0])
@example(x="ab", t=[1.0, 2.0])
@example(x=[[1.0, 2.0], [3.0, 4.0]], t=[1.0, 2.0])
def test_correlation_gives_a_value_or_a_joist_error(x, t):
    """centred() gives a Centred or a JoistError, and correlation() of what it gives, or of
    the input it refused, gives r or a JoistError."""
    r = _outcome(lambda: correlation(_centred_or_as_is(x), _centred_or_as_is(t)))
    assert isinstance(r, float) or issubclass(r[0], JoistError)


@settings(_SETTINGS, max_examples=200)
@given(model=_ODD | models(), ds=_ODD | datasets(max_rows=4))
def test_predict_gives_predictions_or_a_joist_error(model, ds):
    predicted = _outcome(lambda: predict(model, ds))
    assert isinstance(predicted, np.ndarray) and predicted.shape == (len(ds),) or predicted[0] is IntegrityError


_PATHS = st.sampled_from(["valid", None, 5, b"bytes", 2.5, ["a"], np.int64(1)])


@settings(_SETTINGS, max_examples=200)
@given(model=_ODD | models(), ds=_ODD | datasets(max_rows=4), path=_PATHS)
def test_writers_write_or_raise_a_joist_error_and_write_nothing(work, model, ds, path):
    """save_model and write_dataset write the file, or raise a JoistError and write nothing."""
    target = work / "written"
    for write, value in ((save_model, model), (write_dataset, ds)):
        target.unlink(missing_ok=True)
        written = _outcome(lambda: write(value, target if path == "valid" else path))
        assert written is None and path == "valid" and target.exists() or issubclass(written[0], JoistError)
        assert written is None or not target.exists()
    assert not list(work.glob(f"*{TEMP_SUFFIX}"))


# ---------------------------------------------------------------------------
# every command that reads a file, run through cli.main
# ---------------------------------------------------------------------------


def _csv_bytes(ds: Dataset) -> bytes:
    rows = zip(*(getattr(ds, c).tolist() for c in COLUMNS))
    return "".join(f"{line}\n" for line in [CSV_HEADER, *(",".join(map(str, row)) for row in rows)]).encode()


@st.composite
def spec_bytes(draw):
    ranges = {}
    for name in PREDICTORS[ModelKind.JOIST]:
        lo = draw(st.integers(0, 50))
        ranges[name] = [lo, lo + draw(st.integers(0, 50))]
    doc = {
        "true_model": to_json_dict(draw(models())),
        "noise_sigma_us": draw(st.floats(0, 1e3)),
        "count_ranges": ranges,
        "n_blocks": draw(st.integers(1, 40)),
        "seed": draw(st.integers(0, 2**64 - 1)),
    }
    return json.dumps(doc).encode()


@st.composite
def damaged(draw, valid):
    """A valid file, or one truncated, with a non-UTF-8 byte, a long digit run or deep `[` nesting."""
    raw = draw(valid)
    how = draw(st.sampled_from(["valid", "truncated", "non-utf8", "digits", "nested"]))
    if how == "valid":
        return raw
    if how == "truncated":
        return raw[: draw(st.integers(0, len(raw)))]
    if how == "non-utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"])) + raw[at:]
    # A number, or a point anywhere, becomes the digit run or the nesting.
    numbers = [(m.start(), m.end()) for m in re.finditer(rb"\d+", raw)]
    at = draw(st.integers(0, len(raw)))
    start, end = draw(st.sampled_from(numbers)) if numbers and draw(st.booleans()) else (at, at)
    if how == "digits":
        text = b"7" * draw(st.sampled_from([4299, 4300, 4301, 5000]))
    else:
        depth = draw(st.sampled_from([999, 1000, 200_000]) | st.integers(1, 200_000))
        text = b"[" * depth + b"]" * draw(st.sampled_from([0, depth]))
    return raw[:start] + text + raw[end:]


_CLI_NUMBERS = st.sampled_from(["0", "3", "7", "-1", "9" * 4299, "9" * 4301])
_MODEL = json.dumps(
    to_json_dict(
        ModelSpec(ModelKind.JOIST, {"joinsplit": 100.0, "output": 50.0, "transparent_in": 10.0, "spend": 200.0}, 5e3)
    )
).encode()
_SPEC = json.dumps(
    {
        "true_model": json.loads(_MODEL),
        "noise_sigma_us": 20.0,
        "count_ranges": {"joinsplit": [0, 5], "output": [0, 20], "transparent_in": [0, 200], "spend": [0, 10]},
        "n_blocks": 30,
        "seed": 42,
    }
).encode()
_DATA = "".join(
    [f"{CSV_HEADER}\n"]
    + [f"{h},{900 + 37 * h},{h % 3},{h % 4},{h % 2},{h % 5},{h * h % 7},{5000 + 97 * h + h * h % 11}\n"
       for h in range(1, 13)]
).encode()


@settings(deadline=None, max_examples=100)
@example(model=_MODEL, spec=_SPEC, data=_DATA, seed="7", n_fit="6")
@example(model=_MODEL, spec=_SPEC.replace(b"200]", b"7" * 4299 + b"]"), data=_DATA, seed="7", n_fit="6")
@example(model=_MODEL, spec=_SPEC, data=_DATA.replace(b"\n1,", b"\n" + b"ab" * 3000 + b",", 1), seed="7", n_fit="6")
@example(
    model=_MODEL.replace(b"5000.0", b"7" * 4300),
    spec=_SPEC.replace(b"42", b"[" * 200_000),
    data=_DATA.replace(b"\n1,", b"\n" + b"1" * 5000 + b",", 1),
    seed="9" * 4301,
    n_fit="9" * 4299,
)
@example(
    model=_MODEL.replace(b"100.0", b"[" * 200_000),
    spec=_SPEC.replace(b"30", b"3" * 4299),
    data=_DATA.replace(b"\n1,", b"\n" + b"1" * 4301 + b",", 1)[:-9] + b"\xff",
    seed="0",
    n_fit="3",
)
@given(
    model=damaged(models().map(lambda m: json.dumps(to_json_dict(m)).encode())),
    spec=damaged(spec_bytes()),
    data=damaged(datasets().map(_csv_bytes)),
    seed=_CLI_NUMBERS,
    n_fit=_CLI_NUMBERS,
)
def test_every_file_reading_command_exits_with_one_error_line_at_most(model, spec, data, seed, n_fit):
    with tempfile.TemporaryDirectory() as work:
        m, s, d, out = (os.path.join(work, name) for name in ("model.json", "spec.json", "data.csv", "out"))
        for path, raw in ((m, model), (s, spec), (d, data)):
            with open(path, "wb") as fh:
                fh.write(raw)
        for argv in (
            ["synth", "--spec", s, "--out", out],
            ["fit", "--kind", "joist", "--data", d, "--out", out],
            ["fit", "--kind", "block_size", "--data", d, "--out", out, "--seed", seed, "--n-fit", n_fit],
            ["predict", "--model", m, "--data", d, "--out", out],
            ["evaluate", "--model", m, "--data", d],
            ["compare", "--data", d, "--seed", seed, "--n-fit", n_fit, "--baseline-gervais"],
            ["correlate", "--data", d],
            ["composition", "--data", d],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            error_lines = [line for line in err.splitlines() if "error: " in line]  # argparse prefixes the prog
            assert code in range(5), (argv, err)
            assert "Traceback" not in err
            assert len(error_lines) == (code != 0), (argv, err)
            assert max(map(len, err.splitlines()), default=0) <= 500, (argv, err[:1000])


# ---------------------------------------------------------------------------
# node replies, fetched through the library and through cli.main
# ---------------------------------------------------------------------------

_BIG_INTS = st.integers() | st.sampled_from([INT64_MAX, INT64_MAX + 1, -(2**63) - 1, 2**64, 10**4299])
_ANY = _JSON | _BIG_INTS
# Messages that hold line breaks, some of them followed by what looks like another error line.
_MULTILINE = st.lists(st.sampled_from(["out of range", "\n", "\r", "\r\n", "error: ", "x"]), max_size=6).map("".join)
_RPC_ERRORS = _JSON | st.fixed_dictionaries({"code": _ANY, "message": _ANY | _MULTILINE})


def _rarely(draw, strategy, usual):
    """A value drawn from *strategy* one time in four, else *usual*."""
    return draw(strategy) if draw(st.booleans()) and draw(st.booleans()) else usual


@st.composite
def transactions(draw):
    """A decoded transaction record; each list sometimes any JSON value, a shielded list sometimes absent."""
    inputs = st.sampled_from([{"txid": "t0", "vout": 0}, {"coinbase": "00"}]) | _JSON
    tx = {"vin": draw(st.lists(inputs, max_size=3)), "vout": draw(st.lists(_JSON, max_size=3))}
    for key in ("vShieldedSpend", "vShieldedOutput", "vjoinsplit"):
        if draw(st.booleans()):
            tx[key] = [{}] * draw(st.integers(0, 3))
    return {key: _rarely(draw, _ANY, value) for key, value in tx.items()}


@st.composite
def blocks(draw):
    """A block record; its size and transaction list each sometimes absent or any JSON value."""
    block = {"size": draw(st.integers(1, 10**6)), "tx": draw(st.lists(transactions(), min_size=1, max_size=3))}
    block = {key: _rarely(draw, _ANY, value) for key, value in block.items()}
    return _rarely(draw, st.sampled_from([{}, {"size": block["size"]}, {"tx": block["tx"]}]), block)


@st.composite
def replies(draw, results):
    """A stand-in's (status, body, extra_length) reply. Mostly a JSON-RPC reply document
    whose result is drawn from *results*, with HTTP 200 and no error; else with any
    status, an error of any shape, any JSON in place of the document, a damaged body (see
    :func:`damaged`) or a body announced as longer than it is."""
    doc = {"result": draw(results), "error": _rarely(draw, _RPC_ERRORS, None), "id": "joist"}
    body = json.dumps(_rarely(draw, _JSON, doc)).encode()
    body = _rarely(draw, damaged(st.just(body)), body)
    status = _rarely(draw, st.sampled_from([301, 401, 403, 404, 500, 502]) | st.integers(100, 599), 200)
    return status, body, _rarely(draw, st.just(10), 0)


def _reply(result, status=200) -> tuple[int, bytes, int]:
    return status, json.dumps({"result": result, "error": None, "id": "joist"}).encode(), 0


_COINBASE_ONLY = {"size": 285, "tx": [{"vin": [{"coinbase": "00"}], "vout": [{}]}]}


@settings(_SETTINGS, max_examples=200)
@example(hash_reply=_reply("00ab"), block_reply=_reply(_COINBASE_ONLY))
@example(hash_reply=_reply("00ab"), block_reply=(200, b'{"result": {"size": ' + b"7" * 5000 + b', "tx": []}}', 0))
@example(hash_reply=(200, b"[" * 200_000, 0), block_reply=_reply(_COINBASE_ONLY))
@example(hash_reply=_reply("00ab", status=401), block_reply=_reply(_COINBASE_ONLY))
@example(
    hash_reply=(500, json.dumps({"error": {"code": -8, "message": "out of range\nerror: second line"}}).encode(), 0),
    block_reply=_reply(_COINBASE_ONLY),
)
@given(hash_reply=replies(_ANY), block_reply=replies(blocks() | _ANY))
def test_every_node_reply_gives_columns_or_a_joist_error(
    drawn_reply_server, work, monkeypatch, hash_reply, block_reply
):
    url, served = drawn_reply_server
    served[:] = [hash_reply, block_reply]
    outcome = _outcome(lambda: fetch_block_features(RpcEndpoint(url, RPC_USER, RPC_PASS, timeout=10.0), (7, 7)))
    if isinstance(outcome, dict):
        assert list(outcome) == list(COLUMNS[:-1])
        assert all(column.dtype == "int64" and column.shape == (1,) for column in outcome.values())
        expected_code = 0
    else:
        expected_code = 3 if issubclass(outcome[0], RemoteError) else 2
    # The same replies through the fetch command, which exits as the library call ended.
    for name, value in (("JOIST_RPC_URL", url), ("JOIST_RPC_USER", RPC_USER), ("JOIST_RPC_PASS", RPC_PASS)):
        monkeypatch.setenv(name, value)
    served[:] = [hash_reply, block_reply]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["fetch", "--from", "7", "--to", "7", "--out", str(work / "fetched.csv")])
    err = stderr.getvalue()
    assert code == expected_code, (outcome, err)
    assert "Traceback" not in err
    assert sum(line.startswith("error:") for line in err.splitlines()) == (code != 0), err
