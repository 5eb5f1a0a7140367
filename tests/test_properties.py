"""Property tests for the file boundaries: dataset CSV and model JSON."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from joist import Dataset, IntegrityError, JoistError, ModelKind, ModelSpec, load_model, read_dataset, save_model
from joist.cli import _synth_spec_from_json
from joist.features import COLUMNS, COUNT_COLUMNS
from joist.ingest import CSV_HEADER, _dataset, _row_columns, write_dataset
from joist.models import PREDICTORS, from_json_dict

INT64_MAX = 2**63 - 1

_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


@st.composite
def datasets(draw, max_rows=12):
    heights = draw(st.lists(st.integers(-(2**63), INT64_MAX), min_size=1, max_size=max_rows, unique=True))
    n = len(heights)

    def column(lo):
        return draw(st.lists(st.integers(lo, INT64_MAX), min_size=n, max_size=n))

    columns = {"height": heights, "size_bytes": column(1), "verify_time_us": column(1)}
    columns.update({name: column(0) for name in COLUMNS[2:7]})
    return Dataset.from_columns(columns)


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
# bounds, signs, empty and non-ASCII fields.
_FIELDS = st.sampled_from(
    ["+5", " 5", "5 ", "1_000", "", "-0", "007", "-1", "0", "0", "0", "1.5", "0x1f", "\u0663", "\xe9"]
    + [str(v) for v in (INT64_MAX, INT64_MAX + 1, -(2**63), -(2**63) - 1, 10**20)]
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
    raw = bytearray("\n".join(lines).encode() + draw(st.sampled_from([b"\n", b"", b"\n\n"])))
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
def test_fast_reader_agrees_with_row_reader(work, raw):
    path = work / "mutated.csv"
    path.write_bytes(raw)
    fast = _outcome(lambda: read_dataset(path))
    rows = _outcome(lambda: _dataset(_row_columns(raw, path), path))
    assert fast == rows


@st.composite
def files_with_bad_values(draw):
    """A valid dataset CSV with 1-3 cells broken (size <= 0, count < 0 or
    time <= 0), sometimes with shuffled rows, blank lines or CRLF line ends."""
    ds = draw(datasets(max_rows=8))
    table = [[str(v) for v in row] for row in zip(*(getattr(ds, c).tolist() for c in COLUMNS))]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(table))
        column = draw(st.integers(1, len(COLUMNS) - 1))
        highest = -1 if COLUMNS[column] in COUNT_COLUMNS else 0
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
def test_arbitrary_json_gives_a_synth_spec_or_a_joist_error(doc):
    _outcome(lambda: _synth_spec_from_json(doc))


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
