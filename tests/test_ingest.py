from __future__ import annotations

import json
import math
import re
from fractions import Fraction
import ssl
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from http.server import ThreadingHTTPServer
from urllib.parse import urlsplit

import numpy as np
import pytest

import joist.ingest
from joist import (
    FormatError,
    HeightRangeError,
    IntegrityError,
    ParseError,
    RpcConnectionError,
    RpcEndpoint,
    fetch_block_features,
    read_dataset,
    write_dataset,
    write_features_csv,
)
from joist.features import COLUMNS
from joist.ingest import CSV_HEADER, MAX_PARALLEL, MAX_TIMEOUT_S

from conftest import (
    BAD_GATEWAY_HEIGHT,
    COINBASE_WITH_INPUT_HEIGHT,
    DEEP_NESTING_HEIGHT,
    NEGATIVE_SIZE_HEIGHT,
    RPC_PASS,
    RPC_USER,
    STRING_ERROR_HEIGHT,
    TRUNCATED_HEIGHT,
    TEST_CHAIN_EXPECTED,
    TXID_ENTRY_HEIGHT,
    ZERO_SIZE_HEIGHT,
    _RpcHandler,
    assert_row_table,
    make_dataset,
)

_ROWS = [
    (100, 285, 0, 2, 0, 0, 0, 1807),
    (101, 1523, 2, 4, 1, 4, 0, 95321),
    (102, 4820, 1, 4, 0, 0, 3, 41002),
]


# -- CSV format -----------------------------------------------------------

def test_round_trip_is_identity(tmp_path):
    ds = make_dataset(_ROWS)
    file = tmp_path / "ds.csv"
    write_dataset(ds, file)
    read = read_dataset(file)
    assert read == ds
    assert_row_table(read)


def test_written_file_is_lf_terminated_ascii_integers(tmp_path):
    path = tmp_path / "ds.csv"
    write_dataset(make_dataset(_ROWS), path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "100,285,0,2,0,0,0,1807"
    assert len(lines) == 1 + len(_ROWS)


def test_rows_written_in_height_order(tmp_path):
    ds = make_dataset([_ROWS[2], _ROWS[0], _ROWS[1]])
    path = tmp_path / "ds.csv"
    write_dataset(ds, path)
    heights = [int(line.split(",")[0]) for line in path.read_text().splitlines()[1:]]
    assert heights == [100, 101, 102]


@pytest.mark.parametrize("time_us", [10.5, 10.0, 2.0**63], ids=["fractional", "whole", "beyond-int64"])
def test_dataset_rejects_float_times(time_us):
    with pytest.raises(IntegrityError, match="verify_time_us must hold integers within int64, got dtype float64"):
        make_dataset([(1, 1000, 0, 0, 0, 0, 0, time_us)])


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text("height,size\n1,2\n")
    with pytest.raises(FormatError) as excinfo:
        read_dataset(path)
    assert CSV_HEADER in str(excinfo.value)


def test_read_rejects_duplicate_height(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(
        CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n100,285,0,2,0,0,0,1807\n"
    )
    with pytest.raises(IntegrityError, match="height 100"):
        read_dataset(path)


def test_read_rejects_nonpositive_time(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,0\n")
    with pytest.raises(IntegrityError):
        read_dataset(path)


def test_read_rejects_non_integer_fields(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1.5\n")
    with pytest.raises(FormatError):
        read_dataset(path)


@pytest.mark.parametrize("n_rows", [1, 2])
@pytest.mark.parametrize("n_fields", [7, 9])
def test_read_rejects_wrong_field_count(tmp_path, n_fields, n_rows):
    # Rows of one width that is not 8 parse as a table; the first line is still named.
    path = tmp_path / "ds.csv"
    rows = [",".join([str(100 + k)] + ["5"] * (n_fields - 1)) for k in range(n_rows)]
    path.write_text("\n".join([CSV_HEADER, *rows, ""]))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: expected 8 fields, got {n_fields}$"):
        read_dataset(path)


def test_read_rejects_header_only_file(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n")
    with pytest.raises(IntegrityError):
        read_dataset(path)


def test_read_sorts_unsorted_rows(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(
        CSV_HEADER + "\n102,4820,1,4,0,0,3,41002\n100,285,0,2,0,0,0,1807\n"
    )
    ds = read_dataset(path)
    assert ds.height.tolist() == [100, 102]
    assert_row_table(ds)


@pytest.mark.parametrize(
    "field", ["1_000", " +5", "+5", "5 ", "\u0665", "0x10", "abc", pytest.param("+" + "9" * 5000, id="+9x5000")]
)
def test_read_rejects_lenient_integer_fields(tmp_path, field):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n100,285,0,2,0,0,0,1807\n101,{field},0,2,0,0,0,1807\n", encoding="utf-8")
    # A field over 20 characters is shown as its first 20, "..." and its length.
    shown = r"'.{1,20}'(\.\.\.\(\d+ characters\))?"
    with pytest.raises(FormatError, match=rf"ds.csv:3: field {shown} is not plain base-10 digits$"):
        read_dataset(path)


@pytest.mark.parametrize(
    "value",
    [
        str(2**63),
        "99999999999999999999",
        str(-(2**63) - 1),
        # More digits than int() converts (4,300).
        pytest.param("9" * 5000, id="5000-digits"),
        pytest.param("-" + "9" * 5000, id="minus-5000-digits"),
    ],
)
def test_read_rejects_values_outside_int64(tmp_path, value):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n100,285,0,2,0,0,0,{value}\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}:2: field {value} is outside the int64 range$"):
        read_dataset(path)


def test_read_accepts_thousands_of_leading_zeros(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0," + "0" * 5000 + "95321\n")
    assert read_dataset(path) == make_dataset(_ROWS[:2])
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,-" + "0" * 5000 + "1\n")
    with pytest.raises(IntegrityError, match=r"ds.csv:3: verify_time_us must be > 0, got -1$"):
        read_dataset(path)


def test_read_accepts_int64_extremes(tmp_path):
    top = 2**63 - 1
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + f"\n{top},{top},{top},{top},{top},{top},{top},{top}\n")
    ds = read_dataset(path)
    assert ds.height.tolist() == [top] and ds.verify_time_us.tolist() == [top]


def test_read_negative_height_is_integrity_error_naming_the_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n-3,285,0,2,0,0,0,1807\n")
    with pytest.raises(IntegrityError, match=r"ds.csv:3: height must be >= 0, got -3$"):
        read_dataset(path)


def test_read_negative_count_is_integrity_error_naming_the_line(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n100,285,0,2,0,0,0,1807\n101,285,0,2,-1,0,0,1807\n")
    with pytest.raises(IntegrityError, match=r"ds.csv:3: n_spend must be >= 0, got -1"):
        read_dataset(path)


@pytest.mark.parametrize(
    "body, error, message",
    [
        # the first line, in file order, whose height already appeared
        ("102,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n102,1,0,0,0,0,0,1\n",
         IntegrityError, "ds.csv:4: duplicate height 100 (first on line 3)"),
        # a value fault is named first, even on a later line
        ("100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n101,1,0,0,-1,0,0,1\n",
         IntegrityError, "ds.csv:4: n_spend must be >= 0"),
        # a duplicate on an earlier line is named before a later format fault
        ("100,1,0,0,0,0,0,1\n100,1,0,0,0,0,0,1\n101,1,0,0,x,0,0,1\n",
         IntegrityError, "ds.csv:3: duplicate height 100 (first on line 2)"),
        ("100,1,0,0,0,0,0,1\n101,1,0,0,x,0,0,1\n100,1,0,0,0,0,0,1\n", FormatError, "ds.csv:3: "),
    ],
    ids=["file-order", "value-fault-first", "before-later-format-fault", "after-earlier-format-fault"],
)
def test_read_duplicate_height_names_its_line(tmp_path, body, error, message):
    path = tmp_path / "ds.csv"
    path.write_text(CSV_HEADER + "\n" + body)
    with pytest.raises(error) as excinfo:
        read_dataset(path)
    assert message in str(excinfo.value)


def test_read_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "ds.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n100,285,0,2,0,0,0,18\xff7\n")
    with pytest.raises(FormatError, match="UTF-8"):
        read_dataset(path)


@pytest.mark.parametrize(
    "body",
    [
        "100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,95321",  # no final LF
        "100,285,0,2,0,0,0,1807\n\n101,1523,2,4,1,4,0,95321\n\n",  # blank lines
        "100,285,0,2,0,0,0,1807\r\n101,1523,2,4,1,4,0,95321\r\n",  # CRLF
        "0100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,95321\n",  # leading zero
    ],
)
def test_read_accepts_other_line_layouts(tmp_path, body):
    path = tmp_path / "ds.csv"
    path.write_bytes((CSV_HEADER + "\n" + body).encode())
    assert read_dataset(path) == make_dataset(_ROWS[:2])


@pytest.mark.parametrize("how", ["crlf", "bad-last-field", "zero-padded"])
def test_invalid_files_are_parsed_field_by_field_only_at_the_bad_line(tmp_path, monkeypatch, how):
    rows = [f"{h},{900 + h},{h % 3},{h % 4},{h % 2},{h % 5},{h % 3},{5000 + h}" for h in range(1, 5001)]
    end = "\r\n" if how == "crlf" else "\n"
    if how == "zero-padded":
        rows = [",".join(field.zfill(25) for field in row.split(",")) for row in rows]
    if how != "crlf":
        rows[-1] += "x"
    path = tmp_path / "ds.csv"
    path.write_bytes((end.join([CSV_HEADER, *rows]) + end).encode())
    calls = []
    parse = joist.ingest._parse_field
    monkeypatch.setattr(joist.ingest, "_parse_field", lambda part, where: calls.append(where) or parse(part, where))
    if how == "crlf":
        assert len(read_dataset(path)) == 5000
    else:
        shown = r"'0{20}'\.\.\.\(26 characters\)" if how == "zero-padded" else r"'\d+x'"
        with pytest.raises(FormatError, match=rf"ds.csv:5001: field {shown} is not plain base-10 digits$"):
            read_dataset(path)
    assert len(calls) <= 16
    assert set(calls) <= {f"{path}:5001"}


def test_write_features_csv_zero_fills_times(tmp_path):
    path = tmp_path / "features.csv"
    columns = {c: [0, 0] for c in COLUMNS[:-1]} | {"height": [102, 101], "size_bytes": [20, 10]}
    write_features_csv(columns, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "101,10,0,0,0,0,0,0"
    assert lines[2] == "102,20,0,0,0,0,0,0"
    # Zero-filled times keep the file out of the fitting pipeline.
    with pytest.raises(IntegrityError):
        read_dataset(path)


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("height", [5, -3], "height -3: height must be >= 0, got -3"),
        ("size_bytes", [10, 0], "height 102: size_bytes must be > 0, got 0"),
    ],
)
def test_write_features_csv_rejects_bad_values_and_writes_nothing(tmp_path, column, values, message):
    columns = {c: [1, 1] for c in COLUMNS[:-1]} | {"height": [101, 102], column: values}
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        write_features_csv(columns, tmp_path / "features.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "column, values, message",
    [
        ("n_spend", [1.7, 2.9], "column n_spend must hold integers within int64, got dtype float64"),
        ("size_bytes", [10], r"column size_bytes has shape \(1,\), expected \(2,\)"),
        ("n_output", [1, 2**64], "column n_output must hold integers within int64, got dtype object"),
        ("n_joinsplit", np.array([1, 2**63], dtype=np.uint64),
         "column n_joinsplit must hold integers within int64, got dtype uint64"),
    ],
    ids=["float", "ragged", "beyond-uint64", "beyond-int64"],
)
def test_write_features_csv_rejects_columns_that_are_not_int64(tmp_path, column, values, message):
    columns = {c: [1, 1] for c in COLUMNS[:-1]} | {"height": [101, 102], column: values}
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        write_features_csv(columns, tmp_path / "features.csv")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("heights", [[5, 5], [7, 5, 9, 5]], ids=["adjacent", "apart"])
def test_write_features_csv_refuses_a_repeated_height_and_writes_nothing(tmp_path, heights):
    columns = {c: [1] * len(heights) for c in COLUMNS[:-1]} | {"height": heights}
    with pytest.raises(IntegrityError, match=r"^duplicate height 5$"):
        write_features_csv(columns, tmp_path / "features.csv")
    assert list(tmp_path.iterdir()) == []


def test_write_features_csv_names_a_missing_column(tmp_path):
    columns = {c: [1, 1] for c in COLUMNS[:-1] if c != "n_joinsplit"} | {"height": [101, 102]}
    with pytest.raises(IntegrityError, match=r"^missing column\(s\): n_joinsplit$"):
        write_features_csv(columns, tmp_path / "features.csv")
    assert list(tmp_path.iterdir()) == []


# -- endpoint invariants ----------------------------------------------------

def test_endpoint_invariants():
    with pytest.raises(IntegrityError):
        RpcEndpoint(url="http://x", username="u", password="p", max_parallel=0)


@pytest.mark.parametrize("timeout", [0, -1, math.inf, math.nan])
def test_endpoint_timeout_must_be_finite_and_positive(timeout):
    with pytest.raises(IntegrityError, match=f"^timeout must be finite and > 0, got {timeout}$"):
        RpcEndpoint(url="http://x", username="u", password="p", timeout=timeout)


@pytest.mark.parametrize(
    "max_parallel", [MAX_PARALLEL + 1, 10**9, 2.5, True, "4", pytest.param(10**5000, id="5001-digits")]
)
def test_endpoint_bounds_parallelism(max_parallel):
    RpcEndpoint(url="http://x", username="u", password="p", max_parallel=MAX_PARALLEL)
    with pytest.raises(IntegrityError, match=f"1..{MAX_PARALLEL}"):
        RpcEndpoint(url="http://x", username="u", password="p", max_parallel=max_parallel)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("url", None, "url must be a str, got None"),
        ("username", b"u", "username must be a str, got b'u'"),
        ("password", 5, "password must be a str, got 5"),
        ("timeout", "1", "timeout must be a number, got '1'"),
        ("timeout", True, "timeout must be a number, got True"),
        ("timeout", Fraction(1, 2), r"timeout must be a number, got Fraction\(1, 2\)"),
        ("timeout", -(10**5000), r"timeout must be finite and > 0, got -10000000000000000000\.\.\.\(5001 digits\)"),
        ("max_parallel", 2.5, "max_parallel must be an int in 1..64, got 2.5"),
        ("max_parallel", 10**5000, r"max_parallel must be an int in 1..64, got 1(0){19}\.\.\.\(5001 digits\)"),
    ],
    ids=["url", "username", "password", "timeout-str", "timeout-bool", "timeout-fraction", "timeout-5001-digits",
         "parallel-float", "parallel-5001-digits"],
)
def test_endpoint_checks_field_types(field, value, message):
    fields = {"url": "http://x", "username": "u", "password": "p", field: value}
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        RpcEndpoint(**fields)


# -- JSON-RPC fetching -------------------------------------------------------

def _endpoint(url, **kwargs):
    params = dict(url=url, username=RPC_USER, password=RPC_PASS, timeout=10.0)
    params.update(kwargs)
    return RpcEndpoint(**params)


def test_endpoint_bounds_the_timeout_by_what_poll_takes(rpc_server):
    # poll() takes an int of milliseconds; a longer timeout would wrap, or overflow time_t.
    assert MAX_TIMEOUT_S * 1000 <= 2**31 - 1
    for timeout in (MAX_TIMEOUT_S, math.nextafter(MAX_TIMEOUT_S, 0)):
        assert fetch_block_features(_endpoint(rpc_server, timeout=timeout), (100, 100))["size_bytes"].tolist() == [285]
    for timeout in (math.nextafter(MAX_TIMEOUT_S, math.inf), 1e10, 10**20):
        with pytest.raises(IntegrityError, match=f"^timeout must be at most {MAX_TIMEOUT_S} s, got {timeout}$"):
            _endpoint(rpc_server, timeout=timeout)


def test_fetch_coinbase_only_block(rpc_server):
    block = fetch_block_features(_endpoint(rpc_server), (100, 100))
    assert list(block) == list(COLUMNS[:-1])
    assert all(col.dtype == np.int64 for col in block.values())
    assert {c: col.tolist() for c, col in block.items()} == {
        "height": [100],
        "size_bytes": [285],
        "n_transparent_in": [0],
        "n_transparent_out": [2],
        "n_spend": [0],
        "n_output": [0],
        "n_joinsplit": [0],
    }


def test_fetch_range_in_order_with_expected_counts(rpc_server):
    blocks = fetch_block_features(_endpoint(rpc_server, max_parallel=3), (100, 102))
    assert blocks["height"].tolist() == [100, 101, 102]
    for i, height in enumerate(blocks["height"].tolist()):
        for field, value in TEST_CHAIN_EXPECTED[height].items():
            assert blocks[field][i] == value, (height, field)


def test_fetch_serial_and_parallel_agree(rpc_server):
    serial = fetch_block_features(_endpoint(rpc_server, max_parallel=1), (100, 102))
    parallel = fetch_block_features(_endpoint(rpc_server, max_parallel=8), (100, 102))
    assert serial.keys() == parallel.keys()
    assert all(np.array_equal(serial[c], parallel[c]) for c in serial)


def test_fetch_checks_the_endpoint_url_once(rpc_server, monkeypatch):
    calls = []

    def counted(url, *args, **kwargs):
        calls.append(url)
        return urlsplit(url, *args, **kwargs)

    monkeypatch.setattr(joist.ingest, "urlsplit", counted)
    assert fetch_block_features(_endpoint(rpc_server, max_parallel=3), (100, 102))["height"].tolist() == [100, 101, 102]
    assert calls == [rpc_server]


def test_fetch_of_one_height_makes_two_requests(drawn_reply_server):
    url, served = drawn_reply_server
    block = {"size": 285, "tx": [{"vin": [{"coinbase": "00"}], "vout": [{}]}]}
    replies = [{"result": "00ab", "error": None, "id": "joist"}, {"result": block, "error": None, "id": "joist"}]
    served[:] = [(200, json.dumps(reply).encode(), 0) for reply in [*replies, replies[0]]]
    assert fetch_block_features(_endpoint(url), (7, 7))["size_bytes"].tolist() == [285]
    assert len(served) == 1  # the third reply is left unread
    served.clear()


# A two-transaction block: a coinbase with one output, and a spend of one input into two outputs.
_STUB_BLOCK = {"size": 285, "tx": [{"vin": [{"coinbase": "00"}], "vout": [{}]}, {"vin": [{}], "vout": [{}, {}]}]}


def _answering_at_once(faults=None):
    """A stand-in for ingest._rpc_caller whose node answers at once with _STUB_BLOCK at every
    height; for a height in *faults*, getblock raises that exception or gives a block of that size."""

    def caller(endpoint):
        def call(method, params, error, context):
            if method == "getblockhash":
                return params[0]
            fault = (faults or {}).get(params[0])
            if isinstance(fault, Exception):
                raise fault
            return _STUB_BLOCK if fault is None else {**_STUB_BLOCK, "size": fault}

        return call

    return caller


@pytest.fixture
def futures(monkeypatch):
    """How many futures each ThreadPoolExecutor submits from now on, the most submitted and not
    yet done at once, and the most still referenced at once."""
    alive, pending = weakref.WeakSet(), set()
    counts = {"submitted": 0, "most_pending": 0, "most_alive": 0}
    submit = ThreadPoolExecutor.submit

    def counted(self, *args, **kwargs):
        future = submit(self, *args, **kwargs)
        alive.add(future)
        pending.add(future)
        future.add_done_callback(pending.discard)
        counts["submitted"] += 1
        counts["most_alive"] = max(counts["most_alive"], len(alive))
        # A done callback runs just after the future is done, so the set may still hold a few
        # done futures: count the ones that are not done whenever it reaches a new size.
        if len(pending) > counts["most_pending"]:
            counts["most_pending"] = max(counts["most_pending"], sum(not f.done() for f in list(pending)))
        return future

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return counts


def test_fetch_keeps_at_most_one_window_of_futures_alive(monkeypatch, futures):
    monkeypatch.setattr(joist.ingest, "_rpc_caller", _answering_at_once())
    blocks = fetch_block_features(_endpoint("http://stub", max_parallel=4), (0, 19_999))
    assert blocks["height"].tolist() == list(range(20_000))
    expected = {"size_bytes": 285, "n_transparent_in": 1, "n_transparent_out": 3, "n_spend": 0, "n_output": 0}
    assert all((blocks[name] == value).all() for name, value in expected.items())
    assert futures["submitted"] == 20_000
    window = joist.ingest._WINDOW_PER_WORKER * 4
    assert 0 < futures["most_pending"] <= window
    # A worker sets a future's result and only then drops its reference to it, so the next
    # window can be submitted while each of the 4 workers still holds a done future.
    assert futures["most_alive"] <= window + 4


def test_fetch_stops_within_the_window_of_a_failure(monkeypatch, futures):
    unknown = HeightRangeError("height 5 unknown to node: Block height out of range")
    monkeypatch.setattr(joist.ingest, "_rpc_caller", _answering_at_once({5: unknown}))
    with pytest.raises(HeightRangeError, match="^height 5 unknown to node"):
        fetch_block_features(_endpoint("http://stub", max_parallel=4), (0, 99_999))
    assert futures["submitted"] <= joist.ingest._WINDOW_PER_WORKER * 4


def test_fetch_raises_the_first_failing_height_of_a_window(monkeypatch):
    refused = RpcConnectionError("cannot reach node at http://stub: connection refused")
    monkeypatch.setattr(joist.ingest, "_rpc_caller", _answering_at_once({5: 0, 7: refused}))
    with pytest.raises(IntegrityError, match=r"^block 5: size_bytes must be > 0, got 0$"):
        fetch_block_features(_endpoint("http://stub", max_parallel=4), (0, 99))


@pytest.mark.parametrize(
    "hi, message",
    [
        (2**63 - 1, r"height range \[0, 9223372036854775807\] is too large to fetch: "),
        (2**63, r"height must be <= 9223372036854775807, got 9223372036854775808$"),
        (10**19, r"height must be <= 9223372036854775807, got 10000000000000000000$"),
    ],
)
def test_fetch_refuses_a_range_too_large_to_hold_before_any_request(closed_port_url, hi, message):
    # A request to the closed port would raise RpcConnectionError instead.
    with pytest.raises(HeightRangeError, match=f"^{message}"):
        fetch_block_features(_endpoint(closed_port_url), (0, hi))


def test_fetch_block_missing_size_field(rpc_server):
    with pytest.raises(ParseError, match="size"):
        fetch_block_features(_endpoint(rpc_server), (103, 103))


@pytest.mark.parametrize("height, size", [(ZERO_SIZE_HEIGHT, 0), (NEGATIVE_SIZE_HEIGHT, -285)])
def test_fetch_nonpositive_block_size_names_the_block(rpc_server, height, size):
    with pytest.raises(IntegrityError, match=rf"^block {height}: size_bytes must be > 0, got {size}$"):
        fetch_block_features(_endpoint(rpc_server), (height, height))


def test_fetch_coinbase_with_an_input_names_the_block(rpc_server):
    h = COINBASE_WITH_INPUT_HEIGHT
    with pytest.raises(IntegrityError, match=rf"^block {h}: a coinbase transaction has no countable"):
        fetch_block_features(_endpoint(rpc_server), (h, h))


def test_fetch_transaction_that_is_not_an_object_is_a_parse_error(rpc_server):
    h = TXID_ENTRY_HEIGHT
    message = rf"^block {h}: transaction 1 is not an object; getblock must return decoded transactions \(verbosity 2\)$"
    with pytest.raises(ParseError, match=message):
        fetch_block_features(_endpoint(rpc_server), (h, h))


def test_fetch_unknown_height(rpc_server):
    with pytest.raises(HeightRangeError, match="200"):
        fetch_block_features(_endpoint(rpc_server), (200, 201))


def test_fetch_empty_range(rpc_server):
    with pytest.raises(HeightRangeError):
        fetch_block_features(_endpoint(rpc_server), (102, 100))


def test_fetch_negative_height_makes_no_request(closed_port_url):
    # A request to the closed port would raise RpcConnectionError instead.
    with pytest.raises(HeightRangeError, match=r"^height must be >= 0, got -1$"):
        fetch_block_features(_endpoint(closed_port_url), (-1, 5))


def test_fetch_bad_credentials(rpc_server):
    endpoint = _endpoint(rpc_server, password="wrong")
    with pytest.raises(RpcConnectionError):
        fetch_block_features(endpoint, (100, 100))


def test_fetch_non_object_rpc_error(rpc_server):
    with pytest.raises(RpcConnectionError, match="malformed RPC error"):
        fetch_block_features(_endpoint(rpc_server), (STRING_ERROR_HEIGHT, STRING_ERROR_HEIGHT))


def test_block_size_beyond_int64_is_a_parse_error():
    from joist.ingest import _block_row

    record = {"size": 2**63, "tx": [{"vin": [{"coinbase": "00"}], "vout": []}]}
    with pytest.raises(ParseError, match="int64"):
        _block_row(record, 7)


def test_fetch_unreachable_node(closed_port_url):
    endpoint = _endpoint(closed_port_url, timeout=2.0)
    with pytest.raises(RpcConnectionError):
        fetch_block_features(endpoint, (100, 100))


@pytest.mark.parametrize(
    "url, message",
    [
        ("file:///etc/hostname", "http:// or https://"),
        ("data:application/json,{}", "http:// or https://"),
        ("ftp://127.0.0.1/", "http:// or https://"),
        ("localhost:8232", "http:// or https://"),
        ("http://127.0.0.1:notaport/", "invalid node URL .*notaport"),
        ("http://", "node URL has no host: 'http://'"),
        ("http://:8232", "node URL has no host: 'http://:8232'"),
    ],
)
def test_fetch_rejects_unusable_urls(url, message):
    with pytest.raises(RpcConnectionError, match=message):
        fetch_block_features(_endpoint(url), (100, 100))


@pytest.mark.parametrize("status", [301, 302, 307, 308])
def test_fetch_redirect_is_connection_error(drawn_reply_server, status):
    url, served = drawn_reply_server
    served[:] = [(status, b'{"result": "blockhash100", "error": null, "id": "joist"}', 0)]
    with pytest.raises(RpcConnectionError, match=rf"^redirect \(HTTP {status}\) from {url}; a fetch follows none$"):
        fetch_block_features(_endpoint(url), (100, 100))


def test_fetch_truncated_body_is_connection_error(rpc_server):
    with pytest.raises(RpcConnectionError, match="cannot reach node"):
        fetch_block_features(_endpoint(rpc_server), (TRUNCATED_HEIGHT, TRUNCATED_HEIGHT))


def test_fetch_deeply_nested_reply_is_connection_error(rpc_server):
    with pytest.raises(RpcConnectionError, match="non-JSON response .*HTTP 200"):
        fetch_block_features(_endpoint(rpc_server), (DEEP_NESTING_HEIGHT, DEEP_NESTING_HEIGHT))


def test_fetch_reply_longer_than_the_limit_is_connection_error(rpc_server, monkeypatch):
    monkeypatch.setattr(joist.ingest, "_MAX_REPLY_BYTES", 100_000)  # the reply is 200,000 bytes
    with pytest.raises(RpcConnectionError, match="longer than the 100000-byte limit"):
        fetch_block_features(_endpoint(rpc_server), (DEEP_NESTING_HEIGHT, DEEP_NESTING_HEIGHT))


def test_fetch_non_json_error_page_names_the_status(rpc_server):
    with pytest.raises(RpcConnectionError, match="non-JSON response .*HTTP 502"):
        fetch_block_features(_endpoint(rpc_server), (BAD_GATEWAY_HEIGHT, BAD_GATEWAY_HEIGHT))


def test_fetch_ignores_credentials_in_the_url(rpc_server):
    url = rpc_server.replace("http://", "http://mallory:guess@")
    assert fetch_block_features(_endpoint(url), (100, 100))["size_bytes"].tolist() == [285]


def _self_signed_cert(tmp_path):
    """PEM files of a self-signed certificate for 127.0.0.1 and its key."""
    pytest.importorskip("cryptography")
    import datetime
    import ipaddress

    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    ski = x509.SubjectKeyIdentifier.from_public_key(key.public_key())
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - datetime.timedelta(days=1))
        .not_valid_after(now + datetime.timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]), False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), True)
        .add_extension(ski, False)
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_subject_key_identifier(ski), False)
        .sign(key, hashes.SHA256())
    )
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    return cert_path, key_path


@pytest.fixture()
def tls_rpc_server(tmp_path):
    """The node stand-in behind TLS with a self-signed certificate; yields (URL, cert path)."""
    cert_path, key_path = _self_signed_cert(tmp_path)
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RpcHandler)
    server.socket = context.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"https://127.0.0.1:{server.server_address[1]}", cert_path
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


def test_fetch_https_rejects_untrusted_certificate(tls_rpc_server):
    url, _ = tls_rpc_server
    with pytest.raises(RpcConnectionError, match="CERTIFICATE_VERIFY_FAILED"):
        fetch_block_features(_endpoint(url, timeout=5.0), (100, 100))


def test_fetch_https_trusts_the_default_verify_paths(tls_rpc_server, monkeypatch):
    url, cert_path = tls_rpc_server
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
    assert fetch_block_features(_endpoint(url, timeout=5.0), (100, 100))["size_bytes"].tolist() == [285]



@pytest.mark.parametrize(
    "ds, path, message",
    [
        ({"height": [1]}, "out.csv", "dataset must be a Dataset, got {'height': [1]}"),
        (make_dataset(_ROWS), None, "path must be a str or os.PathLike, got None"),
        (make_dataset(_ROWS), b"out.csv", "path must be a str or os.PathLike, got b'out.csv'"),
    ],
    ids=["mapping", "none", "bytes"],
)
def test_write_dataset_refuses_wrong_argument_types(tmp_path, monkeypatch, ds, path, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(IntegrityError) as excinfo:
        write_dataset(ds, path)
    assert str(excinfo.value) == message
    assert list(tmp_path.iterdir()) == []
