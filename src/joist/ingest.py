"""Dataset acquisition: node JSON-RPC fetching and the CSV interchange format.

Feature acquisition and time measurement are separate workflows: this module
pulls per-block transaction features from a node, while measured verification
times enter only through dataset files. Times are stored as integer
microseconds so golden files round-trip without float drift.

Dataset CSV format (UTF-8, LF line endings, no quoting):

    height,size_bytes,n_transparent_in,n_transparent_out,n_spend,n_output,n_joinsplit,verify_time_us

with every field plain base-10 digits (an optional leading ``-``, no sign,
space or underscore otherwise) within the int64 range, and rows sorted by
height.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping
from urllib.parse import urlsplit

import numpy as np

from .errors import (
    FormatError,
    HeightRangeError,
    IntegrityError,
    ParseError,
    RpcConnectionError,
)
from .features import COLUMNS, Dataset, _check_fields, extract_tx_features, first_violation

CSV_HEADER = ",".join(COLUMNS)

# getblock verbosity level at which the node inlines fully decoded transactions.
_DECODED_TX_VERBOSITY = 2

# A dataset CSV field: plain ASCII digits with an optional minus sign.
_FIELD = re.compile(r"-?[0-9]+")
_INT64 = np.iinfo(np.int64)

# Most concurrent requests a fetch makes: far above what a node's few RPC
# threads serve, and low enough that no value starts unbounded threads.
MAX_PARALLEL = 64


@dataclass(frozen=True)
class RpcEndpoint:
    """A node's JSON-RPC endpoint with basic-auth credentials."""

    url: str
    username: str
    password: str
    timeout: float = 30.0
    max_parallel: int = 4

    def __post_init__(self) -> None:
        if not 0 < self.timeout < math.inf:
            raise IntegrityError(f"timeout must be finite and > 0, got {self.timeout}")
        if not 1 <= self.max_parallel <= MAX_PARALLEL:
            raise IntegrityError(f"max_parallel must be in 1..{MAX_PARALLEL}, got {self.max_parallel}")


def _rpc_call(endpoint: RpcEndpoint, method: str, params: list):
    """One JSON-RPC 1.0 request; returns the result or raises."""
    # Imported on first use: http.client, ssl and email add ~40 ms to every other command's start.
    import base64
    import http.client
    import urllib.error
    import urllib.request

    url = endpoint.url
    try:
        parts = urlsplit(url)
        parts.port  # raises for a port that is not a number in 0..65535
    except ValueError as exc:
        raise RpcConnectionError(f"invalid node URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise RpcConnectionError(f"node URL must start with http:// or https://, got {url!r}")
    if "@" in parts.netloc:  # user:pass@ in the URL is dropped; the endpoint's credentials are sent
        parts = parts._replace(netloc=parts.netloc.rpartition("@")[2])
    payload = {"jsonrpc": "1.0", "id": "joist", "method": method, "params": params}
    request = urllib.request.Request(
        parts.geturl(), data=json.dumps(payload).encode(), headers={"Content-Type": "application/json"}
    )
    # RFC 7617: the credentials are UTF-8; unredirected, so a redirect never carries them.
    credentials = base64.b64encode(f"{endpoint.username}:{endpoint.password}".encode()).decode()
    request.add_unredirected_header("Authorization", "Basic " + credentials)
    try:
        try:
            response = urllib.request.urlopen(request, timeout=endpoint.timeout)
        except urllib.error.HTTPError as exc:
            response = exc  # an HTTP error status still carries the node's reply
        with response:
            status, raw = response.status, response.read()
    except (OSError, ValueError, http.client.HTTPException) as exc:
        raise RpcConnectionError(f"cannot reach node at {url}: {exc}") from exc
    if status in (401, 403):
        raise RpcConnectionError(f"authentication rejected by {url}")
    try:
        body = json.loads(raw)
    except ValueError as exc:
        raise RpcConnectionError(f"non-JSON response from {url} (HTTP {status})") from exc
    if not isinstance(body, Mapping):
        raise RpcConnectionError(f"malformed RPC response from {url}")
    error = body.get("error")
    if error:
        if not isinstance(error, Mapping):
            raise RpcConnectionError(f"malformed RPC error from {url}: {error!r}")
        # Callers translate method-specific errors; anything else is remote trouble.
        raise _RpcServerError(error.get("code"), error.get("message", ""))
    return body.get("result")


class _RpcServerError(Exception):
    def __init__(self, code, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _block_row(block: Mapping, height: int) -> list[int]:
    """The block's fields in COLUMNS order, without the time: its counts summed over its transactions."""
    txs = block.get("tx")
    if not isinstance(txs, list) or not txs:
        raise ParseError(f'block {height}: missing mandatory list "tx"')
    size = block.get("size")
    if not isinstance(size, int) or isinstance(size, bool):
        raise ParseError(f'block {height}: missing integer field "size"')
    if size > _INT64.max:
        raise ParseError(f"block {height}: size {size} does not fit the dataset format's int64")
    try:
        counts = [sum(c) for c in zip(*map(extract_tx_features, txs))]
        _check_fields({"size_bytes": size})
    except (ParseError, IntegrityError) as exc:
        raise type(exc)(f"block {height}: {exc}") from exc
    return [height, size, *counts]


def _fetch_one(endpoint: RpcEndpoint, height: int) -> list[int]:
    try:
        block_hash = _rpc_call(endpoint, "getblockhash", [height])
    except _RpcServerError as exc:
        raise HeightRangeError(f"height {height} unknown to node: {exc.message}") from exc
    try:
        block = _rpc_call(endpoint, "getblock", [block_hash, _DECODED_TX_VERBOSITY])
    except _RpcServerError as exc:
        raise RpcConnectionError(f"getblock failed for height {height}: {exc.message}") from exc
    if not isinstance(block, Mapping):
        raise ParseError(f"block {height}: block record is not an object")
    return _block_row(block, height)


def fetch_block_features(endpoint: RpcEndpoint, height_range: tuple[int, int]) -> dict[str, np.ndarray]:
    """Fetch features for every height in the inclusive range, in height order.

    Returns an int64 column for each name in COLUMNS but the time. Up to
    ``endpoint.max_parallel`` requests run concurrently; rows are assembled
    in ascending height order regardless of completion order.
    """
    lo, hi = height_range
    if lo > hi:
        raise HeightRangeError(f"empty height range [{lo}, {hi}]")
    heights = range(lo, hi + 1)
    # Imported on first use: concurrent.futures pulls in logging and adds ~7 ms to every other command's start.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(endpoint.max_parallel, len(heights))) as pool:
        table = np.array(list(pool.map(lambda h: _fetch_one(endpoint, h), heights)), dtype=np.int64)
    return dict(zip(COLUMNS[:-1], table.T))


def _write_csv(path: str | Path, rows: np.ndarray) -> None:
    """Write an (n, 8) int64 array as the interchange CSV, header first."""
    line = ",".join(["%d"] * len(COLUMNS)) + "\n"
    body = (line * len(rows)) % tuple(rows.ravel().tolist())
    Path(path).write_text(CSV_HEADER + "\n" + body, encoding="utf-8", newline="\n")


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the dataset in the interchange CSV format, rows sorted by height.

    The format stores integer microseconds; a dataset holding fractional
    in-memory times cannot be serialized.
    """
    t = ds.verify_time_us
    if t.dtype.kind == "f":
        bad = np.flatnonzero((t != np.trunc(t)) | (t >= 2.0**63))
        if bad.size:
            i = bad[0]
            raise FormatError(
                f"height {ds.height[i]}: verify_time_us {t[i]} is not an integer within int64; "
                "the CSV format stores whole microseconds"
            )
        t = t.astype(np.int64)
    _write_csv(path, np.column_stack([getattr(ds, c) for c in COLUMNS[:-1]] + [t]))


def write_features_csv(columns: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write feature columns (every name in COLUMNS but the time) as a CSV with verify_time_us zeroed.

    Rows are sorted stably by height. Such a file fails dataset integrity
    checks on purpose: it is unusable for fitting until measured times are
    merged in.
    """
    order = np.argsort(np.asarray(columns["height"]), kind="stable")
    table = [np.asarray(columns[c], dtype=np.int64)[order] for c in COLUMNS[:-1]]
    _write_csv(path, np.column_stack(table + [np.zeros(len(order), dtype=np.int64)]))


def read_dataset(path: str | Path) -> Dataset:
    """Read and validate a dataset CSV.

    A well-formed file is parsed as a whole by numpy. Any file that is not,
    or whose values break an invariant, is re-read row by row, so the error
    names the offending line.

    Raises:
        FormatError: wrong header, invalid UTF-8, or a field that is not a
            plain base-10 integer within int64.
        IntegrityError: duplicate heights, non-positive times or sizes,
            negative counts, or no rows at all.
    """
    raw = Path(path).read_bytes()
    columns = _fast_columns(raw)
    if columns is not None:
        try:
            return _dataset(columns, path)
        except IntegrityError:
            pass
    return _dataset(_row_columns(raw, path), path)


def _dataset(columns: dict[str, np.ndarray], path) -> Dataset:
    if len(columns["height"]) == 0:
        raise IntegrityError(f"{path}: dataset file has no rows")
    return Dataset.from_columns(columns)


def _fast_columns(raw: bytes) -> dict[str, np.ndarray] | None:
    """Columns of a file of plain digits, commas and LFs, or None to use the row reader.

    numpy rejects empty fields, ragged rows and values outside int64, and
    skips blank lines as the row reader does.
    """
    header = CSV_HEADER.encode() + b"\n"
    body = raw[len(header):]
    if not raw.startswith(header) or body.translate(None, b"0123456789,\n"):
        return None
    if not body.strip(b"\n"):
        return {c: np.empty(0, dtype=np.int64) for c in COLUMNS}
    try:
        table = np.loadtxt(io.BytesIO(body), dtype=np.int64, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return dict(zip(COLUMNS, table.T)) if table.shape[1] == len(COLUMNS) else None


def _row_columns(raw: bytes, path) -> dict[str, np.ndarray]:
    """Parse the file one row at a time and check its values, naming the first bad line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc
    # Line ends as text-mode reading gives them: CRLF and CR count as LF.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0] != CSV_HEADER:
        raise FormatError(f'{path}: bad header; expected "{CSV_HEADER}"')
    rows, linenos = [], []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if line == "":
                continue
            parts = line.split(",")
            if len(parts) != len(COLUMNS):
                raise FormatError(f"{path}:{lineno}: expected {len(COLUMNS)} fields, got {len(parts)}")
            rows.append([_parse_field(part, f"{path}:{lineno}") for part in parts])
            linenos.append(lineno)
    except FormatError:
        _checked_columns(rows, linenos, path)  # a bad value on an earlier line is named first
        raise
    return _checked_columns(rows, linenos, path)


def _checked_columns(rows: list[list[int]], linenos: list[int], path) -> dict[str, np.ndarray]:
    table = np.array(rows, dtype=np.int64).reshape(-1, len(COLUMNS))
    columns = dict(zip(COLUMNS, table.T))
    violation = first_violation(columns)
    if violation is not None:
        i, message = violation
        raise IntegrityError(f"{path}:{linenos[i]}: {message}")
    # A stable sort keeps equal heights in file order: each repeat follows its first line.
    order = np.argsort(columns["height"], kind="stable")
    heights = columns["height"][order]
    repeats = np.flatnonzero(heights[1:] == heights[:-1]) + 1
    if repeats.size:
        i = int(order[repeats].min())
        h = columns["height"][i]
        k = linenos[order[np.searchsorted(heights, h)]]
        raise IntegrityError(f"{path}:{linenos[i]}: duplicate height {h} (first on line {k})")
    return columns


def _parse_field(part: str, where: str) -> int:
    if _FIELD.fullmatch(part):
        value = int(part)
        if _INT64.min <= value <= _INT64.max:
            return value
        raise FormatError(f"{where}: field {part} is outside the int64 range")
    try:
        int(part)
    except ValueError as exc:
        raise FormatError(f"{where}: non-integer field: {exc}") from exc
    raise FormatError(f"{where}: field {part!r} is not plain base-10 digits")
