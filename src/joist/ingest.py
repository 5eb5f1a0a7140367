"""Dataset acquisition: node JSON-RPC fetching and the CSV interchange format.

Feature acquisition and time measurement are separate workflows: this module
pulls per-block transaction features from a node, while measured verification
times enter only through dataset files. Times are stored as integer
microseconds so golden files round-trip without float drift.

Dataset CSV format (UTF-8, no quoting; CRLF and CR line ends read as LF):

    height,size_bytes,n_transparent_in,n_transparent_out,n_spend,n_output,n_joinsplit,verify_time_us

with every field plain base-10 digits (an optional leading ``-``, no sign,
space or underscore otherwise) within the int64 range, and rows sorted by
height. A ``-`` parses so that a negative value is reported by the value
rule it breaks: every column is non-negative, and sizes and times positive.
"""

from __future__ import annotations

import io
import math
import re
from collections.abc import Mapping
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .errors import (
    FormatError,
    HeightRangeError,
    IntegrityError,
    JoistError,
    ParseError,
    Record,
    RpcConnectionError,
    is_int,
    shown,
)
from .features import COLUMNS, Dataset, _rows, _stacked, extract_tx_features, first_violation
from .output import _atomic_write, _csv_chunks

CSV_HEADER = ",".join(COLUMNS)

# getblock verbosity level at which the node inlines fully decoded transactions.
_DECODED_TX_VERBOSITY = 2

# A dataset CSV field: plain ASCII digits with an optional minus sign, which
# parses so that a negative value is named by the rule it breaks.
_FIELD = re.compile(r"-?[0-9]+")
_INT64 = np.iinfo(np.int64)
# Most digits an int64 has, after its sign and leading zeros.
_INT64_DIGITS = len(str(_INT64.max))

# Longest reply body a request reads: the JSON of a 2 MB block is about 5 MB.
_MAX_REPLY_BYTES = 64 << 20

# Most concurrent requests a fetch makes: far above what a node's few RPC
# threads serve, and low enough that no value starts unbounded threads.
MAX_PARALLEL = 64

# Longest timeout in seconds a request takes: a socket waits through poll(), whose timeout
# is an int of milliseconds, at most 2**31 - 1 (about 24.8 days); a longer one wraps.
MAX_TIMEOUT_S = 2_147_483

# Heights a fetch has in flight per worker: each window of them is submitted at once, and its
# rows go into the table before the next window starts, so the futures alive stay bounded.
_WINDOW_PER_WORKER = 256


class RpcEndpoint(Record):
    """A node's JSON-RPC endpoint with basic-auth credentials."""

    url: str
    username: str
    password: str
    timeout: float = 30.0
    max_parallel: int = 4

    def __post_init__(self) -> None:
        for name in ("url", "username", "password"):
            if not isinstance(getattr(self, name), str):
                raise IntegrityError(f"{name} must be a str, got {shown(getattr(self, name))}")
        if not (is_int(self.timeout) or isinstance(self.timeout, float)):
            raise IntegrityError(f"timeout must be a number, got {shown(self.timeout)}")
        if not 0 < self.timeout < math.inf:
            raise IntegrityError(f"timeout must be finite and > 0, got {shown(self.timeout)}")
        if self.timeout > MAX_TIMEOUT_S:
            raise IntegrityError(f"timeout must be at most {MAX_TIMEOUT_S} s, got {shown(self.timeout)}")
        if not (is_int(self.max_parallel) and 1 <= self.max_parallel <= MAX_PARALLEL):
            raise IntegrityError(f"max_parallel must be an int in 1..{MAX_PARALLEL}, got {shown(self.max_parallel)}")


def _rpc_caller(endpoint: RpcEndpoint):
    """The endpoint's JSON-RPC 1.0 call, its URL checked and its request parts built once.

    ``call(method, params, error, context)`` sends one request on its own connection, straight to the
    URL's host, and returns the result; a node's error object raises ``error(f"{context}: {message}")``
    and a transport, HTTP or JSON fault RpcConnectionError."""
    # Imported on first use: http.client, ssl and email add ~40 ms to every other command's start.
    import base64
    import http.client
    import json
    from contextlib import closing

    url = endpoint.url
    try:
        parts = urlsplit(url)
        parts.port  # raises for a port that is not a number in 0..65535
    except ValueError as exc:
        raise RpcConnectionError(f"invalid node URL {url!r}: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise RpcConnectionError(f"node URL must start with http:// or https://, got {url!r}")
    if not parts.hostname:
        raise RpcConnectionError(f"node URL has no host: {url!r}")
    target = (parts.path or "/") + (parts.query and "?" + parts.query)
    # RFC 7617: the credentials are UTF-8. A user:pass@ in the URL is not in its hostname, so it is never sent.
    credentials = base64.b64encode(f"{endpoint.username}:{endpoint.password}".encode()).decode()
    headers = {"Content-Type": "application/json", "Authorization": "Basic " + credentials}
    # HTTPSConnection's default context checks the certificate against the system's trust store.
    connect = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
    port = connect.default_port if parts.port is None else parts.port  # given, so that an IPv6 host is not split

    def call(method: str, params: list, error: type[JoistError], context: str):
        payload = json.dumps({"jsonrpc": "1.0", "id": "joist", "method": method, "params": params}).encode()
        try:
            with closing(connect(parts.hostname, port, timeout=endpoint.timeout)) as connection:
                connection.request("POST", target, payload, headers)
                with connection.getresponse() as response:
                    status, raw = response.status, response.read(_MAX_REPLY_BYTES + 1)
                    if len(raw) > _MAX_REPLY_BYTES:
                        raise RpcConnectionError(f"reply from {url} is longer than the {_MAX_REPLY_BYTES}-byte limit")
                    response.read()  # raises IncompleteRead if the body was cut short
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise RpcConnectionError(f"cannot reach node at {url}: {exc}") from exc
        if 300 <= status < 400:
            raise RpcConnectionError(f"redirect (HTTP {status}) from {url}; a fetch follows none")
        if status in (401, 403):
            raise RpcConnectionError(f"authentication rejected by {url}")
        try:
            body = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise RpcConnectionError(f"non-JSON response from {url} (HTTP {status})") from exc
        if not isinstance(body, Mapping):
            raise RpcConnectionError(f"malformed RPC response from {url}")
        node_error = body.get("error")
        if node_error:
            if not isinstance(node_error, Mapping):
                raise RpcConnectionError(f"malformed RPC error from {url}: {node_error!r}")
            raise error(f"{context}: {node_error.get('message', '')}")
        return body.get("result")

    return call


def _block_row(block: Mapping, height: int) -> list[int]:
    """The block's fields in COLUMNS order, without the time: its counts summed over its transactions."""
    txs = block.get("tx")
    if not isinstance(txs, list) or not txs:
        raise ParseError(f'block {height}: missing mandatory list "tx"')
    size = block.get("size")
    if not is_int(size):
        raise ParseError(f'block {height}: missing integer field "size"')
    if size > _INT64.max:
        raise ParseError(f"block {height}: size {size} does not fit the dataset format's int64")
    i = next((i for i, tx in enumerate(txs) if not isinstance(tx, Mapping)), None)
    if i is not None:
        verbosity = f"getblock must return decoded transactions (verbosity {_DECODED_TX_VERBOSITY})"
        raise ParseError(f"block {height}: transaction {i} is not an object; {verbosity}")
    try:
        counts = [sum(c) for c in zip(*map(extract_tx_features, txs))]
    except (ParseError, IntegrityError) as exc:
        raise type(exc)(f"block {height}: {exc}") from exc
    if size < 1:  # the one value rule a row can break: its counts are list lengths, its height >= 0
        raise IntegrityError(f"block {height}: size_bytes must be > 0, got {size}")
    return [height, size, *counts]


def fetch_block_features(endpoint: RpcEndpoint, height_range: tuple[int, int]) -> dict[str, np.ndarray]:
    """Fetch features for every height in the inclusive range, in height order.

    Returns an int64 column for each name in COLUMNS but the time. The endpoint's URL is
    checked once, before any request. Up to ``endpoint.max_parallel`` requests run concurrently,
    over one window of heights at a time; rows fill one table in ascending height order.
    """
    lo, hi = height_range
    if lo > hi:
        raise HeightRangeError(f"empty height range [{lo}, {hi}]")
    if lo < 0:
        raise HeightRangeError(f"height must be >= 0, got {lo}")
    if hi > _INT64.max:
        raise HeightRangeError(f"height must be <= {_INT64.max}, got {shown(hi)}")
    try:  # numpy refuses a table beyond its size limit or the address space before touching memory
        table = np.empty((hi - lo + 1, len(COLUMNS) - 1), dtype=np.int64)
    except (OverflowError, ValueError, MemoryError) as exc:
        raise HeightRangeError(f"height range [{lo}, {hi}] is too large to fetch: {exc}") from exc
    call = _rpc_caller(endpoint)

    def fetch_one(height: int) -> list[int]:
        block_hash = call("getblockhash", [height], HeightRangeError, f"height {height} unknown to node")
        params = [block_hash, _DECODED_TX_VERBOSITY]
        block = call("getblock", params, RpcConnectionError, f"getblock failed for height {height}")
        if not isinstance(block, Mapping):
            raise ParseError(f"block {height}: block record is not an object")
        return _block_row(block, height)

    # Imported on first use: concurrent.futures pulls in logging and adds ~7 ms to every other command's start.
    from concurrent.futures import ThreadPoolExecutor

    window = _WINDOW_PER_WORKER * endpoint.max_parallel
    with ThreadPoolExecutor(max_workers=min(endpoint.max_parallel, len(table))) as pool:
        for i in range(0, len(table), window):  # map cancels a window's queued heights after a failure
            table[i : i + window] = list(pool.map(fetch_one, range(lo, hi + 1)[i : i + window]))
    return dict(zip(COLUMNS[:-1], table.T))


def write_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the dataset in the interchange CSV format, rows sorted by height.

    Raises:
        IntegrityError: if *ds* is not a Dataset or *path* is not a path.
    """
    if not isinstance(ds, Dataset):
        raise IntegrityError(f"dataset must be a Dataset, got {shown(ds)}")
    _atomic_write(path, _csv_chunks(CSV_HEADER, list(ds.table.T)))


def write_features_csv(columns: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write feature columns (every name in COLUMNS but the time) as a CSV with verify_time_us zeroed.

    Rows are sorted stably by height. Such a file fails dataset integrity
    checks on purpose: it is unusable for fitting until measured times are
    merged in.

    Raises:
        IntegrityError: a column is missing or is not n whole numbers within int64, a value
            breaks its column's rule (the first such row in height order is named), or a
            height repeats ("duplicate height h"); nothing is written.
    """
    table = _rows(_stacked(columns, COLUMNS[:-1]))
    _atomic_write(path, _csv_chunks(CSV_HEADER, [*table.T, np.zeros(len(table), dtype=np.int64)]))


def read_dataset(path: str | Path) -> Dataset:
    """Read and validate a dataset CSV; CRLF and CR line ends are read as LF.

    An error names one bad line. Among the lines before the first format
    error, the first with a value error (in file order) is named first, then
    the first whose height repeats an earlier one, and only then the format
    error: a value error is named before a repeated height on an earlier line.

    Raises:
        FormatError: wrong header, invalid UTF-8, or a field that is not a
            plain base-10 integer within int64.
        IntegrityError: duplicate heights, negative heights or counts,
            non-positive times or sizes, or no rows at all.
    """
    raw = Path(path).read_bytes()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid UTF-8: {exc}") from exc
    if b"\r" in raw:  # line ends as text-mode reading gives them: CRLF and CR count as LF
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = raw.partition(b"\n")
    del raw  # the body is the one copy of the file kept
    if head != CSV_HEADER.encode():
        raise FormatError(f'{path}: bad header; expected "{CSV_HEADER}"')
    table = None
    if not body.translate(None, b"0123456789,\n"):
        try:
            table = _loadtxt(body)
            return Dataset._from_table(table)
        except (ValueError, IntegrityError):
            pass  # numpy refused a line, or a value breaks a rule: name the line
    return Dataset._from_table(_line_table(body, path, table))


def _loadtxt(text: bytes) -> np.ndarray:
    """The (n, 8) table of LF-separated rows; numpy skips blank lines and refuses a bad or ragged
    row, and a table of another width is refused here (ValueError), so that its first line is named."""
    if not text.lstrip(b"\n"):  # numpy warns on an input with no rows
        return np.empty((0, len(COLUMNS)), dtype=np.int64)
    table = np.loadtxt(io.BytesIO(text), np.int64, delimiter=",", comments=None, ndmin=2)
    if table.shape[1] != len(COLUMNS):
        raise ValueError(f"rows of {table.shape[1]} fields")
    return table


def _line_table(body: bytes, path, table: np.ndarray | None) -> np.ndarray:
    """The body's table, checked, or the error of its first bad line.

    Unless numpy parsed *table* from the whole body, only the lines that the
    row pattern rejects are parsed field by field; the first that fails is the
    bad line, and the lines before it are read and checked before it is named.
    """
    lines = body.split(b"\n")
    error = None
    if table is None:
        # A row of eight fields below 9 * 10**18, which fit int64, with any leading zeros; each
        # field matches in one way only, so a bad line cannot make the match backtrack without end.
        row = re.compile(rb",".join([rb"-?0*(?:[1-9][0-9]{0,17}|[1-8][0-9]{18}|0)"] * 8))
        for k, line in enumerate(lines):
            if line and not row.fullmatch(line):
                where, parts = f"{path}:{k + 2}", line.decode().split(",")
                try:
                    if len(parts) != len(COLUMNS):
                        raise FormatError(f"{where}: expected {len(COLUMNS)} fields, got {len(parts)}")
                    for part in parts:
                        _parse_field(part, where)
                except FormatError as exc:
                    error, lines = exc, lines[:k]
                    break
        table = _loadtxt(b"\n".join(lines))
    linenos = np.flatnonzero(np.fromiter(map(len, lines), np.int64, len(lines))) + 2
    violation = first_violation(table)
    if violation is not None:
        i, message = violation
        raise IntegrityError(f"{path}:{linenos[i]}: {message}")
    # A stable sort keeps equal heights in file order: each repeat follows its first line.
    order = np.argsort(table[:, 0], kind="stable")
    heights = table[order, 0]
    repeats = np.flatnonzero(heights[1:] == heights[:-1]) + 1
    if repeats.size:
        i = int(order[repeats].min())
        h = table[i, 0]
        k = linenos[order[np.searchsorted(heights, h)]]
        raise IntegrityError(f"{path}:{linenos[i]}: duplicate height {h} (first on line {k})")
    if error is not None:
        raise error
    if not linenos.size:
        raise IntegrityError(f"{path}: dataset file has no rows")
    return table


def _parse_field(part: str, where: str) -> None:
    if not _FIELD.fullmatch(part):
        shown = repr(part) if len(part) <= 20 else f"{part[:20]!r}...({len(part)} characters)"
        raise FormatError(f"{where}: field {shown} is not plain base-10 digits")
    # The value's digits, counted before int() sees them: it refuses over 4,300.
    digits = part.lstrip("-0") or "0"
    value = int(digits) if len(digits) <= _INT64_DIGITS else math.inf
    if not _INT64.min <= (-value if part[0] == "-" else value) <= _INT64.max:
        raise FormatError(f"{where}: field {part} is outside the int64 range")
