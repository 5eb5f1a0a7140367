"""Shared test material: reference parameter sets, naive statistics oracles,
dataset builders, and a local JSON-RPC node stand-in."""

from __future__ import annotations

import base64
import json
import math
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Mapping

import pytest

from joist import Dataset, ModelKind, ModelSpec, SynthSpec, predict
from joist.features import COLUMNS, FEATURE_COLUMNS
from joist.models import PREDICTORS

_TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Under tests/ only, make a leaked file or socket, or a floating-point
    overflow, invalid operation or deprecation warning, fail its test."""
    for item in items:
        if item.path.resolve().is_relative_to(_TESTS_DIR):
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
            item.add_marker(pytest.mark.filterwarnings("error::DeprecationWarning"))


# ---------------------------------------------------------------------------
# Published reference parametrizations (benchmark label -> coefficients).
# Frozen here as goldens for load-and-predict checks; they are not fit targets.
# ---------------------------------------------------------------------------

REFERENCE_JOIST = {
    "hdd_5k": ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 10999.119, "output": 9862.146, "transparent_in": 246.312, "spend": 39760.496},
        13209.042,
    ),
    "ssd_5k": ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 5359.094, "output": 5726.675, "transparent_in": 61.411, "spend": 16912.591},
        4468.949,
    ),
    "hdd_20k": ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 10784.519, "output": 12607.155, "transparent_in": 139.676, "spend": 25227.674},
        21760.549,
    ),
    "ssd_20k": ModelSpec(
        ModelKind.JOIST,
        {"joinsplit": 5349.659, "output": 5782.956, "transparent_in": 40.339, "spend": 12067.658},
        5928.899,
    ),
}

REFERENCE_BLOCK_SIZE = {
    "hdd_5k": ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 4.345}, 8784.760),
    "ssd_5k": ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 1.717}, 3584.715),
    "hdd_20k": ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 2.232}, 28445.511),
    "ssd_20k": ModelSpec(ModelKind.BLOCK_SIZE, {"byte": 0.910}, 9647.374),
}

# Hand-derived expected predictions (exact decimal arithmetic, done offline)
# for the fixture block with counts (n_joinsplit, n_output, n_transparent_in,
# n_spend) = (1, 2, 3, 4), and for a 2000-byte block respectively.
EXPECTED_JOIST_1234 = {
    "hdd_5k": 203713.373,
    "ssd_5k": 89115.990,
    "hdd_20k": 159089.102,
    "ssd_20k": 71236.119,
}
EXPECTED_BLOCK_SIZE_2000B = {
    "hdd_5k": 17474.760,
    "ssd_5k": 7018.715,
    "hdd_20k": 32909.511,
    "ssd_20k": 11467.374,
}


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def predict_block(
    model: ModelSpec,
    height=1,
    size_bytes=1000,
    n_transparent_in=0,
    n_transparent_out=0,
    n_spend=0,
    n_output=0,
    n_joinsplit=0,
) -> float:
    """The model's prediction for one block: predict() on a one-row dataset (time 1)."""
    row = (height, size_bytes, n_transparent_in, n_transparent_out, n_spend, n_output, n_joinsplit, 1)
    return float(predict(model, make_dataset([row]))[0])


def make_dataset(rows) -> Dataset:
    """Rows of (height, size, n_in, n_out, n_spend, n_output, n_js, time_us), in any height order."""
    return Dataset.from_columns({c: [row[i] for row in rows] for i, c in enumerate(COLUMNS)})


def rows(ds: Dataset) -> list[tuple]:
    """The dataset's rows as tuples in COLUMNS order, the inverse of make_dataset.

    ``predict_block(model, *row[:-1])`` gives a row's prediction.
    """
    return list(zip(*(getattr(ds, c).tolist() for c in COLUMNS)))


def predictor_vector(kind: ModelKind, block: Mapping[str, int]) -> list[float]:
    """The block's predictor values, from its column -> value mapping, in the
    fixed per-kind order (per-row reference)."""
    return [float(block[FEATURE_COLUMNS[name]]) for name in PREDICTORS[kind]]


def default_synth_spec(**overrides) -> SynthSpec:
    """A well-behaved synthetic recipe; override fields per test."""
    params = dict(
        true_model=ModelSpec(
            ModelKind.JOIST,
            {"joinsplit": 5359.0, "output": 5727.0, "transparent_in": 61.0, "spend": 16913.0},
            4469.0,
        ),
        noise_sigma_us=0.0,
        count_ranges={
            "joinsplit": (0, 5),
            "output": (0, 20),
            "transparent_in": (0, 200),
            "spend": (0, 10),
        },
        n_blocks=1000,
        seed=42,
    )
    params.update(overrides)
    return SynthSpec(**params)


# ---------------------------------------------------------------------------
# Scalar draws: one SplitMix64 output at a time, the reference for the block
# derivations in joist.rng and the per-row loops that use them.
# ---------------------------------------------------------------------------

def next_below(rng, n: int) -> int:
    """Uniform-ish integer in [0, n)."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return rng.next_uint64() % n


def next_int(rng, lo: int, hi: int) -> int:
    """Uniform-ish integer in the inclusive range [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    return lo + next_below(rng, hi - lo + 1)


def next_unit(rng) -> float:
    """Float in (0, 1], with 53 bits of resolution."""
    return ((rng.next_uint64() >> 11) + 1) * 2.0**-53


def next_gaussian(rng) -> float:
    """Standard normal draw (Box-Muller, cosine branch; two raw draws)."""
    u1 = next_unit(rng)
    u2 = next_unit(rng)
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


# ---------------------------------------------------------------------------
# Naive statistics oracles: single-pass plain-Python reimplementations,
# independent of the fsum-based two-pass code under test.
# ---------------------------------------------------------------------------

def naive_mean(xs):
    return sum(xs) / len(xs)


def naive_pearson(x, t):
    xm, tm = naive_mean(x), naive_mean(t)
    num = sum((a - xm) * (b - tm) for a, b in zip(x, t))
    den = (sum((a - xm) ** 2 for a in x) ** 0.5) * (sum((b - tm) ** 2 for b in t) ** 0.5)
    return num / den


def naive_mae(t, t_hat):
    return sum(abs(a - b) for a, b in zip(t, t_hat)) / len(t)


def naive_emr(t, t_hat):
    return naive_mae(t, t_hat) / naive_mean(t)


def naive_r_squared(t, t_hat):
    tm = naive_mean(t)
    ss_res = sum((a - b) ** 2 for a, b in zip(t, t_hat))
    ss_tot = sum((a - tm) ** 2 for a in t)
    return 1 - ss_res / ss_tot


def naive_adjusted_r_squared(r2, n, p):
    return 1 - (1 - r2) * (n - 1) / (n - p - 1)


def rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# Local JSON-RPC node stand-in
# ---------------------------------------------------------------------------

RPC_USER = "alice"
RPC_PASS = "s3cret"


def _coinbase_tx(n_out=1):
    return {"vin": [{"coinbase": "04deadbeef"}], "vout": [{"n": i} for i in range(n_out)]}


def _plain_tx(n_in=0, n_out=0, n_spend=0, n_output=0, n_js=0):
    tx = {
        "vin": [{"txid": f"t{i:02d}", "vout": 0} for i in range(n_in)],
        "vout": [{"n": i} for i in range(n_out)],
    }
    if n_spend:
        tx["vShieldedSpend"] = [{} for _ in range(n_spend)]
    if n_output:
        tx["vShieldedOutput"] = [{} for _ in range(n_output)]
    if n_js:
        tx["vjoinsplit"] = [{} for _ in range(n_js)]
    return tx


# getblockhash for STRING_ERROR_HEIGHT answers with an "error" that is a bare
# string rather than an object.
STRING_ERROR_HEIGHT = 104
# getblockhash for TRUNCATED_HEIGHT announces a longer body than it sends and
# closes the connection.
TRUNCATED_HEIGHT = 105
# getblockhash for BAD_GATEWAY_HEIGHT answers HTTP 502 with an HTML page, as a
# reverse proxy in front of a stopped node does.
BAD_GATEWAY_HEIGHT = 106

# Records that break a fetched block's value rules: a size of zero, a negative
# size, and a coinbase transaction that also spends an input.
ZERO_SIZE_HEIGHT = 107
NEGATIVE_SIZE_HEIGHT = 108
COINBASE_WITH_INPUT_HEIGHT = 109

# height -> block record; 103 deliberately lacks its "size" field.
TEST_CHAIN = {
    100: {"size": 285, "tx": [_coinbase_tx(n_out=2)]},
    101: {"size": 1523, "tx": [_coinbase_tx(), _plain_tx(n_in=2, n_out=3, n_spend=1, n_output=4)]},
    102: {"size": 4820, "tx": [_coinbase_tx(), _plain_tx(n_in=1, n_out=2, n_js=2), _plain_tx(n_out=1, n_js=1)]},
    103: {"tx": [_coinbase_tx()]},
    ZERO_SIZE_HEIGHT: {"size": 0, "tx": [_coinbase_tx()]},
    NEGATIVE_SIZE_HEIGHT: {"size": -285, "tx": [_coinbase_tx()]},
    COINBASE_WITH_INPUT_HEIGHT: {
        "size": 285,
        "tx": [{"vin": [{"coinbase": "04deadbeef"}, {"txid": "t00", "vout": 0}], "vout": [{"n": 0}]}],
    },
}

# Expected model-relevant counts per height, mirroring TEST_CHAIN by hand.
TEST_CHAIN_EXPECTED = {
    100: dict(n_transparent_in=0, n_transparent_out=2, n_spend=0, n_output=0, n_joinsplit=0),
    101: dict(n_transparent_in=2, n_transparent_out=4, n_spend=1, n_output=4, n_joinsplit=0),
    102: dict(n_transparent_in=1, n_transparent_out=4, n_spend=0, n_output=0, n_joinsplit=3),
}


class _RpcHandler(BaseHTTPRequestHandler):
    def log_message(self, *args):
        pass

    def _reply(self, status, result, error, req_id):
        body = json.dumps({"result": result, "error": error, "id": req_id}).encode()
        self._send(status, body)

    def _send(self, status, body, content_type="application/json", extra_length=0):
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body) + extra_length))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self):
        expected = "Basic " + base64.b64encode(f"{RPC_USER}:{RPC_PASS}".encode()).decode()
        if self.headers.get("Authorization") != expected:
            self.send_response(401)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        length = int(self.headers.get("Content-Length", 0))
        request = json.loads(self.rfile.read(length))
        method, params, req_id = request["method"], request["params"], request.get("id")
        if method == "getblockhash":
            height = params[0]
            if height == STRING_ERROR_HEIGHT:
                self._reply(500, None, "internal failure", req_id)
            elif height == TRUNCATED_HEIGHT:
                self._send(200, b'{"result": "blockhash', extra_length=10)
            elif height == BAD_GATEWAY_HEIGHT:
                self._send(502, b"<html><body><h1>502 Bad Gateway</h1></body></html>", "text/html")
            elif height in TEST_CHAIN:
                self._reply(200, f"blockhash{height}", None, req_id)
            else:
                self._reply(500, None, {"code": -8, "message": "Block height out of range"}, req_id)
        elif method == "getblock":
            block_hash, verbosity = params[0], params[1]
            height = int(block_hash.removeprefix("blockhash"))
            assert verbosity == 2
            block = dict(TEST_CHAIN[height], hash=block_hash, height=height)
            self._reply(200, block, None, req_id)
        else:
            self._reply(500, None, {"code": -32601, "message": "Method not found"}, req_id)


@pytest.fixture(scope="session")
def rpc_server():
    """A live local node stand-in; yields its base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RpcHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


@pytest.fixture()
def closed_port_url():
    """A URL pointing at a port that is guaranteed closed."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"
