"""A seeded JSON-RPC stand-in for a Zcash node, run as its own process.

It answers ``getblockhash <height>`` and ``getblock <hash> 2`` the way a node
does, with block records in the verbosity-2 layout: decoded transactions whose
hex fields are sized like real descriptions, about 64 KB per block. Every
response body is serialised before the server starts listening, so handling
a request is a dictionary lookup and a write. The server counts requests,
body bytes sent and handler busy time itself and reports them on
``GET /stats``.

Run: ``python3 perfbench/node.py --seed 1 --first 419200 --count 1000``.
It prints ``READY <port>`` on stdout once it listens on 127.0.0.1 and serves
until it receives SIGTERM or SIGINT.
"""

from __future__ import annotations

import argparse
import base64
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

RPC_USER = "bench"
RPC_PASS = "bench-pass"

# Raw byte sizes of the parts of a decoded transaction, as on the Zcash chain.
_JOINSPLIT_PROOF = 296
_JOINSPLIT_CIPHERTEXT = 601
_SPEND_PROOF = 192
_OUTPUT_PROOF = 192
_ENC_CIPHERTEXT = 580
_OUT_CIPHERTEXT = 80
_SCRIPT_SIG = 107
_SCRIPT_PUBKEY = 25


class ChainPlan:
    """Per-transaction counts of a seeded chain segment.

    ``tx_block[k]`` is the block index of transaction k; the count arrays are
    indexed by transaction. Transaction 0 of every block is the coinbase.
    """

    def __init__(self, seed: int, first: int, count: int):
        rng = np.random.default_rng([seed, first, count, 3])
        self.first = first
        self.count = count
        n_tx = 1 + rng.poisson(11, count)
        self.tx_block = np.repeat(np.arange(count), n_tx)
        total = int(n_tx.sum())
        self.is_coinbase = np.zeros(total, dtype=bool)
        self.is_coinbase[np.concatenate(([0], np.cumsum(n_tx)[:-1]))] = True
        kind = rng.integers(0, 4, total)  # 0 transparent, 1 sapling, 2 sprout, 3 mixed
        self.n_in = np.where(kind != 1, rng.integers(1, 4, total), rng.integers(0, 2, total))
        self.n_out = rng.integers(1, 4, total)
        self.n_spend = np.where((kind == 1) | (kind == 3), rng.integers(0, 4, total), 0)
        self.n_output = np.where((kind == 1) | (kind == 3), rng.integers(1, 4, total), 0)
        self.n_joinsplit = np.where(kind == 2, rng.integers(1, 3, total), 0)
        self.n_in[self.is_coinbase] = 0
        self.n_spend[self.is_coinbase] = 0
        self.n_output[self.is_coinbase] = 0
        self.n_joinsplit[self.is_coinbase] = 0

    def block_counts(self) -> dict[str, np.ndarray]:
        """Block-level sums: the counts a correct fetch must report."""
        def per_block(a):
            return np.bincount(self.tx_block, weights=a, minlength=self.count).astype(np.int64)

        return {
            "n_transparent_in": per_block(self.n_in),
            "n_transparent_out": per_block(self.n_out),
            "n_spend": per_block(self.n_spend),
            "n_output": per_block(self.n_output),
            "n_joinsplit": per_block(self.n_joinsplit),
            "size_bytes": per_block(self.tx_bytes()),
        }

    def tx_bytes(self) -> np.ndarray:
        """Serialised size of each transaction, which sums to the block's size field."""
        js = _JOINSPLIT_PROOF + 2 * _JOINSPLIT_CIPHERTEXT + 4 * 32 + 16
        spend = _SPEND_PROOF + 3 * 32 + 64
        output = _OUTPUT_PROOF + 3 * 32 + _ENC_CIPHERTEXT + _OUT_CIPHERTEXT
        tin = 36 + _SCRIPT_SIG + 4
        tout = 8 + _SCRIPT_PUBKEY
        return (
            40
            + np.where(self.is_coinbase, 50, 0)
            + self.n_in * tin
            + self.n_out * tout
            + self.n_spend * spend
            + self.n_output * output
            + self.n_joinsplit * js
        )


def block_hash(height: int) -> str:
    return f"{height:064x}"


class _HexPool:
    """Seeded hex strings, cut from one random buffer to keep set-up cheap."""

    def __init__(self, rng: np.random.Generator):
        self._hex = rng.bytes(1 << 16).hex()
        self._rng = rng

    def take(self, n_bytes: int) -> str:
        start = int(self._rng.integers(0, len(self._hex) - 2 * n_bytes))
        return self._hex[start : start + 2 * n_bytes]


def _block_record(plan: ChainPlan, b: int, txs: range, size: int, pool: _HexPool) -> dict:
    height = plan.first + b
    records = []
    for k in txs:
        if plan.is_coinbase[k]:
            vin = [{"coinbase": pool.take(50), "sequence": 4294967295}]
        else:
            vin = [
                {
                    "txid": pool.take(32),
                    "vout": int(i),
                    "scriptSig": {"asm": pool.take(_SCRIPT_SIG), "hex": pool.take(_SCRIPT_SIG)},
                    "sequence": 4294967295,
                }
                for i in range(plan.n_in[k])
            ]
        tx = {
            "txid": pool.take(32),
            "version": 4,
            "locktime": 0,
            "vin": vin,
            "vout": [
                {
                    "value": 0.5,
                    "n": int(i),
                    "scriptPubKey": {
                        "asm": "OP_DUP OP_HASH160 " + pool.take(20) + " OP_EQUALVERIFY OP_CHECKSIG",
                        "hex": pool.take(_SCRIPT_PUBKEY),
                        "type": "pubkeyhash",
                    },
                }
                for i in range(plan.n_out[k])
            ],
            "vjoinsplit": [
                {
                    "vpub_old": 0.0,
                    "vpub_new": 0.0,
                    "anchor": pool.take(32),
                    "nullifiers": [pool.take(32), pool.take(32)],
                    "commitments": [pool.take(32), pool.take(32)],
                    "onetimePubKey": pool.take(32),
                    "randomSeed": pool.take(32),
                    "macs": [pool.take(32), pool.take(32)],
                    "proof": pool.take(_JOINSPLIT_PROOF),
                    "ciphertexts": [pool.take(_JOINSPLIT_CIPHERTEXT), pool.take(_JOINSPLIT_CIPHERTEXT)],
                }
                for _ in range(plan.n_joinsplit[k])
            ],
            "valueBalance": 0.0,
        }
        if plan.n_spend[k] or plan.n_output[k]:
            tx["vShieldedSpend"] = [
                {
                    "cv": pool.take(32),
                    "anchor": pool.take(32),
                    "nullifier": pool.take(32),
                    "rk": pool.take(32),
                    "proof": pool.take(_SPEND_PROOF),
                    "spendAuthSig": pool.take(64),
                }
                for _ in range(plan.n_spend[k])
            ]
            tx["vShieldedOutput"] = [
                {
                    "cv": pool.take(32),
                    "cmu": pool.take(32),
                    "ephemeralKey": pool.take(32),
                    "encCiphertext": pool.take(_ENC_CIPHERTEXT),
                    "outCiphertext": pool.take(_OUT_CIPHERTEXT),
                    "proof": pool.take(_OUTPUT_PROOF),
                }
                for _ in range(plan.n_output[k])
            ]
            tx["bindingSig"] = pool.take(64)
        records.append(tx)
    return {
        "hash": block_hash(height),
        "confirmations": 10 + plan.count - b,
        "size": size,
        "height": height,
        "version": 4,
        "merkleroot": pool.take(32),
        "tx": records,
        "time": 1_540_000_000 + 150 * b,
        "nonce": pool.take(32),
        "bits": "1d0c4d9b",
        "difficulty": 1.0,
    }


def serialise_chain(plan: ChainPlan, seed: int) -> dict[str, bytes]:
    """``getblock`` result JSON per block hash, serialised once up front."""
    pool = _HexPool(np.random.default_rng([seed, plan.first, 5]))
    sizes = plan.block_counts()["size_bytes"]
    starts = np.searchsorted(plan.tx_block, np.arange(plan.count + 1))
    return {
        block_hash(plan.first + b): json.dumps(
            _block_record(plan, b, range(starts[b], starts[b + 1]), int(sizes[b]), pool)
        ).encode()
        for b in range(plan.count)
    }


class NodeStats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.bytes_sent = 0
        self.busy_s = 0.0

    def add(self, n_bytes: int, busy: float) -> None:
        with self.lock:
            self.requests += 1
            self.bytes_sent += n_bytes
            self.busy_s += busy

    def snapshot(self) -> dict:
        with self.lock:
            return {"requests": self.requests, "bytes_sent": self.bytes_sent, "busy_s": self.busy_s}


def make_handler(blocks: dict[str, bytes], first: int, count: int, stats: NodeStats):
    auth = "Basic " + base64.b64encode(f"{RPC_USER}:{RPC_PASS}".encode()).decode()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, status: int, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, b"{}")
                return
            self._send(200, json.dumps(stats.snapshot()).encode())

        def do_POST(self):
            start = time.perf_counter()
            if self.headers.get("Authorization") != auth:
                self._send(401, b"")
                stats.add(0, time.perf_counter() - start)
                return
            request = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            req_id = json.dumps(request.get("id")).encode()
            method, params = request.get("method"), request.get("params") or []
            status, result, error = 200, None, b"null"
            if method == "getblockhash":
                height = params[0] if params else None
                if isinstance(height, int) and first <= height < first + count:
                    result = json.dumps(block_hash(height)).encode()
                else:
                    status, error = 500, b'{"code": -8, "message": "Block height out of range"}'
            elif method == "getblock":
                result = blocks.get(params[0]) if params else None
                if result is None:
                    status, error = 500, b'{"code": -5, "message": "Block not found"}'
                elif len(params) < 2 or params[1] != 2:
                    status, result = 500, None
                    error = b'{"code": -8, "message": "this stand-in serves verbosity 2 only"}'
            else:
                status, error = 500, b'{"code": -32601, "message": "Method not found"}'
            body = b'{"result": ' + (result or b"null") + b', "error": ' + error + b', "id": ' + req_id + b"}"
            self._send(status, body)
            stats.add(len(body), time.perf_counter() - start)

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)

    plan = ChainPlan(args.seed, args.first, args.count)
    blocks = serialise_chain(plan, args.seed)
    stats = NodeStats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(blocks, args.first, args.count, stats))
    server.daemon_threads = True

    def stop(signum, frame):
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
