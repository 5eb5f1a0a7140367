"""Tests of the benchmark itself: the oracle rejects wrong outputs, and the
stand-in node serves the counts it claims.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import base64
import json
import os
import re
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import oracle  # noqa: E402
from node import RPC_PASS, RPC_USER, ChainPlan  # noqa: E402
from run import stop_process  # noqa: E402

N_ROWS = 600
SEED = 5


def _joist(*argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "joist.cli", *argv], cwd=cwd, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real program outputs for a small benchmark dataset."""
    work = tmp_path_factory.mktemp("outputs")
    cols = inputs.make_dataset(N_ROWS, SEED)
    (work / "data.csv").write_text(inputs.csv_text(cols), encoding="utf-8")
    model = inputs.model_doc(SEED)
    inputs.write_json(work / "model.json", model)
    spec = inputs.synth_spec_doc(N_ROWS, SEED)
    inputs.write_json(work / "spec.json", spec)
    _joist("synth", "--spec", "spec.json", "--out", "synth.csv", cwd=work)
    _joist("predict", "--model", "model.json", "--data", "data.csv", "--out", "plot.csv", cwd=work)
    n_fit = N_ROWS // 3
    return {
        "cols": cols,
        "model": model,
        "spec": spec,
        "n_fit": n_fit,
        "synth.csv": (work / "synth.csv").read_bytes(),
        "plot.csv": (work / "plot.csv").read_bytes(),
        "plot.line": (work / "plot.csv.line.json").read_bytes(),
        "evaluate": _joist("evaluate", "--model", "model.json", "--data", "data.csv", cwd=work),
        "compare": _joist(
            "compare", "--data", "data.csv", "--seed", str(SEED), "--n-fit", str(n_fit), "--baseline-gervais", cwd=work
        ),
        "correlate": _joist("correlate", "--data", "data.csv", cwd=work),
        "composition": _joist("composition", "--data", "data.csv", cwd=work),
    }


def _checks(o):
    cols, model = o["cols"], o["model"]
    return {
        "synth.csv": lambda data: oracle.check_synth(data, o["spec"]),
        "plot.csv": lambda data: oracle.check_predict(data, o["plot.line"], model, cols),
        "plot.line": lambda data: oracle.check_predict(o["plot.csv"], data, model, cols),
        "evaluate": lambda data: oracle.check_evaluate(data, model, cols),
        "compare": lambda data: oracle.check_compare(data, cols, SEED, o["n_fit"]),
        "correlate": lambda data: oracle.check_correlate(data, cols),
        "composition": lambda data: oracle.check_composition(data, cols),
    }


def _perturb(data: bytes) -> bytes:
    """Shift the leading non-zero digit of the last number that has one.

    The number is taken from the last non-empty line, so a header is never
    touched and the change is far outside every tolerance.
    """
    lines = data.split(b"\n")
    i = max(k for k, line in enumerate(lines) if line)
    for match in reversed(list(re.finditer(rb"[0-9][0-9.eE+-]*", lines[i]))):
        for k, ch in enumerate(match.group()):
            if 0x31 <= ch <= 0x39:
                pos = match.start() + k
                digit = str((ch - 0x30 + 5) % 10).encode()
                lines[i] = lines[i][:pos] + digit + lines[i][pos + 1 :]
                return b"\n".join(lines)
    raise AssertionError("no digit to perturb")


@pytest.mark.parametrize(
    "name", ["synth.csv", "plot.csv", "plot.line", "evaluate", "compare", "correlate", "composition"]
)
def test_oracle_accepts_program_output_and_rejects_a_perturbed_copy(outputs, name):
    check = _checks(outputs)[name]
    check(outputs[name])
    with pytest.raises(oracle.Mismatch):
        check(_perturb(outputs[name]))


def test_oracle_rejects_a_reordered_dataset(outputs):
    lines = outputs["synth.csv"].split(b"\n")
    lines[1], lines[2] = lines[2], lines[1]
    with pytest.raises(oracle.Mismatch):
        oracle.check_synth(b"\n".join(lines), outputs["spec"])


def test_split_oracle_matches_program_fit(outputs, tmp_path):
    cols, n_fit = outputs["cols"], outputs["n_fit"]
    (tmp_path / "data.csv").write_text(inputs.csv_text(cols), encoding="utf-8")
    _joist("fit", "--kind", "joist", "--data", "data.csv", "--out", "m.json",
           "--seed", str(SEED), "--n-fit", str(n_fit), cwd=tmp_path)
    fit_idx, predict_idx = oracle.split_indices(len(cols), SEED, n_fit)
    assert len(np.intersect1d(fit_idx, predict_idx)) == 0
    oracle.check_fit((tmp_path / "m.json").read_bytes(), oracle.subset(cols, fit_idx), "joist")
    # The same rows without the seeded split give other coefficients.
    with pytest.raises(oracle.Mismatch):
        oracle.check_fit((tmp_path / "m.json").read_bytes(), oracle.subset(cols, predict_idx), "joist")


# ---------------------------------------------------------------------------
# the stand-in node
# ---------------------------------------------------------------------------

FIRST, COUNT, NODE_SEED = 500_000, 12, 9


@pytest.fixture(scope="module")
def node_url():
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "node.py"), "--seed", str(NODE_SEED),
         "--first", str(FIRST), "--count", str(COUNT)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().split()
        assert ready[0] == "READY"
        yield f"http://127.0.0.1:{ready[1]}"
    finally:
        stop_process(proc)


_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _rpc(url, method, params, auth=(RPC_USER, RPC_PASS)):
    body = json.dumps({"jsonrpc": "1.0", "id": "t", "method": method, "params": params}).encode()
    request = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    if auth:
        token = base64.b64encode(f"{auth[0]}:{auth[1]}".encode()).decode()
        request.add_header("Authorization", "Basic " + token)
    try:
        with _OPENER.open(request, timeout=30) as response:
            raw = response.read()
    except urllib.error.HTTPError as exc:
        raw = exc.read()
    return raw, json.loads(raw) if raw else None


def _stats(url):
    with _OPENER.open(url + "/stats", timeout=30) as response:
        return json.loads(response.read())


def test_node_serves_the_counts_it_claims(node_url):
    claimed = ChainPlan(NODE_SEED, FIRST, COUNT).block_counts()
    before = _stats(node_url)
    sent = 0
    for b, height in enumerate(range(FIRST, FIRST + COUNT)):
        raw_hash, reply = _rpc(node_url, "getblockhash", [height])
        raw_block, block = _rpc(node_url, "getblock", [reply["result"], 2])
        sent += len(raw_hash) + len(raw_block)
        record = block["result"]
        assert record["height"] == height
        txs = record["tx"]
        assert "coinbase" in txs[0]["vin"][0]
        decoded = {
            "n_transparent_in": sum(1 for tx in txs for e in tx["vin"] if "coinbase" not in e),
            "n_transparent_out": sum(len(tx["vout"]) for tx in txs),
            "n_spend": sum(len(tx.get("vShieldedSpend", [])) for tx in txs),
            "n_output": sum(len(tx.get("vShieldedOutput", [])) for tx in txs),
            "n_joinsplit": sum(len(tx.get("vjoinsplit", [])) for tx in txs),
            "size_bytes": record["size"],
        }
        assert decoded == {name: int(values[b]) for name, values in claimed.items()}
    after = _stats(node_url)
    assert after["requests"] - before["requests"] == 2 * COUNT
    assert after["bytes_sent"] - before["bytes_sent"] == sent
    assert after["busy_s"] > before["busy_s"]


def test_node_blocks_are_sized_like_real_ones(node_url):
    sizes = []
    for height in range(FIRST, FIRST + COUNT):
        _, reply = _rpc(node_url, "getblockhash", [height])
        raw, _ = _rpc(node_url, "getblock", [reply["result"], 2])
        sizes.append(len(raw))
    assert 20_000 < np.mean(sizes) < 200_000


def test_node_answers_errors_like_a_node(node_url):
    _, reply = _rpc(node_url, "getblockhash", [FIRST + COUNT])
    assert reply["result"] is None and reply["error"]["code"] == -8
    _, reply = _rpc(node_url, "getbestblockhash", [])
    assert reply["error"]["code"] == -32601
    raw, _ = _rpc(node_url, "getblockhash", [FIRST], auth=("bench", "wrong"))
    assert raw == b""


def test_fetch_oracle_rejects_a_wrong_count(node_url, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), JOIST_RPC_URL=node_url,
               JOIST_RPC_USER=RPC_USER, JOIST_RPC_PASS=RPC_PASS)
    done = subprocess.run(
        [sys.executable, "-m", "joist.cli", "fetch", "--from", str(FIRST), "--to", str(FIRST + COUNT - 1),
         "--out", "f.csv", "--parallel", "2"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    data = (tmp_path / "f.csv").read_bytes()
    heights = np.arange(FIRST, FIRST + COUNT)
    counts = ChainPlan(NODE_SEED, FIRST, COUNT).block_counts()
    oracle.check_fetch(data, heights, counts)
    with pytest.raises(oracle.Mismatch):
        oracle.check_fetch(_perturb(data), heights, counts)
