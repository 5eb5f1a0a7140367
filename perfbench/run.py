#!/usr/bin/env python3
"""The joist benchmark: closed-loop CLI workloads, checked outputs, and a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-50k --seed 3 --seconds 28 --trace 0
    python3 perfbench/run.py                  # every workload, one after another

With ``--trace 0`` one client runs the workload's ``joist`` commands in a
closed loop (the next subprocess starts when the previous one exits) and the
end-to-end metrics are reported. With ``--trace 1`` the same commands run
in-process through ``joist.cli.main``, alternating untraced passes with passes
traced by :mod:`spans`, and the per-layer metrics are reported. Every output
of every command is checked against the oracle in :mod:`oracle`. The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is run from ``src/`` of the checkout the benchmark sits in; the
benchmark exits with code 2 if that source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracle
from node import RPC_PASS, RPC_USER, ChainPlan
from spans import TARGETS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 28
# Set-up runs at least SETUP_MIN times and at most SETUP_MAX, while it has
# taken less than SETUP_BUDGET_S in all.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 5, 6.0
# Share of the loop spent on (reference task, `--help`) pairs, mixed in between
# the commands so that their samples are spread over the whole run.
PROBE_SHARE = 0.3
# The reference task: fixed, stdlib-only work in a fresh interpreter, like the
# program's own calls. The gated timings are relative to it, which cancels the
# minutes-long swings in speed of a shared machine.
REFERENCE_CODE = (
    "rows = [(i, str(i * 7919 % 100003), i % 13) for i in range(60000)]\n"
    "index = {r[1]: r for r in rows}\n"
    "total = sum(int(k) for k in index)\n"
    "rows.sort(key=lambda r: r[1])\n"
    "print(total + len(rows))\n"
)
REFERENCE_OUTPUT = b"3000073953\n"
IMPORT_REPEATS = 5
# A command still running this long after the run started is killed and counted as failed.
HARD_LIMIT_S = 170.0
PERCENTILES = (50, 90, 95, 99, 99.9)
FETCH_FIRST_HEIGHT = 419_200
FETCH_HEIGHTS = 250
FETCH_PARALLEL = 2

END_TO_END = (("setup_s", "s"), ("rows_per_ref", "1/ref"), ("startup_ref", "ref"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("cli.import_s", "s"),
    ("ingest.read_dataset_s", "s"),
    ("ingest.rows_read", "count"),
    ("ingest.write_dataset_s", "s"),
    ("ingest.bytes_written", "bytes"),
    ("ingest.fetch_block_features_s", "s"),
    ("ingest.fetch_transport_s", "s"),
    ("node.requests", "count"),
    ("node.bytes_sent", "bytes"),
    ("node.busy_s", "s"),
    ("features.extract_s", "s"),
    ("features.txs", "count"),
    ("features.dataset_build_s", "s"),
    ("rng.draws", "count"),
    ("rng.draws_s", "s"),
    ("rng.shuffled_indices_s", "s"),
    ("experiment.generate_synthetic_s", "s"),
    ("experiment.split_s", "s"),
    ("experiment.run_comparison_s", "s"),
    ("experiment.correlation_table_s", "s"),
    ("experiment.composition_analysis_s", "s"),
    ("experiment.emit_plot_data_s", "s"),
    ("fit.design_matrix_s", "s"),
    ("fit.ols_fit_s", "s"),
    ("models.predict_s", "s"),
    ("models.predictions", "count"),
    ("stats.evaluate_s", "s"),
    ("stats.pearson_r_s", "s"),
    ("python.gc_collections", "count"),
    ("python.gc_full_collections", "count"),
    ("python.gc_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

TRACED_METRICS = sorted({target[0] for target in TARGETS})
COUNTED = sorted({target[4] for target in TARGETS if target[4]})


class SetupError(Exception):
    """The workload's inputs or stand-in node could not be prepared."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    """One CLI call: its metric name, arguments, the files it writes and its check."""

    name: str
    argv: list[str]
    files: dict[str, Path]
    check: Callable[[dict[str, bytes]], None]


@dataclass
class Setup:
    commands: list[Command]
    rows: int
    env: dict[str, str] = field(default_factory=dict)
    node: subprocess.Popen | None = None
    node_url: str | None = None

    def node_stats(self) -> dict:
        if self.node_url is None:
            return {"requests": 0, "bytes_sent": 0, "busy_s": 0.0}
        opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        with opener.open(self.node_url + "/stats", timeout=10) as response:
            return json.loads(response.read())

    def close(self) -> None:
        if self.node is not None:
            stop_process(self.node)
            self.node = None


def stop_process(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


HELP = Command("startup", ["--help"], {}, lambda out: oracle.check_help(out["stdout"]))


def _check_reference(out: dict[str, bytes]) -> None:
    if out["stdout"] != REFERENCE_OUTPUT:
        raise oracle.Mismatch(f"reference task printed {out['stdout']!r}")


# Not a joist command: run as `python -c REFERENCE_CODE`.
REFERENCE = Command("reference", ["-c", REFERENCE_CODE], {}, _check_reference)


def _analysis_commands(work: Path, cols, seed: int, n_fit: int, model: dict) -> list[Command]:
    """evaluate, compare, correlate and composition over the dataset in data.csv."""
    data, model_path = str(work / "data.csv"), str(work / "model.json")
    return [
        Command(
            "evaluate",
            ["evaluate", "--model", model_path, "--data", data],
            {},
            lambda out: oracle.check_evaluate(out["stdout"], model, cols),
        ),
        Command(
            "compare",
            ["compare", "--data", data, "--seed", str(seed), "--n-fit", str(n_fit), "--baseline-gervais"],
            {},
            lambda out: oracle.check_compare(out["stdout"], cols, seed, n_fit),
        ),
        Command("correlate", ["correlate", "--data", data], {}, lambda out: oracle.check_correlate(out["stdout"], cols)),
        Command(
            "composition", ["composition", "--data", data], {}, lambda out: oracle.check_composition(out["stdout"], cols)
        ),
    ]


def _dataset_inputs(work: Path, n_rows: int, seed: int):
    cols = inputs.make_dataset(n_rows, seed)
    (work / "data.csv").write_text(inputs.csv_text(cols), encoding="utf-8", newline="\n")
    model = inputs.model_doc(seed)
    inputs.write_json(work / "model.json", model)
    return cols, model


def setup_paper(work: Path, seed: int) -> Setup:
    n_rows, n_fit = 15_000, 5_000
    cols, model = _dataset_inputs(work, n_rows, seed)
    spec = inputs.synth_spec_doc(n_rows, seed)
    inputs.write_json(work / "spec.json", spec)
    data = str(work / "data.csv")
    synth_out, fit_out, plot_out = work / "synth.csv", work / "fit.json", work / "plot.csv"

    def check_fit(out):
        fit_idx, _ = oracle.split_indices(n_rows, seed, n_fit)
        oracle.check_fit(out["model.json"], oracle.subset(cols, fit_idx), "joist")

    analysis = _analysis_commands(work, cols, seed, n_fit, model)
    commands = [
        Command(
            "synth",
            ["synth", "--spec", str(work / "spec.json"), "--out", str(synth_out)],
            {"synth.csv": synth_out},
            lambda out: oracle.check_synth(out["synth.csv"], spec),
        ),
        Command(
            "fit",
            ["fit", "--kind", "joist", "--data", data, "--out", str(fit_out), "--seed", str(seed), "--n-fit", str(n_fit)],
            {"model.json": fit_out},
            check_fit,
        ),
        analysis[0],
        Command(
            "predict",
            ["predict", "--model", str(work / "model.json"), "--data", data, "--out", str(plot_out)],
            {"plot.csv": plot_out, "plot.csv.line.json": Path(str(plot_out) + ".line.json")},
            lambda out: oracle.check_predict(out["plot.csv"], out["plot.csv.line.json"], model, cols),
        ),
        *analysis[1:],
    ]
    return Setup(commands, n_rows)


def setup_analyze(work: Path, seed: int) -> Setup:
    n_rows = 50_000
    cols, model = _dataset_inputs(work, n_rows, seed)
    return Setup(_analysis_commands(work, cols, seed, n_rows // 3, model), n_rows)


def setup_synth(work: Path, seed: int) -> Setup:
    n_rows = 50_000
    spec = inputs.synth_spec_doc(n_rows, seed)
    inputs.write_json(work / "spec.json", spec)
    # The expected output is part of the workload's input material.
    expected = oracle.synth_columns(spec)
    out = work / "synth.csv"

    def check(outputs):
        oracle.check_synth(outputs["synth.csv"], spec, expected)

    command = Command("synth", ["synth", "--spec", str(work / "spec.json"), "--out", str(out)], {"synth.csv": out}, check)
    return Setup([command], n_rows)


def setup_fetch(work: Path, seed: int) -> Setup:
    plan = ChainPlan(seed, FETCH_FIRST_HEIGHT, FETCH_HEIGHTS)
    heights = np.arange(FETCH_FIRST_HEIGHT, FETCH_FIRST_HEIGHT + FETCH_HEIGHTS, dtype=np.int64)
    counts = plan.block_counts()
    node = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "node.py"), "--seed", str(seed),
         "--first", str(FETCH_FIRST_HEIGHT), "--count", str(FETCH_HEIGHTS)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = _readline(node, timeout=60.0)
        if not ready.startswith("READY "):
            raise SetupError(f"stand-in node did not start (said {ready!r})")
        url = f"http://127.0.0.1:{int(ready.split()[1])}"
    except BaseException:
        stop_process(node)
        raise
    out = work / "fetch.csv"
    command = Command(
        "fetch",
        ["fetch", "--from", str(heights[0]), "--to", str(heights[-1]), "--out", str(out),
         "--parallel", str(FETCH_PARALLEL)],
        {"fetch.csv": out},
        lambda outputs: oracle.check_fetch(outputs["fetch.csv"], heights, counts),
    )
    env = {"JOIST_RPC_URL": url, "JOIST_RPC_USER": RPC_USER, "JOIST_RPC_PASS": RPC_PASS}
    return Setup([command], FETCH_HEIGHTS, env=env, node=node, node_url=url)


def _readline(proc: subprocess.Popen, timeout: float) -> str:
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout)
    if not box:
        raise SetupError(f"stand-in node gave no READY line within {timeout:.0f} s")
    return box[0].strip()


# Why each workload exists is in README.md next to this file.
WORKLOADS: dict[str, Callable[[Path, int], Setup]] = {
    "paper-15k": setup_paper,
    "analyze-50k": setup_analyze,
    "synth-50k": setup_synth,
    "fetch-rpc": setup_fetch,
}


# ---------------------------------------------------------------------------
# output checking
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class OutputChecker:
    """Checks each output once against the oracle, and later ones by digest.

    At the default seed every output must also match its pinned SHA-256.
    """

    def __init__(self, pinned: dict[str, str]):
        self.pinned = pinned
        self.verified: dict[str, dict[str, str]] = {}

    def check(self, command: Command, outputs: dict[str, bytes]) -> str | None:
        digests = {label: _sha256(data) for label, data in outputs.items()}
        for label, digest in digests.items():
            pin = self.pinned.get(f"{command.name}:{label}")
            if pin is not None and pin != digest:
                return f"{label}: SHA-256 differs from the digest pinned for seed {DEFAULT_SEED}"
        seen = self.verified.get(command.name)
        if seen is not None:
            return None if seen == digests else "output differs from an earlier run of the same command"
        try:
            command.check(outputs)
        except oracle.Mismatch as exc:
            return f"oracle: {exc}"
        self.verified[command.name] = digests
        return None


def collect_outputs(command: Command, stdout: bytes) -> tuple[dict[str, bytes], str | None]:
    outputs = {"stdout": stdout}
    for label, path in command.files.items():
        try:
            outputs[label] = path.read_bytes()
        except FileNotFoundError:
            return outputs, f"{label} was not written"
    return outputs, None


# `--help` text depends on the terminal width and the Python version, so it is
# checked by content only.
UNPINNED = {"startup"}


def load_pins(workload: str, seed: int) -> tuple[dict[str, str], str | None]:
    """Pinned digests for this run, or none with the reason why."""
    path = BENCH_DIR / "digests.json"
    if seed != DEFAULT_SEED or not path.exists():
        return {}, None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc["numerics"] != numerics():
        return {}, f"digests not checked: pinned with {doc['numerics']!r}"
    return doc["outputs"].get(workload, {}), None


def record_pins(workload: str, checker: OutputChecker) -> None:
    path = BENCH_DIR / "digests.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    if doc.get("numerics") != numerics():
        doc = {"numerics": numerics(), "outputs": {}}
    doc["outputs"][workload] = {
        f"{name}:{label}": digest
        for name, digests in sorted(checker.verified.items())
        if name not in UNPINNED
        for label, digest in sorted(digests.items())
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# the closed CLI loop (--trace 0)
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def judge(self, command: Command, code: int, stdout: bytes, stderr: bytes, checker: OutputChecker) -> bool:
        """Count one call; true when it exited 0 and all its outputs check out."""
        self.attempted += 1
        if code != 0:
            tail = stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
            error = f"exit code {code}: {' | '.join(tail)}"
        else:
            outputs, missing = collect_outputs(command, stdout)
            error = missing or checker.check(command, outputs)
        if error:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {command.name}: {error}", file=sys.stderr)
        return not error


def program_env(extra: dict[str, str]) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def invoke(command: Command, work: Path, env: dict, kill_at: float) -> tuple[float, int, int, bytes, bytes]:
    """Run one CLI call; return wall seconds, peak RSS in KiB, exit code, stdout, stderr."""
    for path in command.files.values():
        path.unlink(missing_ok=True)
    out_path, err_path = work / "stdout", work / "stderr"
    program = command.argv if command is REFERENCE else ["-m", "joist.cli", *command.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *program], stdout=out, stderr=err, env=env, cwd=work)
        killer = threading.Timer(max(0.0, kill_at - start), proc.kill)
        killer.start()
        try:
            # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would give
            # the largest of all children so far.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, out_path.read_bytes(), err_path.read_bytes()


def run_cli_loop(setup: Setup, work: Path, seconds: float, checker: OutputChecker, tally: Tally, run_start: float):
    """Passes over the commands, with probe pairs mixed in, until *seconds* are used."""
    env = program_env(setup.env)
    kill_at = run_start + HARD_LIMIT_S
    times = {c.name: [] for c in (REFERENCE, HELP, *setup.commands)}
    rss = {name: [] for name in times}
    last = {}
    pairs = []  # (reference, --help) wall times taken back to back

    def timed(command) -> float | None:
        wall, peak_kib, code, stdout, stderr = invoke(command, work, env, kill_at)
        last[command.name] = wall
        if not tally.judge(command, code, stdout, stderr, checker):
            return None
        times[command.name].append(wall)
        rss[command.name].append(peak_kib)
        return wall

    # Untimed warm-up: compiles the program's bytecode cache.
    invoke(HELP, work, env, kill_at)
    start = time.perf_counter()
    deadline = start + seconds
    probe_s = 0.0
    passes = 0
    while True:
        for command in setup.commands:
            if passes and time.perf_counter() + last[command.name] > deadline:
                return times, rss, pairs, passes
            while probe_s < PROBE_SHARE * (time.perf_counter() - start):
                probe_start = time.perf_counter()
                pair = (timed(REFERENCE), timed(HELP))
                if None not in pair:
                    pairs.append(pair)
                probe_s += time.perf_counter() - probe_start
            timed(command)
        passes += 1


def percentile_note(values: list[float]) -> str:
    n = len(values)
    usable = [p for p in PERCENTILES if n * (1 - p / 100) >= 10]
    if not usable:
        return f"n={n}; no percentile has 10 samples beyond it"
    p = usable[-1]
    return f"n={n}; p{p:g}={np.percentile(values, p):.6g}"


def end_to_end_metrics(setup: Setup, times, rss, pairs, setup_times) -> tuple[dict, list[str]]:
    lines = []
    per_command = {}
    for name, values in times.items():
        if values:
            per_command[name] = statistics.median(values)
            lines.append(f"  {name + '_s':<16} {per_command[name]:.6g} s  ({percentile_note(values)})")
        else:
            lines.append(f"  {name + '_s':<16} no successful run")
    metrics = {"setup_s": statistics.median(setup_times)}
    if all(times[c.name] for c in setup.commands):
        # A throughput, so over mean pass time: rows per pass / sum of mean command times.
        rows_per_s = setup.rows / sum(statistics.mean(times[c.name]) for c in setup.commands)
        lines.append(f"  {'rows_per_s':<16} {rows_per_s:.6g} 1/s")
        if times["reference"]:
            # Mean over mean: both are throughputs over the same stretch of time.
            metrics["rows_per_ref"] = rows_per_s * statistics.mean(times["reference"])
    if pairs:
        # Each --help against the reference task run just before it.
        metrics["startup_ref"] = statistics.median(h / r for r, h in pairs)
    medians = [statistics.median(v) for name, v in rss.items() if v and name != "reference"]
    if medians:
        metrics["peak_rss_mb"] = max(medians) / 1024.0
    return metrics, lines


# ---------------------------------------------------------------------------
# the traced in-process run (--trace 1)
# ---------------------------------------------------------------------------


def import_seconds(env: dict) -> float:
    """Median wall time of ``import joist.cli`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import joist.cli; print(time.perf_counter() - t)"
    values = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise SetupError(f"cannot import joist.cli: {done.stderr.strip()}")
        values.append(float(done.stdout))
    return statistics.median(values)


def load_cli():
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    import joist.cli

    if not os.path.abspath(joist.cli.__file__).startswith(src + os.sep):
        raise SetupError(f"joist was imported from {joist.cli.__file__}, not from {src}")
    return joist.cli


def call_main(cli, argv: list[str]) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


def run_traced(setup: Setup, seconds: float, checker: OutputChecker, tally: Tally):
    env = program_env(setup.env)
    import_s = import_seconds(env)
    cli = load_cli()
    os.environ.update(setup.env)
    tracer = Tracer()
    walls = {False: [], True: []}
    per_pass = []
    deadline = time.perf_counter() + seconds
    pass_no = 0
    while True:
        traced = pass_no % 2 == 1
        if walls[False] and walls[True] and time.perf_counter() + max(walls[traced]) > deadline:
            break
        before = (dict(tracer.seconds), dict(tracer.counts), tracer.gc_s, list(tracer.gc_collections))
        node_before = setup.node_stats()
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            for command in (HELP, *setup.commands):
                tracer.request = f"pass{pass_no}/{command.name}"
                span = tracer.open("cli.main") if traced else None
                code, stdout, stderr = call_main(cli, command.argv)
                if span is not None:
                    tracer.close(span)
                tally.judge(command, code, stdout, stderr, checker)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(time.perf_counter() - start)
        if traced:
            node_after = setup.node_stats()
            per_pass.append(_pass_metrics(tracer, before, node_before, node_after))
        pass_no += 1
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    return metrics, tracer, walls


def _pass_metrics(tracer: Tracer, before, node_before: dict, node_after: dict) -> dict:
    """One traced pass: seconds per traced metric (name + "_s"), counts, node and GC figures."""
    seconds0, counts0, gc_s0, gc0 = before
    out = {f"{m}_s": tracer.seconds.get(m, 0.0) - seconds0.get(m, 0.0) for m in TRACED_METRICS}
    out.update({c: tracer.counts.get(c, 0) - counts0.get(c, 0) for c in COUNTED})
    out["ingest.fetch_transport_s"] = out["ingest.fetch_block_features_s"] - out["features.extract_s"]
    for key in ("requests", "bytes_sent", "busy_s"):
        out[f"node.{key}"] = node_after[key] - node_before[key]
    gc_counts = [a - b for a, b in zip(tracer.gc_collections, gc0)]
    out["python.gc_collections"] = sum(gc_counts)
    out["python.gc_full_collections"] = gc_counts[2]
    out["python.gc_s"] = tracer.gc_s - gc_s0
    return out


def layer_self_lines(tracer: Tracer) -> list[str]:
    totals: dict[str, float] = {}
    for name, value in tracer.self_seconds().items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + value
    for span in tracer.spans:
        for name, (_, value) in span.get("hot", {}).items():
            layer = name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + value
    return [f"  self time {layer:<12} {value:.6g} s (all traced passes)" for layer, value in sorted(totals.items())]


# ---------------------------------------------------------------------------
# run context and reporting
# ---------------------------------------------------------------------------


def run_context(load_at_start) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "loadavg_start": list(load_at_start),
        "src_lines": src_lines,
    }


def _openblas_call(symbols: tuple[str, ...], restype):
    """Call the first of *symbols* exported by the OpenBLAS library numpy loaded."""
    for lib_path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = restype
                fn.argtypes = []
                return fn()
    return None


def blas_threads():
    threads = _openblas_call(
        ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int
    )
    return threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS")


def numerics() -> str:
    """What fitted outputs depend on bit for bit: Python, numpy, the BLAS kernel and its threads."""
    config = _openblas_call(
        ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p
    )
    blas = config.decode() if config else "unknown BLAS"
    return f"python {platform.python_version()}; numpy {np.__version__}; {blas}; {blas_threads()} threads"


def setup_repeated(workload: str, work_root: Path, seed: int) -> tuple[Setup, Path, list[float]]:
    """Set the workload up several times; keep the last, report every duration."""
    times = []
    setup = None
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        if setup is not None:
            setup.close()
        work = work_root / f"setup{len(times)}"
        work.mkdir(parents=True)
        start = time.perf_counter()
        setup = WORKLOADS[workload](work, seed)
        times.append(time.perf_counter() - start)
    return setup, work, times


def format_metric(name: str, value, unit: str) -> str:
    return f"{name:<36} {value:.6g} {unit}" if isinstance(value, float) else f"{name:<36} {value} {unit}"


def run_one(args) -> int:
    load_at_start = os.getloadavg()
    run_start = time.perf_counter()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work_root = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pins, pin_note = load_pins(args.workload, args.seed)
    checker = OutputChecker(pins)
    tally = Tally()
    setup = None
    try:
        setup, work, setup_times = setup_repeated(args.workload, work_root, args.seed)
        context = run_context(load_at_start)
        print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
        print("context " + json.dumps(context, sort_keys=True))
        if pin_note:
            print(pin_note)
        detail: dict = {"context": context, "setup_times_s": setup_times}
        if args.trace:
            metrics, tracer, walls = run_traced(setup, args.seconds, checker, tally)
            names = PER_LAYER
            spans_path = out_dir / f"{tag}.spans.jsonl"
            with open(spans_path, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
            extra = [
                f"  {'pass_s':<16} untraced {', '.join(f'{w:.4g}' for w in walls[False])}; "
                f"traced {', '.join(f'{w:.4g}' for w in walls[True])}",
                *layer_self_lines(tracer),
            ]
            detail["pass_walls_s"] = {"untraced": walls[False], "traced": walls[True]}
            if tracer.missing:
                extra.append("  not found, so not traced: " + ", ".join(tracer.missing))
            detail["spans"] = str(spans_path.relative_to(ROOT))
        else:
            times, rss, pairs, passes = run_cli_loop(setup, work, args.seconds, checker, tally, run_start)
            metrics, extra = end_to_end_metrics(setup, times, rss, pairs, setup_times)
            extra.append(f"  {'passes':<16} {passes}")
            names = END_TO_END
            detail["command_times_s"] = times
            detail["command_peak_rss_kib"] = rss
        if args.record_digests:
            if args.seed != DEFAULT_SEED or tally.failed or args.trace:
                raise SetupError(f"digests are recorded only from a clean --trace 0 run at seed {DEFAULT_SEED}")
            record_pins(args.workload, checker)
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(work_root, ignore_errors=True)

    for line in extra:
        print(line)
    failed_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(format_metric("failed_ratio", failed_ratio, "ratio") + f"  ({tally.failed} of {tally.attempted})")
    for name, unit in names:
        if name in metrics:
            print(format_metric(name, metrics[name], unit))
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0 and all(n in metrics for n, _ in names),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names if name in metrics},
    }
    detail.update(result)
    (out_dir / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; metrics named workload.metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited with code {done.returncode}")
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the joist CLI and its layers.")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests",
        action="store_true",
        help=f"pin the SHA-256 of every output of a clean run at seed {DEFAULT_SEED}",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "joist" / "cli.py").is_file():
        print(f"error: no joist source tree at {ROOT / 'src' / 'joist'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
