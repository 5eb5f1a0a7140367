"""Command-line front end.

Machine-readable payloads (CSV or single-line JSON) go to stdout; everything else goes to stderr
after the payload, or nowhere if stderr cannot be written. Exit codes: 0 success, 1 usage error,
2 data/integrity error, 3 remote/transport error, 4 numerical error, 130 interrupted (Ctrl-C),
141 the reader of a pipe closed it.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import itertools
import os
import re
import sys
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import JoistError, NumericalError, RemoteError

# The modules that need numpy, and json, are imported by the command that uses them,
# when it runs, so that `--help` and usage errors do not load them.
if TYPE_CHECKING:
    from .ingest import RpcEndpoint

ENV_RPC_URL = "JOIST_RPC_URL"
ENV_RPC_USER = "JOIST_RPC_USER"
ENV_RPC_PASS = "JOIST_RPC_PASS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3
EXIT_NUMERICAL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_Output = tuple[Iterable[str], Sequence[str]]  # a command's stdout payload, then its stderr lines


class _UsageError(Exception):
    pass


def _shortened(message: str) -> str:
    """*message* with each run of more than 40 digits, or of one character (deep JSON
    nesting, say), cut to its first 20 characters, "...", and its length."""
    return re.sub(
        r"[0-9]{41,}|(.)\1{40,}", lambda m: f"{m[0][:20]}...({len(m[0])} {'characters' if m[1] else 'digits'})", message
    )


_LINE_BREAKS = str.maketrans({"\r": "\\r", "\n": "\\n"})


# The exit code of an error: the first entry whose type it is an instance of.
_EXIT_CODES = (
    (_UsageError, EXIT_USAGE),
    (NumericalError, EXIT_NUMERICAL),
    (RemoteError, EXIT_REMOTE),
    (Exception, EXIT_DATA),
)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this tool reserves 2 for data errors.
    def error(self, message):
        _write_stderr([*self.format_usage().splitlines(), f"{self.prog}: error: {_shortened(message)}"])
        raise SystemExit(EXIT_USAGE)

    # argparse drops an OSError from writing help and falls back to stderr for a
    # closed stdout; help is a stdout payload like any other.
    def print_help(self, file=None):
        if file is None:
            _write_stdout([self.format_help()])
        else:
            super().print_help(file)


def _endpoint_from_env(parallel: int) -> RpcEndpoint:
    from .ingest import RpcEndpoint

    url = os.environ.get(ENV_RPC_URL)
    user = os.environ.get(ENV_RPC_USER)
    password = os.environ.get(ENV_RPC_PASS)
    missing = [
        name
        for name, value in ((ENV_RPC_URL, url), (ENV_RPC_USER, user), (ENV_RPC_PASS, password))
        if not value
    ]
    if missing:
        raise _UsageError("missing environment variable(s): " + ", ".join(missing))
    return RpcEndpoint(url=url, username=user, password=password, max_parallel=parallel)


def _cmd_fetch(args) -> _Output:
    from .ingest import MAX_PARALLEL, fetch_block_features, write_features_csv

    if not 1 <= args.parallel <= MAX_PARALLEL:
        raise _UsageError(f"--parallel must be in 1..{MAX_PARALLEL}")
    endpoint = _endpoint_from_env(parallel=args.parallel)
    features = fetch_block_features(endpoint, (args.from_height, args.to_height))
    write_features_csv(features, args.out)
    return (), [f"wrote {len(features['height'])} feature rows to {args.out}; verify_time_us is "
                "zero-filled and the file is unusable for fitting until measured times are merged"]


def _cmd_synth(args) -> _Output:
    from .experiment import generate_synthetic, load_synth_spec
    from .ingest import write_dataset

    ds = generate_synthetic(load_synth_spec(args.spec))
    write_dataset(ds, args.out)
    return (), [f"wrote {len(ds)} synthetic samples to {args.out}"]


def _cmd_fit(args) -> _Output:
    from .fit import ols_fit
    from .ingest import read_dataset
    from .models import ModelKind, save_model

    if (args.seed is None) != (args.n_fit is None):
        raise _UsageError("--seed and --n-fit must be given together")
    train = read_dataset(args.data)
    if args.seed is not None:
        from .experiment import SplitPlan, split

        # Only the fit half is kept: neither the whole dataset nor the predict half is held
        # while the fit runs.
        train = split(train, SplitPlan(seed=args.seed, n_fit=args.n_fit))[0]
    result = ols_fit(ModelKind(args.kind), train)
    save_model(result.model, args.out)
    rss = f"{result.residual_sum_squares:.6g}"
    warnings = [f"warning: {result.condition_warning}"] if result.condition_warning else []
    return (), [*warnings, f"fit {args.kind} on {result.n_samples} samples (rss={rss}); model written to {args.out}"]


def _cmd_predict(args) -> _Output:
    from .experiment import emit_plot_data
    from .ingest import read_dataset
    from .models import load_model

    model = load_model(args.model)
    emit_plot_data(read_dataset(args.data), model, args.out)
    return (), [f"wrote plot data to {args.out} (regression line in {args.out}.line.json)"]


def _cmd_evaluate(args) -> _Output:
    import json

    from .ingest import read_dataset
    from .models import load_model, n_predictors, predict
    from .stats import evaluate

    model = load_model(args.model)
    ds = read_dataset(args.data)
    report = evaluate(ds.verify_time_us, predict(model, ds), n_predictors(model.kind))
    return [json.dumps(vars(report)) + "\n"], []


def _cmd_compare(args) -> _Output:
    from .experiment import SplitPlan, comparison_csv_lines, run_comparison
    from .ingest import read_dataset
    from .models import GERVAIS_BASELINE, ModelKind

    # Unnamed, so that run_comparison can drop the whole dataset after the split; read before the plan is checked.
    rows = run_comparison(
        read_dataset(args.data),
        SplitPlan(seed=args.seed, n_fit=args.n_fit),
        kinds=(ModelKind.JOIST, ModelKind.BLOCK_SIZE),
        baselines=(GERVAIS_BASELINE,) if args.baseline_gervais else (),
    )
    return (line + "\n" for line in comparison_csv_lines(rows)), []


def _cmd_correlate(args) -> _Output:
    from .experiment import correlation_table
    from .ingest import read_dataset

    table = correlation_table(read_dataset(args.data))
    # A tiny table with a string column: joined here, not by the column formatter.
    lines = [f"{name},{'degenerate' if r is None else r}\n" for name, r in table.items()]
    return ["feature,r\n", *lines], []


def _cmd_composition(args) -> _Output:
    from .experiment import composition_analysis
    from .ingest import read_dataset
    from .output import _csv_chunks

    report = composition_analysis(read_dataset(args.data))
    columns = [report.heights, report.transparent_in, report.spend_output, report.joinsplit]
    table = map(bytes.decode, _csv_chunks("height,transparent_in,spend_output,joinsplit", columns))
    mean = report.mean_transparent_in
    means = [] if mean is None else [f"mean,{mean},{report.mean_spend_output},{report.mean_joinsplit}\n"]
    notes = [f"excluded {report.n_excluded} block(s) with no verification items"] if report.n_excluded else []
    return itertools.chain(table, means), notes


def _write_stdout(texts: Iterable[str]) -> None:
    """Write a payload to stdout and flush it: every stdout payload goes through here."""
    _write(sys.stdout, "stdout", texts)


def _write_stderr(lines: Iterable[str]) -> None:
    """Write each line to stderr and flush it: every stderr line goes through here. A closed
    or unwritable stderr drops them, and the exit code stays what it was."""
    with contextlib.suppress(OSError):
        _write(sys.stderr, "stderr", (line + "\n" for line in lines))


def _write(stream, name: str, texts: Iterable[str]) -> None:
    if stream is None:  # the process started with the stream closed
        raise OSError(errno.EBADF, f"{name} is closed")
    try:
        stream.writelines(texts)
        stream.flush()
    except OSError:
        # A full disk or a closed pipe. The text not written stays in the buffer, and the flush at
        # exit would fail on it again: as the signal module's docs advise, point it at devnull.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="joist",
        description="Model, fit, and evaluate blockchain block-verification time "
        "from per-block transaction features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fetch", help="fetch per-block features from a node into a CSV")
    p.add_argument("--from", dest="from_height", type=int, required=True, metavar="H")
    p.add_argument("--to", dest="to_height", type=int, required=True, metavar="H")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--parallel", type=int, default=4, metavar="N")
    p.set_defaults(func=_cmd_fetch)

    p = sub.add_parser("synth", help="generate a synthetic dataset from a JSON recipe")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit model coefficients by least squares")
    p.add_argument("--kind", required=True, choices=["joist", "block_size"])
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="MODEL")
    p.add_argument("--seed", type=int, metavar="S", help="fit on a seeded split instead of all data")
    p.add_argument("--n-fit", type=int, metavar="K", help="fit-set size when --seed is given")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="write measured-vs-predicted plot data")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a model on a dataset (JSON on stdout)")
    p.add_argument("--model", required=True, metavar="MODEL")
    p.add_argument("--data", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="fit and compare model kinds on a seeded split")
    p.add_argument("--data", required=True, metavar="FILE")
    p.add_argument("--seed", type=int, required=True, metavar="S")
    p.add_argument("--n-fit", type=int, required=True, metavar="K")
    p.add_argument("--baseline-gervais", action="store_true", help="include the fixed-rate baseline")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("correlate", help="feature-vs-time correlation table")
    p.add_argument("--data", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("composition", help="per-block verification-item composition ratios")
    p.add_argument("--data", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_composition)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)  # inside the try: help is written through _write_stdout
        stdout, notes = args.func(args)
        if stdout:  # () from a command that writes only files, which runs with stdout closed too
            _write_stdout(stdout)
        _write_stderr(notes)  # after the payload, and not at all if it could not be written
        return EXIT_OK
    except SystemExit as exc:  # argparse, after help or a usage error
        return int(exc.code) if exc.code is not None else EXIT_OK
    except BrokenPipeError:  # the reader of a pipe is gone: exit as SIGPIPE would
        return EXIT_BROKEN_PIPE
    except (_UsageError, JoistError, OSError) as exc:
        # One line per failure: a node's message or a file name may hold line breaks.
        _write_stderr([f"error: {_shortened(str(exc)).translate(_LINE_BREAKS)}"])
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    except KeyboardInterrupt:
        _write_stderr(["interrupted"])
        return EXIT_INTERRUPTED


def run() -> None:
    """The ``joist`` command: :func:`main` with OpenBLAS on one thread and the cyclic GC off,
    then flush stdout and stderr and end the process with its code.

    A fit gains nothing from BLAS threads, an idle OpenBLAS worker spin-waits on a CPU the
    interpreter needs, and a fixed count keeps large fits' bytes from depending on the machine.
    OpenBLAS reads the variable once, when numpy loads, which no command has done yet.

    A command is one short process whose files are closed when :func:`main` returns, so the
    cyclic collections that numpy's import sets off and the interpreter's teardown (clearing
    every module, then more full collections) do work no one uses. Once stdout and stderr are
    flushed the process ends at once, without ``atexit`` hooks, as multiprocessing's forked
    children do; a flush that fails is left to :func:`sys.exit`, which reports it.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with the stream closed
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
