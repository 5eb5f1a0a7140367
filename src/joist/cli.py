"""Command-line front end.

Machine-readable payloads (CSV or single-line JSON) go to stdout; everything
else goes to stderr. Exit codes: 0 success, 1 usage error, 2 data/integrity
error, 3 remote/transport error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np

from . import experiment, models
from .errors import FormatError, JoistError, NumericalError, RemoteError
from .experiment import SplitPlan, SynthSpec
from .fit import ols_fit
from .stats import evaluate
from .ingest import (
    MAX_PARALLEL,
    RpcEndpoint,
    fetch_block_features,
    read_dataset,
    write_dataset,
    write_features_csv,
)
from .models import GERVAIS_BASELINE, ModelKind, load_model, n_predictors, predict, save_model

ENV_RPC_URL = "JOIST_RPC_URL"
ENV_RPC_USER = "JOIST_RPC_USER"
ENV_RPC_PASS = "JOIST_RPC_PASS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REMOTE = 3
EXIT_NUMERICAL = 4


class _UsageError(Exception):
    pass


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
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _endpoint_from_env(parallel: int) -> RpcEndpoint:
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


def _cmd_fetch(args) -> int:
    if not 1 <= args.parallel <= MAX_PARALLEL:
        raise _UsageError(f"--parallel must be in 1..{MAX_PARALLEL}")
    endpoint = _endpoint_from_env(parallel=args.parallel)
    features = fetch_block_features(endpoint, (args.from_height, args.to_height))
    write_features_csv(features, args.out)
    print(
        f"wrote {len(features['height'])} feature rows to {args.out}; verify_time_us is "
        "zero-filled and the file is unusable for fitting until measured times are merged",
        file=sys.stderr,
    )
    return EXIT_OK


def _synth_spec_from_json(doc) -> SynthSpec:
    if not isinstance(doc, Mapping):
        raise FormatError("synthesis spec must be a JSON object")
    true_model_doc = doc.get("true_model")
    if true_model_doc is None:
        raise FormatError('synthesis spec missing "true_model"')
    true_model = models.from_json_dict(true_model_doc)

    noise = models.finite_float(doc.get("noise_sigma_us"), 'synthesis spec missing finite numeric "noise_sigma_us"')

    ranges_doc = doc.get("count_ranges")
    if not isinstance(ranges_doc, Mapping):
        raise FormatError('synthesis spec missing "count_ranges" object')
    ranges = {}
    for name, pair in ranges_doc.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise FormatError(f"count range for {name!r} must be a [lo, hi] pair")
        lo, hi = pair
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in pair):
            raise FormatError(f"count range for {name!r} must hold integers")
        ranges[str(name)] = (lo, hi)

    n_blocks = doc.get("n_blocks")
    if not isinstance(n_blocks, int) or isinstance(n_blocks, bool):
        raise FormatError('synthesis spec missing integer "n_blocks"')
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise FormatError('synthesis spec missing integer "seed"')

    return SynthSpec(
        true_model=true_model,
        noise_sigma_us=noise,
        count_ranges=ranges,
        n_blocks=n_blocks,
        seed=seed,
    )


def _cmd_synth(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{args.spec}: not valid JSON: {exc}") from exc
    spec = _synth_spec_from_json(doc)
    ds = experiment.generate_synthetic(spec)
    write_dataset(ds, args.out)
    print(f"wrote {len(ds)} synthetic samples to {args.out}", file=sys.stderr)
    return EXIT_OK


def _cmd_fit(args) -> int:
    if (args.seed is None) != (args.n_fit is None):
        raise _UsageError("--seed and --n-fit must be given together")
    ds = read_dataset(args.data)
    if args.seed is not None:
        plan = SplitPlan(seed=args.seed, n_fit=args.n_fit, n_predict=len(ds) - args.n_fit)
        train, _ = experiment.split(ds, plan)
    else:
        train = ds
    result = ols_fit(ModelKind(args.kind), train)
    save_model(result.model, args.out)
    if result.condition_warning:
        print(f"warning: {result.condition_warning}", file=sys.stderr)
    print(
        f"fit {args.kind} on {result.n_samples} samples "
        f"(rss={result.residual_sum_squares:.6g}); model written to {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = read_dataset(args.data)
    experiment.emit_plot_data(ds, model, args.out)
    print(f"wrote plot data to {args.out} (regression line in {args.out}.line.json)", file=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = read_dataset(args.data)
    report = evaluate(ds.verify_time_us, predict(model, ds), n_predictors(model.kind))
    print(json.dumps(asdict(report)))
    return EXIT_OK


def _cmd_compare(args) -> int:
    ds = read_dataset(args.data)
    plan = SplitPlan(seed=args.seed, n_fit=args.n_fit, n_predict=len(ds) - args.n_fit)
    baselines = (GERVAIS_BASELINE,) if args.baseline_gervais else ()
    rows = experiment.run_comparison(
        ds, plan, kinds=(ModelKind.JOIST, ModelKind.BLOCK_SIZE), baselines=baselines
    )
    print("\n".join(experiment.comparison_csv_lines(rows)))
    return EXIT_OK


def _cmd_correlate(args) -> int:
    ds = read_dataset(args.data)
    table = experiment.correlation_table(ds)
    lines = ["feature,r"]
    for name, r in table.items():
        lines.append(f"{name},{'degenerate' if r is None else r}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_composition(args) -> int:
    ds = read_dataset(args.data)
    report = experiment.composition_analysis(ds)
    heights = map(str, report.heights.tolist())
    shares = map(_float_strs, (report.transparent_in, report.spend_output, report.joinsplit))
    lines = ["height,transparent_in,spend_output,joinsplit"]
    lines.extend(map(",".join, zip(heights, *shares)))
    if report.mean_transparent_in is not None:
        lines.append(
            f"mean,{report.mean_transparent_in},{report.mean_spend_output},{report.mean_joinsplit}"
        )
    print("\n".join(lines))
    if report.n_excluded:
        print(
            f"excluded {report.n_excluded} block(s) with no verification items",
            file=sys.stderr,
        )
    return EXIT_OK


def _float_strs(values: np.ndarray) -> list[str]:
    """str() of each float64 value, formatting each distinct bit pattern once.

    Shares of small counts repeat a lot, and formatting dominates the cost.
    """
    distinct, index = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([str(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    return text[index].tolist()


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
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (_UsageError, JoistError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
