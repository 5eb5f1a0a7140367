from __future__ import annotations

import gc
import json
import subprocess
import sys

import numpy as np
import pytest

import joist
import joist.cli

from joist import ModelKind, ModelSpec, load_model, read_dataset, save_model
from joist.cli import main
from joist.features import COLUMNS
from joist.ingest import CSV_HEADER

from conftest import (
    COINBASE_WITH_INPUT_HEIGHT,
    RPC_PASS,
    RPC_USER,
    STRING_ERROR_HEIGHT,
    TXID_ENTRY_HEIGHT,
    ZERO_SIZE_HEIGHT,
    make_dataset,
    subprocess_env,
)
from joist import write_dataset

_TRUTH = ModelSpec(
    ModelKind.JOIST,
    {"joinsplit": 100.0, "output": 50.0, "transparent_in": 10.0, "spend": 200.0},
    5000.0,
)


def _write_synth_spec(path, n_blocks=400, noise=0.0, seed=42):
    doc = {
        "true_model": {
            "kind": "joist",
            "coefficients": dict(_TRUTH.coefficients),
            "intercept_us": _TRUTH.intercept_us,
            "schema_version": 1,
        },
        "noise_sigma_us": noise,
        "count_ranges": {
            "joinsplit": [0, 5],
            "output": [0, 20],
            "transparent_in": [0, 200],
            "spend": [0, 10],
        },
        "n_blocks": n_blocks,
        "seed": seed,
    }
    path.write_text(json.dumps(doc))


@pytest.fixture()
def synth_data(tmp_path):
    spec_path = tmp_path / "spec.json"
    data_path = tmp_path / "data.csv"
    _write_synth_spec(spec_path)
    assert main(["synth", "--spec", str(spec_path), "--out", str(data_path)]) == 0
    return data_path


def test_synth_writes_a_valid_dataset(synth_data):
    ds = read_dataset(synth_data)
    assert len(ds) == 400


def test_fit_recovers_truth_and_writes_model(tmp_path, synth_data, capsys):
    model_path = tmp_path / "model.json"
    code = main(["fit", "--kind", "joist", "--data", str(synth_data), "--out", str(model_path)])
    assert code == 0
    err = capsys.readouterr().err
    assert "400 samples" in err
    model = load_model(model_path)
    for name, value in _TRUTH.coefficients.items():
        assert model.coefficients[name] == pytest.approx(value, rel=1e-6)


def test_fit_on_seeded_split(tmp_path, synth_data, capsys):
    model_path = tmp_path / "model.json"
    code = main(
        [
            "fit",
            "--kind",
            "joist",
            "--data",
            str(synth_data),
            "--out",
            str(model_path),
            "--seed",
            "9",
            "--n-fit",
            "150",
        ]
    )
    assert code == 0
    assert "150 samples" in capsys.readouterr().err


def test_fit_seed_without_n_fit_is_usage_error(tmp_path, synth_data, capsys):
    code = main(
        ["fit", "--kind", "joist", "--data", str(synth_data), "--out", str(tmp_path / "m.json"), "--seed", "9"]
    )
    assert code == 1
    assert "--n-fit" in capsys.readouterr().err


def test_evaluate_perfect_model_reports_zero_error(tmp_path, synth_data, capsys):
    model_path = tmp_path / "true_model.json"
    save_model(_TRUTH, model_path)
    code = main(["evaluate", "--model", str(model_path), "--data", str(synth_data)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    report = json.loads(out)
    assert report["mae_us"] == 0.0
    assert report["emr"] == 0.0
    assert report["r2"] == 1.0
    assert report["n"] == 400
    assert set(report) == {
        "n",
        "mae_us",
        "emr",
        "r2",
        "adj_r2",
        "max_abs_error_us",
        "max_prediction_us",
        "n_exceeding_max_prediction",
        "mean_observed_us",
    }


def test_compare_joist_dominates_and_is_deterministic(synth_data, capsys):
    argv = [
        "compare",
        "--data",
        str(synth_data),
        "--seed",
        "3",
        "--n-fit",
        "100",
        "--baseline-gervais",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second

    lines = first.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "model"
    rows = {fields[0]: fields for fields in (line.split(",") for line in lines[1:])}
    assert set(rows) == {"joist", "block_size", "fixed_rate"}
    mae_ix, r2_ix = header.index("mae_us"), header.index("r2")
    for other in ("block_size", "fixed_rate"):
        assert float(rows["joist"][mae_ix]) < float(rows[other][mae_ix])
        assert float(rows["joist"][r2_ix]) > float(rows[other][r2_ix])


def test_evaluate_constant_times_maps_to_numerical_exit(tmp_path, capsys):
    rows = [(h, 400 + h, h % 7, 0, h % 2, h % 5, h % 3, 1000) for h in range(1, 21)]
    data_path = tmp_path / "flat_times.csv"
    write_dataset(make_dataset(rows), data_path)
    model_path = tmp_path / "m.json"
    save_model(_TRUTH, model_path)
    code = main(["evaluate", "--model", str(model_path), "--data", str(data_path)])
    assert code == 4
    assert "constant" in capsys.readouterr().err


def test_fit_constant_spend_column_maps_to_numerical_exit(tmp_path, capsys):
    rows = [(h, 500 + h, h % 7, 0, 0, h % 5, h % 3, 100 + 13 * h) for h in range(1, 31)]
    data_path = tmp_path / "flat.csv"
    write_dataset(make_dataset(rows), data_path)
    code = main(["fit", "--kind", "joist", "--data", str(data_path), "--out", str(tmp_path / "m.json")])
    assert code == 4
    assert "spend" in capsys.readouterr().err


def test_predict_writes_plot_data_and_sidecar(tmp_path, synth_data):
    model_path = tmp_path / "true_model.json"
    save_model(_TRUTH, model_path)
    out = tmp_path / "plot.csv"
    code = main(["predict", "--model", str(model_path), "--data", str(synth_data), "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "height,measured_us,predicted_us"
    line = json.loads((tmp_path / "plot.csv.line.json").read_text())
    assert line["slope"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "coefficient, message",
    [(1e160, "square is beyond float range"), (1e307, "30 of 30 predictions are not finite")],
)
def test_overflowing_predictions_are_numerical_errors(tmp_path, capsys, coefficient, message):
    # 1e160 gives finite predictions whose squared errors overflow; 1e307
    # gives infinite predictions.
    rows = [(h, 1000 + h, 100 + h, 101 + h, h % 3, h % 5, h % 2, 50 + 13 * h) for h in range(1, 31)]
    data_path = tmp_path / "data.csv"
    write_dataset(make_dataset(rows), data_path)
    model_path = tmp_path / "m.json"
    save_model(ModelSpec(ModelKind.JOIST, dict.fromkeys(_TRUTH.coefficients, coefficient), 0.0), model_path)
    assert main(["evaluate", "--model", str(model_path), "--data", str(data_path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    out = tmp_path / "plot.csv"
    assert main(["predict", "--model", str(model_path), "--data", str(data_path), "--out", str(out)]) == 4
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "plot.csv.line.json").exists()


@pytest.mark.parametrize(
    "coefficient, code, message",
    [(1e308, 4, "1 of 1 predictions are not finite"), (1.0, 2, "at least 2 observations")],
)
def test_evaluate_one_row_checks_predictions_before_count(tmp_path, capsys, coefficient, code, message):
    data_path = tmp_path / "one.csv"
    write_dataset(make_dataset([(1, 1000, 100, 101, 1, 1, 1, 50)]), data_path)
    model_path = tmp_path / "m.json"
    save_model(ModelSpec(ModelKind.JOIST, dict.fromkeys(_TRUTH.coefficients, coefficient), 0.0), model_path)
    assert main(["evaluate", "--model", str(model_path), "--data", str(data_path)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_correlate_flags_degenerate_columns(tmp_path, capsys):
    rows = [(h, 100 + h, h % 5, 1 + h % 4, 0, h % 3, h % 2, 50 + 13 * h) for h in range(1, 41)]
    data_path = tmp_path / "data.csv"
    write_dataset(make_dataset(rows), data_path)
    assert main(["correlate", "--data", str(data_path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "feature,r"
    table = dict(line.split(",") for line in out[1:])
    assert table["spend"] == "degenerate"
    assert table["transparent_in"] != "degenerate"
    assert list(table) == ["transparent_in", "transparent_out", "spend", "output", "joinsplit"]


def test_composition_emits_rows_and_mean(tmp_path, capsys):
    rows = [
        (1, 100, 9, 0, 1, 0, 0, 10),
        (2, 100, 0, 2, 0, 0, 0, 10),
        (3, 100, 1, 0, 0, 0, 1, 10),
    ]
    data_path = tmp_path / "data.csv"
    write_dataset(make_dataset(rows), data_path)
    assert main(["composition", "--data", str(data_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "height,transparent_in,spend_output,joinsplit"
    assert lines[1].startswith("1,0.9,0.1,")
    assert lines[-1].startswith("mean,")
    assert "excluded 1 block" in captured.err


def test_missing_data_file_is_data_error(tmp_path, capsys):
    code = main(["correlate", "--data", str(tmp_path / "absent.csv")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_header_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("h,s\n1,2\n")
    assert main(["correlate", "--data", str(path)]) == 2
    assert CSV_HEADER in capsys.readouterr().err


def test_duplicate_height_names_its_line(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text(
        CSV_HEADER
        + "\n100,285,0,2,0,0,0,1807\n101,1523,2,4,1,4,0,95321\n102,4820,1,4,0,0,3,41002\n101,900,0,1,0,0,0,500\n"
    )
    assert main(["correlate", "--data", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}:5: duplicate height 101 (first on line 3)" in captured.err


def test_undecodable_data_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_bytes(CSV_HEADER.encode() + b"\n1,2,0,0,0,0,0,\xe9\n")
    assert main(["correlate", "--data", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_model_values_are_data_errors(tmp_path, synth_data, capsys, value):
    model_path = tmp_path / "m.json"
    model_path.write_text(
        '{"kind": "block_size", "coefficients": {"byte": 1.5}, "intercept_us": %s, "schema_version": 1}' % value
    )
    assert main(["evaluate", "--model", str(model_path), "--data", str(synth_data)]) == 2
    assert "intercept_us" in capsys.readouterr().err


@pytest.mark.parametrize(
    "noise, message",
    [
        ("NaN", "noise_sigma_us"),
        ("Infinity", "noise_sigma_us"),
        ("1" + "0" * 400, "noise_sigma_us"),
        ("1e308", "drawn verify_time_us"),
    ],
)
def test_synth_non_finite_or_overflowing_noise_is_data_error(tmp_path, capsys, noise, message):
    spec_path = tmp_path / "spec.json"
    _write_synth_spec(spec_path, n_blocks=50)
    spec_path.write_text(spec_path.read_text().replace('"noise_sigma_us": 0.0', f'"noise_sigma_us": {noise}'))
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_synth_boolean_count_bound_is_data_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    _write_synth_spec(spec_path, n_blocks=50)
    spec_path.write_text(spec_path.read_text().replace('"joinsplit": [0, 5]', '"joinsplit": [false, true]'))
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert "count range for 'joinsplit' must hold integers" in capsys.readouterr().err
    assert not out.exists()


# Each size fails before any memory is touched: 2**62 and 10**20 in numpy's
# array size check, 2**50 (a 64 PiB draw buffer) beyond the user address space.
@pytest.mark.parametrize("n_blocks", [2**62, 10**20, 2**50])
def test_synth_huge_n_blocks_is_data_error(tmp_path, capsys, n_blocks):
    spec_path = tmp_path / "spec.json"
    _write_synth_spec(spec_path, n_blocks=n_blocks)
    out = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert f"n_blocks {n_blocks}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_undecodable_spec_is_data_error(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_bytes(b'{"n_blocks": "\xff"}')
    assert main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "d.csv")]) == 2
    capsys.readouterr()


_DATA_ROW = "100,285,0,2,0,0,0,1807"


@pytest.mark.parametrize(
    "command, data, doc, message",
    [
        ("composition", "-3,285,0,2,0,0,0,1807", None, "data.csv:2: height must be >= 0, got -3"),
        ("composition", "100," + "9" * 5000 + ",0,2,0,0,0,1807", None, "is outside the int64 range"),
        ("evaluate", _DATA_ROW, '{"kind": "block_size", "intercept_us": ' + "9" * 5001 + "}", "not valid JSON"),
        ("evaluate", _DATA_ROW, "[" * 200_000, "not valid JSON"),
        ("synth", None, '{"n_blocks": ' + "9" * 5001 + "}", "not valid JSON"),
        ("synth", None, "[" * 200_000, "not valid JSON"),
    ],
    ids=["negative-height", "long-csv-field", "long-model-number", "deep-model", "long-spec-number", "deep-spec"],
)
def test_boundary_inputs_are_one_line_data_errors(tmp_path, capsys, command, data, doc, message):
    data_path, doc_path = tmp_path / "data.csv", tmp_path / "doc.json"
    if data is not None:
        data_path.write_text(f"{CSV_HEADER}\n{data}\n")
    if doc is not None:
        doc_path.write_text(doc)
    argv = {
        "composition": ["composition", "--data", str(data_path)],
        "evaluate": ["evaluate", "--model", str(doc_path), "--data", str(data_path)],
        "synth": ["synth", "--spec", str(doc_path), "--out", str(data_path)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["fit", "--bogus"]) == 1
    assert main(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "fetch" in capsys.readouterr().out


# -- fetch ---------------------------------------------------------------------

def _set_rpc_env(monkeypatch, url, password=RPC_PASS):
    monkeypatch.setenv("JOIST_RPC_URL", url)
    monkeypatch.setenv("JOIST_RPC_USER", RPC_USER)
    monkeypatch.setenv("JOIST_RPC_PASS", password)


def test_fetch_requires_environment(monkeypatch, tmp_path, capsys):
    for name in ("JOIST_RPC_URL", "JOIST_RPC_USER", "JOIST_RPC_PASS"):
        monkeypatch.delenv(name, raising=False)
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 1
    assert "JOIST_RPC_URL" in capsys.readouterr().err


@pytest.mark.parametrize("parallel", ["0", "65", str(10**9)])
def test_fetch_parallel_out_of_range_is_usage_error(monkeypatch, tmp_path, closed_port_url, capsys, parallel):
    # Exit 1 rather than 3 shows the bound is checked before the node is contacted.
    _set_rpc_env(monkeypatch, closed_port_url)
    out = tmp_path / "f.csv"
    code = main(["fetch", "--from", "100", "--to", "102", "--out", str(out), "--parallel", parallel])
    assert code == 1
    assert "--parallel must be in 1..64" in capsys.readouterr().err
    assert not out.exists()


def test_fetch_writes_zero_filled_features(monkeypatch, tmp_path, rpc_server, capsys):
    _set_rpc_env(monkeypatch, rpc_server)
    out = tmp_path / "features.csv"
    code = main(["fetch", "--from", "100", "--to", "102", "--out", str(out), "--parallel", "2"])
    assert code == 0
    assert out.read_bytes() == (
        f"{CSV_HEADER}\n"
        "100,285,0,2,0,0,0,0\n"
        "101,1523,2,4,1,4,0,0\n"
        "102,4820,1,4,0,0,3,0\n"
    ).encode()
    assert capsys.readouterr().err == (
        f"wrote 3 feature rows to {out}; verify_time_us is zero-filled "
        "and the file is unusable for fitting until measured times are merged\n"
    )


def test_fetch_bad_credentials_is_remote_error(monkeypatch, tmp_path, rpc_server, capsys):
    _set_rpc_env(monkeypatch, rpc_server, password="wrong")
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 3
    capsys.readouterr()


def test_fetch_unknown_height_is_data_error(monkeypatch, tmp_path, rpc_server, capsys):
    _set_rpc_env(monkeypatch, rpc_server)
    code = main(["fetch", "--from", "900", "--to", "901", "--out", str(tmp_path / "f.csv")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("height", [ZERO_SIZE_HEIGHT, COINBASE_WITH_INPUT_HEIGHT, TXID_ENTRY_HEIGHT])
def test_fetch_invalid_block_record_is_data_error_naming_the_block(monkeypatch, tmp_path, rpc_server, capsys, height):
    _set_rpc_env(monkeypatch, rpc_server)
    out = tmp_path / "f.csv"
    code = main(["fetch", "--from", str(height), "--to", str(height), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: block {height}: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize(
    "message, shown",
    [
        ("out of range\nerror: second line", r"out of range\nerror: second line"),
        ("out of range\r\nerror: second line", r"out of range\r\nerror: second line"),
        ("a\rb \\n c", r"a\rb \n c"),
    ],
    ids=["lf", "crlf", "cr-and-backslash"],
)
def test_fetch_prints_one_error_line_for_a_node_message_with_line_breaks(
    monkeypatch, tmp_path, drawn_reply_server, capsys, message, shown
):
    url, served = drawn_reply_server
    _set_rpc_env(monkeypatch, url)
    error = {"code": -8, "message": message}
    served[:] = [(500, json.dumps({"result": None, "error": error, "id": "joist"}).encode(), 0)]
    code = main(["fetch", "--from", "7", "--to", "7", "--out", str(tmp_path / "f.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: height 7 unknown to node: {shown}\n"


def test_a_file_name_with_a_line_break_is_shown_on_one_error_line(tmp_path, capsys):
    model = tmp_path / "model\n.json"
    model.write_text("{")
    data = tmp_path / "data.csv"
    data.write_text(f"{CSV_HEADER}\n{_DATA_ROW}")
    assert main(["evaluate", "--model", str(model), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path}/model\\n.json: not valid JSON") and err.count("\n") == 1, err


def test_fetch_unreachable_node_is_remote_error(monkeypatch, tmp_path, closed_port_url, capsys):
    _set_rpc_env(monkeypatch, closed_port_url)
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 3
    capsys.readouterr()


@pytest.mark.parametrize("to", [str(2**63 - 1), "10000000000000000000"])
def test_fetch_range_too_large_to_hold_is_data_error(monkeypatch, tmp_path, closed_port_url, capsys, to):
    # Exit 2 rather than 3 shows the range is refused before the node is contacted.
    _set_rpc_env(monkeypatch, closed_port_url)
    out = tmp_path / "f.csv"
    assert main(["fetch", "--from", "0", "--to", to, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: height range [0, ", "error: height must be <= ")) and err.count("\n") == 1, err
    assert not out.exists()


def test_fetch_non_object_rpc_error_is_remote_error(monkeypatch, tmp_path, rpc_server, capsys):
    _set_rpc_env(monkeypatch, rpc_server)
    h = str(STRING_ERROR_HEIGHT)
    code = main(["fetch", "--from", h, "--to", h, "--out", str(tmp_path / "f.csv")])
    assert code == 3
    assert "malformed RPC error" in capsys.readouterr().err


def test_fetch_non_http_url_is_remote_error(monkeypatch, tmp_path, capsys):
    _set_rpc_env(monkeypatch, "file:///etc/hostname")
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 3
    assert "http:// or https://" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


def test_fetch_non_ascii_password_is_sent_as_utf8(monkeypatch, tmp_path, rpc_server, capsys):
    _set_rpc_env(monkeypatch, rpc_server, password="p\u00e4ssw\u00f6rd\u20ac")
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 3
    assert "authentication rejected" in capsys.readouterr().err


def test_fetch_ignores_proxy_settings(tmp_path, rpc_server, closed_port_url):
    # Through a proxy at a closed port every request would fail, and the proxy would get the credentials.
    # A fresh process, so that no earlier request in this one has read the environment already.
    proxies = dict.fromkeys(["http_proxy", "https_proxy", "HTTP_PROXY", "HTTPS_PROXY"], closed_port_url)
    env = {k: v for k, v in subprocess_env().items() if k.lower() != "no_proxy"} | proxies
    env |= {"JOIST_RPC_URL": rpc_server, "JOIST_RPC_USER": RPC_USER, "JOIST_RPC_PASS": RPC_PASS}
    out = tmp_path / "f.csv"
    argv = [sys.executable, "-m", "joist.cli", "fetch", "--from", "100", "--to", "100", "--out", str(out)]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert out.read_text().splitlines()[1] == "100,285,0,2,0,0,0,0"


# Modules that only a command's own work needs: `import joist`, `--help` and a usage error load none.
_COMMAND_MODULES = {"numpy", *(f"joist.{m}" for m in ("experiment", "features", "fit", "ingest", "models", "output", "rng", "stats"))}
_HTTP_STACK = {"requests", "urllib.request", "http.client", "concurrent.futures", "logging"}


@pytest.mark.parametrize(
    "statement, exit_code, absent",
    [
        ("import joist", 0, _COMMAND_MODULES),
        ("import joist.cli", 0, _COMMAND_MODULES),
        ("import joist.cli; code = joist.cli.main(['--help'])", 0, _COMMAND_MODULES),
        ("import joist.cli; code = joist.cli.main(['fit'])", 1, _COMMAND_MODULES),
        (
            "import joist.cli; code = joist.cli.main(['evaluate', '--model', MODEL, '--data', DATA])",
            0,
            {"joist.experiment", "joist.fit", "joist.rng"},
        ),
        (
            "import joist.cli; code = joist.cli.main(['fit', '--kind', 'block_size', '--data', DATA, '--out', MODEL])",
            0,
            {"joist.experiment", "joist.rng", "joist.stats"},
        ),
    ],
    ids=["import-joist", "import-cli", "help", "usage-error", "evaluate", "fit"],
)
def test_cli_import_loads_no_http_stack(tmp_path, statement, exit_code, absent):
    # The transport imports its HTTP modules and fetch its thread pool on first use,
    # and each command the joist modules it uses when it runs, so that start-up pays
    # for neither. Each probe runs in a fresh interpreter.
    model, data = tmp_path / "model.json", tmp_path / "data.csv"
    save_model(_TRUTH, model)
    write_dataset(make_dataset([(h, 900 + h, h % 3, h % 4, h % 2, h % 5, h % 3, 5000 + 97 * h) for h in range(8)]), data)
    probe = "\n".join([
        "import sys",
        f"MODEL, DATA, code = {str(model)!r}, {str(data)!r}, 0",
        statement,
        "print(','.join(sorted(sys.modules)), file=sys.stderr)",
        "sys.exit(code)",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert result.returncode == exit_code, result.stderr
    loaded = set(result.stderr.splitlines()[-1].split(","))
    assert "joist.errors" in loaded
    assert loaded & absent == set()
    assert loaded & _HTTP_STACK == set()


# Modules a command never calls, which its start would pay for; no command loads dataclasses.
_ANALYSIS_SKIPS = {"joist.fit", "joist.models", "joist.rng", "json", "numpy.char"}
_NOT_LOADED_BY = {
    "synth": {"joist.fit", "joist.stats"},
    "fit": set(),
    "evaluate": set(),
    "predict": set(),
    "compare": set(),
    "correlate": _ANALYSIS_SKIPS,
    "composition": _ANALYSIS_SKIPS,
    "fetch": set(),
    "--help": {"json", "numpy"},
}


@pytest.mark.parametrize("command", _NOT_LOADED_BY)
def test_command_loads_only_what_it_runs(tmp_path, rpc_server, command):
    spec, data, model, out = (str(tmp_path / name) for name in ("spec.json", "data.csv", "model.json", "out.csv"))
    _write_synth_spec(tmp_path / "spec.json")
    assert main(["synth", "--spec", spec, "--out", data]) == 0
    save_model(_TRUTH, model)
    argv = {
        "synth": ["--spec", spec, "--out", out],
        "fit": ["--kind", "joist", "--data", data, "--out", model, "--seed", "1", "--n-fit", "200"],
        "evaluate": ["--model", model, "--data", data],
        "predict": ["--model", model, "--data", data, "--out", out],
        "compare": ["--data", data, "--seed", "1", "--n-fit", "200", "--baseline-gervais"],
        "correlate": ["--data", data],
        "composition": ["--data", data],
        "fetch": ["--from", "100", "--to", "102", "--out", out],
        "--help": [],
    }[command]
    probe = "\n".join([
        "import sys",
        "import joist.cli",
        f"code = joist.cli.main({[command, *argv]!r})",
        "print(','.join(sorted(sys.modules)), file=sys.stderr)",
        "sys.exit(code)",
    ])
    env = {**subprocess_env(), "JOIST_RPC_URL": rpc_server, "JOIST_RPC_USER": RPC_USER, "JOIST_RPC_PASS": RPC_PASS}
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stderr.splitlines()[-1].split(","))
    assert "joist.errors" in loaded
    assert "dataclasses" not in loaded
    assert loaded & _NOT_LOADED_BY[command] == set()


# ---------------------------------------------------------------------------
# stdout or stderr that cannot be written, and Ctrl-C
# ---------------------------------------------------------------------------


@pytest.fixture()
def two_chunk_data(tmp_path):
    """A 20,000-row dataset: its composition table spans three write chunks, far more than a pipe holds."""
    h = np.arange(20_000, dtype=np.int64)
    columns = [h, h + 900, h % 3, h % 4 + 1, h % 2, h % 5, h % 3, h + 1000]
    path = tmp_path / "data.csv"
    write_dataset(joist.Dataset(dict(zip(COLUMNS, columns))), path)
    return path


@pytest.mark.parametrize(
    "command, redirect, message",
    [
        ("composition --data", ">&-", "[Errno 9] stdout is closed"),
        ("composition --data", "> /dev/full", "[Errno 28] No space left on device"),
        ("--help", ">&-", "[Errno 9] stdout is closed"),
        ("--help", "> /dev/full", "[Errno 28] No space left on device"),
        ("fit --help", "> /dev/full", "[Errno 28] No space left on device"),
    ],
    ids=["closed", "full", "help-closed", "help-full", "subcommand-help-full"],
)
def test_unwritable_stdout_is_one_line_data_error(two_chunk_data, command, redirect, message):
    # Buffered, the text that could not be written would fail again in the flush at exit.
    script = f'exec "$0" -m joist.cli {command} "$1" {redirect}'
    for unbuffered in ("1", ""):
        result = subprocess.run(
            ["sh", "-c", script, sys.executable, str(two_chunk_data)],
            env=dict(subprocess_env(), PYTHONUNBUFFERED=unbuffered), capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_reader_closing_the_pipe_exits_as_sigpipe(two_chunk_data):
    with subprocess.Popen(
        [sys.executable, "-m", "joist.cli", "composition", "--data", str(two_chunk_data)],
        env=subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"height,transparent_in,spend_output,joinsplit\n"
        proc.stdout.close()  # as `| head -1` does
        stderr = proc.stderr.read()
        assert (proc.wait(timeout=60), stderr) == (141, b"")


_STDERR_REDIRECTS = [(c, r) for c in ("fit", "composition", "missing-data", "usage") for r in ("2>&-", "2>/dev/full")]


@pytest.mark.parametrize("command, redirect", [*_STDERR_REDIRECTS, ("fit", ">&-")])
def test_unwritable_stderr_keeps_stdout_and_exit_code(tmp_path, synth_data, capsys, command, redirect):
    composition_data = tmp_path / "composition.csv"  # its second block has no verification items
    write_dataset(make_dataset([(1, 100, 9, 0, 1, 0, 0, 10), (2, 100, 0, 2, 0, 0, 0, 10)]), composition_data)
    argv, code = {
        "fit": (["fit", "--kind", "joist", "--data", str(synth_data), "--out", str(tmp_path / "model.json")], 0),
        "composition": (["composition", "--data", str(composition_data)], 0),
        "missing-data": (["correlate", "--data", str(tmp_path / "absent.csv")], 2),
        "usage": (["correlate"], 1),
    }[command]
    assert main(argv) == code
    expected = capsys.readouterr()
    assert expected.err  # a diagnostic that the redirect drops when it is stderr's
    result = subprocess.run(
        ["sh", "-c", f'exec "$0" -m joist.cli "$@" {redirect}', sys.executable, *argv],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    if redirect.startswith("2"):
        assert (result.returncode, result.stdout, result.stderr) == (code, expected.out, "")
    else:  # stdout closed: a command with no payload writes none
        assert (result.returncode, result.stdout, result.stderr) == (code, "", expected.err)


def test_ctrl_c_exits_130_with_one_line(tmp_path, monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(joist.cli, "_cmd_correlate", interrupted)
    assert main(["correlate", "--data", str(tmp_path / "data.csv")]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


# ---------------------------------------------------------------------------
# The joist command's exit: flush, then end the process without teardown
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["composition", "predict"])
def test_command_writes_what_main_writes(two_chunk_data, tmp_path, capsys, command):
    # Buffered and piped, as in a shell pipeline: the process ends without the
    # interpreter's teardown, and nothing main wrote may be lost.
    model, out = tmp_path / "model.json", tmp_path / "plot.csv"
    save_model(_TRUTH, model)
    argv = {
        "composition": ["composition", "--data", str(two_chunk_data)],
        "predict": ["predict", "--model", str(model), "--data", str(two_chunk_data), "--out", str(out)],
    }[command]
    files = [out, tmp_path / "plot.csv.line.json"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    written = {path: path.read_bytes() for path in files if path.exists()}
    for path in written:
        path.unlink()
    result = subprocess.run(
        [sys.executable, "-m", "joist.cli", *argv],
        env=dict(subprocess_env(), PYTHONUNBUFFERED=""), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, expected.out, expected.err)
    assert {path: path.read_bytes() for path in files if path.exists()} == written
    if command == "composition":
        assert expected.out.splitlines()[-1].startswith("mean,")
        assert expected.err == "excluded 667 block(s) with no verification items\n"
    else:
        assert (expected.out, len(written)) == ("", 2)
        assert expected.err == f"wrote plot data to {out} (regression line in {out}.line.json)\n"


def test_main_leaves_the_cyclic_gc_as_it_found_it(two_chunk_data):
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            assert main(["composition", "--data", str(two_chunk_data)]) == 0
            assert main(["--help"]) == 0
            assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_run_flushes_text_left_in_the_stdout_buffer():
    probe = "import sys, joist.cli; print('pending'); sys.argv = ['joist', 'fit']; joist.cli.run()"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(subprocess_env(), PYTHONUNBUFFERED=""), capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout) == (1, "pending\n")


def test_failed_final_flush_is_reported_by_the_interpreter_exit():
    # stdout still holds text that cannot be written: run falls back to sys.exit, whose
    # own flush fails again and is reported as it is for any Python program.
    probe = "\n".join([
        "import sys, joist.cli",
        "sys.stdout = open('/dev/full', 'w', encoding='utf-8')",
        "print('pending')",
        "sys.argv = ['joist', 'fit']",
        "joist.cli.run()",
    ])
    result = subprocess.run(
        [sys.executable, "-c", probe], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    lines = result.stderr.splitlines()
    assert result.returncode == 120
    assert lines[-3].startswith("joist fit: error: the following arguments are required")
    assert lines[-2:] == [
        "Exception ignored in: <_io.TextIOWrapper name='/dev/full' mode='w' encoding='utf-8'>",
        "OSError: [Errno 28] No space left on device",
    ]
