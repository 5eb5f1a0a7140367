from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import joist

from joist import ModelKind, ModelSpec, load_model, read_dataset, save_model
from joist.cli import main
from joist.ingest import CSV_HEADER

from conftest import (
    COINBASE_WITH_INPUT_HEIGHT,
    RPC_PASS,
    RPC_USER,
    STRING_ERROR_HEIGHT,
    ZERO_SIZE_HEIGHT,
    make_dataset,
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


@pytest.mark.parametrize("height", [ZERO_SIZE_HEIGHT, COINBASE_WITH_INPUT_HEIGHT])
def test_fetch_invalid_block_record_is_data_error_naming_the_block(monkeypatch, tmp_path, rpc_server, capsys, height):
    _set_rpc_env(monkeypatch, rpc_server)
    out = tmp_path / "f.csv"
    code = main(["fetch", "--from", str(height), "--to", str(height), "--out", str(out)])
    assert code == 2
    assert f"error: block {height}: " in capsys.readouterr().err
    assert not out.exists()


def test_fetch_unreachable_node_is_remote_error(monkeypatch, tmp_path, closed_port_url, capsys):
    _set_rpc_env(monkeypatch, closed_port_url)
    code = main(["fetch", "--from", "100", "--to", "100", "--out", str(tmp_path / "f.csv")])
    assert code == 3
    capsys.readouterr()


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


def test_cli_import_loads_no_http_stack():
    # The transport imports its HTTP modules and fetch its thread pool on
    # first use, so commands other than fetch do not pay for them at start-up.
    src = str(Path(joist.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, joist.cli; print(sorted({'requests', 'urllib.request', 'http.client', 'concurrent.futures', 'logging'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "[]"
