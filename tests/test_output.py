"""Output files: the chunked CSV formatter and the crash-safe writer behind every output."""

from __future__ import annotations

import errno
import json
import os
import resource
import signal
import stat
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import joist.experiment
import joist.ingest
import joist.models
from joist import (
    emit_plot_data,
    read_dataset,
    save_model,
    write_dataset,
    write_features_csv,
)
from joist.cli import main
from joist.features import COLUMNS
from joist.ingest import CSV_HEADER
from joist.output import CHUNK_ROWS, _csv_chunks
from joist.output import TEMP_SUFFIX

from conftest import REFERENCE_JOIST, make_dataset

INT64_MAX = 2**63 - 1

# ---------------------------------------------------------------------------
# The formatter
# ---------------------------------------------------------------------------

# Every dataset value is a non-negative int64.
_BOUNDARIES = [0, 1, INT64_MAX - 1, INT64_MAX] + [10**k + d for k in range(1, 19) for d in (-1, 0, 1)]
# Plot predictions and composition shares are finite float64s; str() of some has an exponent.
_FLOAT_BOUNDARIES = [-0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308, -1.5, 0.1, 1 / 3, -2.5e-7, 123456.789]


def _percent_d(columns: list[np.ndarray]) -> bytes:
    """The CSV as a "%d" join of every int64 field and str() of every float64 field, header first."""
    line = ",".join("%s" if c.dtype == np.float64 else "%d" for c in columns) + "\n"
    body = (line * len(columns[0])) % tuple(v for row in zip(*(c.tolist() for c in columns)) for v in row)
    return (CSV_HEADER + "\n" + body).encode()


@st.composite
def tables(draw, floats=False):
    """Eight columns of 1 to 16,385 rows (about two write chunks), each from a few drawn values.

    The columns are non-negative int64. With *floats*, each is int64 or
    float64, and a float64 column may hold a distinct value in every row.
    """
    n = draw(st.sampled_from([1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in COLUMNS:
        kind = draw(st.sampled_from(["int64", "float64", "distinct"])) if floats else "int64"
        if kind == "distinct":
            columns.append(rng.standard_normal(n) * draw(st.sampled_from([1e-300, 1.0, 1e300])))
            continue
        values = st.sampled_from(_BOUNDARIES) | st.integers(0, INT64_MAX)
        if kind == "float64":
            values = st.sampled_from(_FLOAT_BOUNDARIES) | st.floats(allow_nan=False, allow_infinity=False)
        pool = draw(st.lists(values, min_size=1, max_size=12))
        columns.append(rng.choice(np.array(pool, dtype=kind), size=n))
    return columns


@settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=tables(floats=True))
# Floats that recur in each of three chunks, and a table with no rows (the header alone).
@example(columns=[np.arange(2 * CHUNK_ROWS + 1), np.resize(np.array(_FLOAT_BOUNDARIES), 2 * CHUNK_ROWS + 1)])
@example(columns=[np.empty(0, dtype=np.int64), np.empty(0)])
def test_formatter_equals_percent_d(columns):
    assert b"".join(_csv_chunks(CSV_HEADER, columns)) == _percent_d(columns)


@settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=tables(), first_height=st.sampled_from([0, 1, INT64_MAX - 2 * CHUNK_ROWS - 1]))
def test_written_dataset_equals_percent_d_and_reads_back(tmp_path, columns, first_height):
    n = len(columns[0])
    valid = [np.arange(n, dtype=np.int64) + first_height]
    for name, c in zip(COLUMNS[1:], columns[1:]):
        valid.append(np.maximum(c, 1) if name in ("size_bytes", "verify_time_us") else c)
    ds = joist.Dataset(dict(zip(COLUMNS, valid)))
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    assert path.read_bytes() == _percent_d(valid)
    assert read_dataset(path) == ds


# ---------------------------------------------------------------------------
# The crash-safe writer, through each of the package's four writers
# ---------------------------------------------------------------------------

_ROWS = [(h, 900 + 7 * h, h % 3, h % 4 + 1, h % 2, h % 5, h % 3, 1000 + 37 * h) for h in range(1, 41)]


def _write_dataset(path):
    write_dataset(make_dataset(_ROWS), path)


def _write_features(path):
    write_features_csv({c: [row[i] for row in _ROWS] for i, c in enumerate(COLUMNS[:-1])}, path)


def _save_model(path):
    save_model(REFERENCE_JOIST["ssd_5k"], path)


def _emit_plot_data(path):
    emit_plot_data(make_dataset(_ROWS), REFERENCE_JOIST["ssd_5k"], path)


_WRITERS = {
    "write_dataset": (_write_dataset, joist.ingest),
    "write_features_csv": (_write_features, joist.ingest),
    "save_model": (_save_model, joist.models),
    "emit_plot_data": (_emit_plot_data, joist.experiment),
}
_OLD = b"old bytes\n"


def _break_sources(monkeypatch, module, exc, only=None):
    """Make the chunk sources *module* hands to _atomic_write raise *exc* after their first chunk.

    With *only*, just the source of the output whose path ends in *only*.
    """
    real = module._atomic_write

    def broken(path, chunks):
        if only is not None and not str(path).endswith(only):
            yield from chunks
            return
        chunks = iter(chunks)
        yield next(chunks)
        raise exc

    def write(path, chunks, *more):
        real(path, broken(path, chunks), *((p, broken(p, c)) for p, c in more))

    monkeypatch.setattr(module, "_atomic_write", write)


@contextmanager
def _file_size_limit(n_bytes):
    """Within the block, a write that takes a file of this process past *n_bytes* fails with EFBIG."""
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    if hard != resource.RLIM_INFINITY and hard < n_bytes:
        pytest.skip("the hard file size limit is below the test's")
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (n_bytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def _outputs(path):
    return [path, path.with_name(path.name + ".line.json")] if path.name == "plot.csv" else [path]


@pytest.mark.parametrize("writer", _WRITERS)
@pytest.mark.parametrize("exc", [KeyboardInterrupt(), ValueError("broken source")], ids=["interrupt", "error"])
def test_source_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch, writer, exc):
    write, module = _WRITERS[writer]
    path = tmp_path / ("plot.csv" if writer == "emit_plot_data" else "out")
    for p in _outputs(path):
        p.write_bytes(_OLD)
    _break_sources(monkeypatch, module, exc)
    with pytest.raises(type(exc)):
        write(path)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {p.name: _OLD for p in _outputs(path)}


@pytest.mark.parametrize("writer", _WRITERS)
def test_write_error_keeps_the_old_file(tmp_path, writer):
    write, _ = _WRITERS[writer]
    path = tmp_path / ("plot.csv" if writer == "emit_plot_data" else "out")
    for p in _outputs(path):
        p.write_bytes(_OLD)
    with _file_size_limit(len(_OLD) + 5), pytest.raises(OSError) as info:
        write(path)
    assert info.value.errno == errno.EFBIG
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {p.name: _OLD for p in _outputs(path)}


def test_the_same_writes_succeed_without_the_limit(tmp_path):
    for name, (write, _) in _WRITERS.items():
        path = tmp_path / name
        path.write_bytes(_OLD)
        write(path)
        assert path.read_bytes() != _OLD


@pytest.mark.parametrize("failure", ["source", "directory"])
def test_plot_sidecar_failure_keeps_the_old_plot(tmp_path, monkeypatch, failure):
    plot, sidecar = tmp_path / "plot.csv", tmp_path / "plot.csv.line.json"
    plot.write_bytes(_OLD)
    if failure == "source":
        sidecar.write_bytes(_OLD)
        _break_sources(monkeypatch, joist.experiment, OSError(errno.ENOSPC, "no space"), only=".line.json")
    else:
        sidecar.mkdir()  # opening it for writing fails
    with pytest.raises(OSError):
        _emit_plot_data(plot)
    assert plot.read_bytes() == _OLD
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plot.csv", "plot.csv.line.json"]


@pytest.mark.parametrize("writer", _WRITERS)
@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_file_mode_matches_plain_open(tmp_path, writer, umask):
    write, _ = _WRITERS[writer]
    old = os.umask(umask)
    try:
        write(tmp_path / "plot.csv")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert set(modes.values()) == {0o666 & ~umask}, modes


@pytest.mark.parametrize("writer", _WRITERS)
def test_replaced_file_keeps_its_mode(tmp_path, writer):
    write, _ = _WRITERS[writer]
    path = tmp_path / "out"
    path.write_bytes(_OLD)
    path.chmod(0o640)
    write(path)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() != _OLD


def test_write_into_a_fifo_is_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        _write_dataset(fifo)  # the whole file fits the pipe buffer
        received = os.read(reader, 1 << 20)
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert received == _percent_d([np.array(c) for c in zip(*_ROWS)])


def _synth_spec(path):
    doc = {
        "true_model": {
            "kind": "joist",
            "coefficients": {"joinsplit": 5359.0, "output": 5727.0, "transparent_in": 61.0, "spend": 16913.0},
            "intercept_us": 4469.0,
            "schema_version": 1,
        },
        "noise_sigma_us": 10.0,
        "count_ranges": {"joinsplit": [0, 2], "output": [0, 3], "transparent_in": [0, 5], "spend": [0, 2]},
        "n_blocks": 50,
        "seed": 7,
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_synth_to_dev_null_exits_zero(tmp_path, monkeypatch, capsys):
    # A writer that wrongly renamed a file over /dev/null would, run as root, destroy the device.
    real_replace = os.replace

    def replace_within_tmp_path(src, dst):
        assert os.path.realpath(dst).startswith(str(tmp_path)), f"refusing to replace {dst}"
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace_within_tmp_path)
    monkeypatch.setattr(os, "rename", replace_within_tmp_path)
    assert main(["synth", "--spec", _synth_spec(tmp_path / "spec.json"), "--out", os.devnull]) == 0
    assert capsys.readouterr().err == f"wrote 50 synthetic samples to {os.devnull}\n"
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_synth_through_a_symlink_replaces_its_target(tmp_path):
    spec = _synth_spec(tmp_path / "spec.json")
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "data.csv"
    target.write_bytes(_OLD)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert main(["synth", "--spec", spec, "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert len(read_dataset(target)) == 50
    assert sorted(p.name for p in target.parent.iterdir()) == ["data.csv"]


def test_temp_files_are_named_for_the_leak_check(tmp_path, monkeypatch):
    _break_sources(monkeypatch, joist.models, KeyboardInterrupt())
    seen = []
    real_open = os.open

    def spy(path, *args):
        seen.append(os.path.basename(path))
        return real_open(path, *args)

    monkeypatch.setattr(os, "open", spy)
    with pytest.raises(KeyboardInterrupt):
        _save_model(tmp_path / "model.json")
    assert len(seen) == 1 and seen[0].startswith(".model.json.") and seen[0].endswith(TEMP_SUFFIX)
    assert list(tmp_path.iterdir()) == []
