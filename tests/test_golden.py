"""Byte pins for a small seeded CLI chain.

The chain runs ``synth`` -> ``fit --seed`` -> ``evaluate`` -> ``predict`` ->
``compare --baseline-gervais`` -> ``correlate`` -> ``composition`` and pins
the SHA-256 of every stdout payload and output file. Any refactor of the
data path must leave all of them unchanged.

The fitted coefficients come from LAPACK, whose last bits may differ between
builds, so the pins are checked only on the numpy version and machine type
they were recorded on.
"""

from __future__ import annotations

import hashlib
import json
import platform

import numpy as np
import pytest

from joist.cli import main

_PINNED_ON = ("2.4.6", "x86_64")

# Small ranges so that a few blocks carry no verification items at all.
_SPEC = {
    "true_model": {
        "kind": "joist",
        "coefficients": {"joinsplit": 5359.094, "output": 5726.675, "transparent_in": 61.411, "spend": 16912.591},
        "intercept_us": 4468.949,
        "schema_version": 1,
    },
    "noise_sigma_us": 2500.5,
    "count_ranges": {"joinsplit": [0, 2], "output": [0, 3], "transparent_in": [0, 5], "spend": [0, 2]},
    "n_blocks": 1500,
    "seed": 20240607,
}

_EXPECTED = {
    "data.csv": "af017d8ddf33ec4a46160feedf405f19ec563b9269884c79bca96d081a83f7ca",
    "model.json": "942d85ac7e59493b85a291774106068a0374b12812db48cf128074e646a65663",
    "evaluate.stdout": "2eb5474e3c88c4ea64086579ec90f7fb7f87a83249fca1aebc0a9806cc465921",
    "plot.csv": "2aff8ba2792091522e3555235bb3864419145b396505cde298b96e734c70b35a",
    "plot.csv.line.json": "44304283cc9bd9c35e62ca3b5d5db2b25233585e17c996f888d7dc67fcc31316",
    "compare.stdout": "0227143e74fef2ce2e5f8417852c60aff4ec2b87f3265dd0e2320dbfa3c4faf4",
    "correlate.stdout": "257d4ff856927262f057338b25caefe6ca3dd8b28d835e68c753b565a7c2c20e",
    "composition.stdout": "d70ba2cd96d6b6d3e1d9a55c0aa08643b710c139799e31dafe2913c079c95027",
}


def _run_chain(work, capsys) -> dict[str, str]:
    (work / "spec.json").write_text(json.dumps(_SPEC))
    data, model, plot = str(work / "data.csv"), str(work / "model.json"), str(work / "plot.csv")
    steps = [
        ("synth", ["synth", "--spec", str(work / "spec.json"), "--out", data]),
        ("fit", ["fit", "--kind", "joist", "--data", data, "--out", model, "--seed", "3", "--n-fit", "500"]),
        ("evaluate", ["evaluate", "--model", model, "--data", data]),
        ("predict", ["predict", "--model", model, "--data", data, "--out", plot]),
        ("compare", ["compare", "--data", data, "--seed", "3", "--n-fit", "500", "--baseline-gervais"]),
        ("correlate", ["correlate", "--data", data]),
        ("composition", ["composition", "--data", data]),
    ]
    digests = {}
    for name, argv in steps:
        capsys.readouterr()
        assert main(argv) == 0, name
        out = capsys.readouterr().out
        if out:
            digests[f"{name}.stdout"] = hashlib.sha256(out.encode()).hexdigest()
    for name in ("data.csv", "model.json", "plot.csv", "plot.csv.line.json"):
        digests[name] = hashlib.sha256((work / name).read_bytes()).hexdigest()
    return digests


def test_seeded_cli_chain_bytes(tmp_path, capsys):
    if (np.__version__, platform.machine()) != _PINNED_ON:
        pytest.skip(f"pins recorded on numpy/machine {_PINNED_ON}")
    assert _run_chain(tmp_path, capsys) == _EXPECTED
