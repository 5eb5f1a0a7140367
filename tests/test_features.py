from __future__ import annotations

import random

import pytest

from joist import (
    Dataset,
    IntegrityError,
    ParseError,
    extract_tx_features,
)

from joist.experiment import CORRELATION_FEATURES
from joist.features import COLUMNS, COUNT_COLUMNS, FEATURE_COLUMNS
from joist.ingest import _block_row
from joist.models import PREDICTORS

from conftest import make_dataset


def _tx(n_in=0, n_out=0, n_spend=0, n_output=0, n_js=0, coinbase=False):
    vin = [{"coinbase": "aa"}] if coinbase else [{"txid": f"t{i}", "vout": 0} for i in range(n_in)]
    record = {"vin": vin, "vout": [{"n": i} for i in range(n_out)]}
    if n_spend:
        record["vShieldedSpend"] = [{}] * n_spend
    if n_output:
        record["vShieldedOutput"] = [{}] * n_output
    if n_js:
        record["vjoinsplit"] = [{}] * n_js
    return record


def test_extract_plain_transaction():
    assert extract_tx_features(_tx(n_in=2, n_out=3, n_spend=1, n_output=4)) == (2, 3, 1, 4, 0)


def test_extract_coinbase_excludes_its_input():
    assert extract_tx_features(_tx(n_out=2, coinbase=True)) == (0, 2, 0, 0, 0)


def test_extract_absent_shielded_lists_mean_zero():
    assert extract_tx_features({"vin": [{"txid": "t0", "vout": 0}], "vout": [{}]}) == (1, 1, 0, 0, 0)


def test_extract_missing_vin_is_parse_error():
    with pytest.raises(ParseError, match="vin"):
        extract_tx_features({"vout": []})


def test_extract_missing_vout_is_parse_error():
    with pytest.raises(ParseError, match="vout"):
        extract_tx_features({"vin": []})


def test_extract_non_list_shielded_field_is_parse_error():
    with pytest.raises(ParseError, match="vjoinsplit"):
        extract_tx_features({"vin": [], "vout": [], "vjoinsplit": 3})


def test_extract_coinbase_with_extra_inputs_violates_invariant():
    # Protocol-invalid: a coinbase marker alongside normal inputs.
    record = {"vin": [{"coinbase": "aa"}, {"txid": "t0", "vout": 0}], "vout": []}
    with pytest.raises(IntegrityError, match="^a coinbase transaction has no countable transparent inputs$"):
        extract_tx_features(record)


def test_extract_check_order():
    # vin, vout, the shielded lists in COUNT_COLUMNS order, then the coinbase
    # rule: the record breaks every check, and each is mended once it has been named.
    record = {"vin": None, "vout": None, "vShieldedSpend": 1, "vShieldedOutput": 1, "vjoinsplit": 1}
    coinbase_with_input = [{"coinbase": "aa"}, {"txid": "t0", "vout": 0}]
    for name, mended in [
        ("vin", coinbase_with_input),
        ("vout", []),
        ("vShieldedSpend", []),
        ("vShieldedOutput", []),
        ("vjoinsplit", []),
    ]:
        with pytest.raises(ParseError, match=f'"{name}"'):
            extract_tx_features(record)
        record[name] = mended
    with pytest.raises(IntegrityError, match="coinbase"):
        extract_tx_features(record)


def _block(*txs, size=900):
    return {"size": size, "tx": list(txs)}


def test_aggregate_sums_counts():
    row = _block_row(_block(_tx(n_in=2, n_out=3, n_spend=1, n_output=4), _tx(n_out=2, coinbase=True)), 7)
    assert row == [7, 900, 2, 5, 1, 4, 0]


def test_aggregate_coinbase_only_block_has_zero_model_counts():
    assert _block_row(_block(_tx(n_out=2, coinbase=True), size=285), 1) == [1, 285, 0, 2, 0, 0, 0]


def test_aggregate_counts_joinsplits_across_transactions():
    row = _block_row(_block(*(_tx(n_out=1, n_js=1) for _ in range(3)), size=100), 1)
    assert row[COLUMNS.index("n_joinsplit")] == 3


def test_aggregate_is_order_independent():
    rng = random.Random(1310)
    for _ in range(25):
        txs = [
            _tx(rng.randrange(5), rng.randrange(5), rng.randrange(3), rng.randrange(3), rng.randrange(2))
            for _ in range(rng.randrange(1, 12))
        ]
        reference = _block_row(_block(*txs, size=500), 1)
        rng.shuffle(txs)
        assert _block_row(_block(*txs, size=500), 1) == reference


def _row(height, time_us=10):
    return (height, 1000, 0, 0, 0, 0, 0, time_us)


def test_verification_time_must_be_positive():
    with pytest.raises(IntegrityError, match="verify_time_us must be finite and > 0, got 0"):
        make_dataset([_row(1, time_us=0)])
    with pytest.raises(IntegrityError, match="verify_time_us must be finite and > 0, got -5"):
        make_dataset([_row(1, time_us=-5)])


def test_dataset_rejects_duplicate_heights():
    with pytest.raises(IntegrityError, match="100"):
        make_dataset([_row(99), _row(100), _row(100)])


def test_dataset_rejects_decreasing_heights():
    with pytest.raises(IntegrityError):
        Dataset({c: [v5, v3] for c, v5, v3 in zip(COLUMNS, _row(5), _row(3))})


def test_dataset_rejects_empty():
    with pytest.raises(IntegrityError):
        Dataset({c: [] for c in COLUMNS})


def test_dataset_from_columns_sorts_by_height():
    ds = make_dataset([_row(9), _row(2), _row(5)])
    assert ds.height.tolist() == [2, 5, 9]
    assert len(ds) == 3


def test_dataset_names_the_first_bad_row_and_its_first_broken_rule():
    # Row order decides, not rule order: height 2 breaks only the time rule,
    # height 3 breaks the size rule first.
    rows = [_row(1), (2, 1000, 0, 0, 0, 0, 0, 0), (3, 0, 0, 0, -1, 0, 0, 0)]
    with pytest.raises(IntegrityError, match=r"^height 2: verify_time_us must be finite and > 0, got 0$"):
        make_dataset(rows)
    with pytest.raises(IntegrityError, match=r"^height 3: size_bytes must be > 0, got 0$"):
        make_dataset([rows[0], rows[2]])


def test_feature_names_come_from_the_column_table():
    assert len(extract_tx_features(_tx())) == len(COUNT_COLUMNS)
    assert len(_block_row(_block(_tx()), 1)) == len(COLUMNS) - 1
    assert all(name in FEATURE_COLUMNS for names in PREDICTORS.values() for name in names)
    assert CORRELATION_FEATURES == ("transparent_in", "transparent_out", "spend", "output", "joinsplit")
