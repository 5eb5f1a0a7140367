from __future__ import annotations

import random

import pytest

from joist import (
    Dataset,
    IntegrityError,
    ParseError,
    TxFeatures,
    VerificationSample,
    aggregate_block,
    extract_tx_features,
)

from conftest import make_block


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
    got = extract_tx_features(_tx(n_in=2, n_out=3, n_spend=1, n_output=4))
    assert got == TxFeatures(2, 3, 1, 4, 0, is_coinbase=False)


def test_extract_coinbase_excludes_its_input():
    got = extract_tx_features(_tx(n_out=2, coinbase=True))
    assert got == TxFeatures(0, 2, 0, 0, 0, is_coinbase=True)


def test_extract_absent_shielded_lists_mean_zero():
    got = extract_tx_features({"vin": [{"txid": "t0", "vout": 0}], "vout": [{}]})
    assert (got.n_spend, got.n_output, got.n_joinsplit) == (0, 0, 0)


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
    with pytest.raises(IntegrityError):
        extract_tx_features(record)


def test_aggregate_sums_counts():
    txs = [TxFeatures(2, 3, 1, 4, 0), TxFeatures(0, 2, 0, 0, 0, is_coinbase=True)]
    block = aggregate_block(txs, height=7, size_bytes=900)
    assert (block.n_transparent_in, block.n_transparent_out) == (2, 5)
    assert (block.n_spend, block.n_output, block.n_joinsplit) == (1, 4, 0)
    assert (block.height, block.size_bytes) == (7, 900)


def test_aggregate_coinbase_only_block_has_zero_model_counts():
    block = aggregate_block([TxFeatures(0, 2, 0, 0, 0, is_coinbase=True)], height=1, size_bytes=285)
    assert (block.n_transparent_in, block.n_spend, block.n_output, block.n_joinsplit) == (0, 0, 0, 0)


def test_aggregate_counts_joinsplits_across_transactions():
    txs = [TxFeatures(0, 1, 0, 0, 1) for _ in range(3)]
    assert aggregate_block(txs, height=1, size_bytes=100).n_joinsplit == 3


def test_aggregate_rejects_empty_block():
    with pytest.raises(IntegrityError):
        aggregate_block([], height=1, size_bytes=100)


def test_aggregate_is_order_independent():
    rng = random.Random(1310)
    for _ in range(25):
        txs = [
            TxFeatures(
                rng.randrange(5), rng.randrange(5), rng.randrange(3), rng.randrange(3), rng.randrange(2)
            )
            for _ in range(rng.randrange(1, 12))
        ]
        reference = aggregate_block(txs, height=1, size_bytes=500)
        shuffled = txs[:]
        rng.shuffle(shuffled)
        assert aggregate_block(shuffled, height=1, size_bytes=500) == reference


def test_negative_counts_rejected():
    with pytest.raises(IntegrityError):
        TxFeatures(-1, 0, 0, 0, 0)
    with pytest.raises(IntegrityError):
        make_block(n_spend=-2)


def test_block_size_must_be_positive():
    with pytest.raises(IntegrityError):
        make_block(size_bytes=0)


def test_verification_time_must_be_positive():
    with pytest.raises(IntegrityError):
        VerificationSample(features=make_block(), verify_time_us=0)
    with pytest.raises(IntegrityError):
        VerificationSample(features=make_block(), verify_time_us=-5)


def _sample(height, time_us=10):
    return VerificationSample(features=make_block(height=height), verify_time_us=time_us)


def test_dataset_rejects_duplicate_heights():
    with pytest.raises(IntegrityError, match="100"):
        Dataset((_sample(99), _sample(100), _sample(100)))


def test_dataset_rejects_decreasing_heights():
    with pytest.raises(IntegrityError):
        Dataset((_sample(5), _sample(3)))


def test_dataset_rejects_empty():
    with pytest.raises(IntegrityError):
        Dataset(())


def test_dataset_from_samples_sorts_by_height():
    ds = Dataset.from_samples([_sample(9), _sample(2), _sample(5)])
    assert ds.height.tolist() == [2, 5, 9]
    assert len(ds) == 3
