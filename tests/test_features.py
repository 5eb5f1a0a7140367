from __future__ import annotations

import random

import numpy as np
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

from conftest import assert_row_table, make_dataset


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
    with pytest.raises(IntegrityError, match="verify_time_us must be > 0, got 0"):
        make_dataset([_row(1, time_us=0)])
    with pytest.raises(IntegrityError, match="verify_time_us must be > 0, got -5"):
        make_dataset([_row(1, time_us=-5)])


def test_dataset_rejects_duplicate_heights():
    with pytest.raises(IntegrityError, match="100"):
        make_dataset([_row(99), _row(100), _row(100)])


def test_dataset_sorts_decreasing_heights():
    ds = Dataset({c: [v5, v3] for c, v5, v3 in zip(COLUMNS, _row(5, 15), _row(3, 13))})
    assert ds.height.tolist() == [3, 5] and ds.verify_time_us.tolist() == [13, 15]
    assert_row_table(ds)


def test_dataset_rejects_empty():
    with pytest.raises(IntegrityError):
        Dataset({c: [] for c in COLUMNS})


def test_dataset_from_columns_sorts_by_height():
    ds = make_dataset([_row(9), _row(2), _row(5)])
    assert ds.height.tolist() == [2, 5, 9]
    assert len(ds) == 3


@pytest.mark.parametrize("heights", [[1, 2], [2, 1]], ids=["sorted", "unsorted"])
@pytest.mark.parametrize("sizes", [[900], [900, 901, 902]], ids=["shorter", "longer"])
def test_dataset_from_columns_rejects_a_column_of_another_length(heights, sizes):
    columns = {c: [v1, v2] for c, v1, v2 in zip(COLUMNS, _row(1), _row(2))} | {"height": heights, "size_bytes": sizes}
    with pytest.raises(IntegrityError, match=rf"^column size_bytes has shape \({len(sizes)},\), expected \(2,\)$"):
        Dataset(columns)


def _keys_reversed(columns):
    """Dataset of *columns* with its keys in reverse order, which must not matter; its cases
    keep the ids they had when they ran the sorting constructor that Dataset replaced."""
    return Dataset(dict(reversed(columns.items())) if isinstance(columns, dict) else columns)


@pytest.mark.parametrize("build", [Dataset, _keys_reversed], ids=["init", "from_columns"])
@pytest.mark.parametrize("absent", [["n_joinsplit"], ["height"], ["height", "verify_time_us"]])
def test_constructors_name_the_missing_columns(build, absent):
    columns = {c: [v] for c, v in zip(COLUMNS, _row(1)) if c not in absent}
    with pytest.raises(IntegrityError, match=f"^missing column\\(s\\): {', '.join(absent)}$"):
        build(columns)


@pytest.mark.parametrize("build", [Dataset, _keys_reversed], ids=["init", "from_columns"])
@pytest.mark.parametrize(
    "columns, message",
    [
        ({c: 5 for c in COLUMNS}, r"column height has shape \(\), expected one dimension"),
        ({c: [[1, 2]] for c in COLUMNS}, r"column height has shape \(1, 2\), expected one dimension"),
        ({c: [[1], [1, 2]] for c in COLUMNS}, r"column height is not one column: .*inhomogeneous.*"),
        (None, "columns must be a mapping of names to columns, got a NoneType"),
        ([(c, [1]) for c in COLUMNS], "columns must be a mapping of names to columns, got a list"),
    ],
    ids=["scalars", "2-d", "ragged", "None", "pairs"],
)
def test_constructors_refuse_what_is_not_a_mapping_of_columns(build, columns, message):
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        build(columns)


@pytest.mark.parametrize(
    "build, heights",
    [(Dataset, [1, 2, 3]), (_keys_reversed, [1, 2, 3]), (Dataset, [3, 1, 2])],
    ids=["init", "from_columns-sorted", "from_columns-unsorted"],
)
def test_constructors_copy_the_callers_columns_into_one_row_table(build, heights):
    columns = {c: np.array([v1, v2, v3]) for c, v1, v2, v3 in zip(COLUMNS, *(_row(h, 10 + h) for h in heights))}
    ds = build(columns)
    expected = ds.table.copy()
    assert_row_table(ds)
    for column in columns.values():
        assert not np.shares_memory(column, ds.table)
        column[:] = 7
    assert np.array_equal(ds.table, expected)
    assert ds.height.tolist() == [1, 2, 3] and ds.verify_time_us.tolist() == [11, 12, 13]


def test_take_returns_read_only_copies_of_the_chosen_rows():
    ds = make_dataset([_row(h, time_us=10 + h) for h in range(1, 7)])
    taken = ds.take([0, 2, 5])
    assert taken.height.tolist() == [1, 3, 6] and taken.verify_time_us.tolist() == [11, 13, 16]
    assert taken == Dataset({c: getattr(ds, c)[[0, 2, 5]] for c in COLUMNS})
    assert_row_table(taken)
    assert not np.shares_memory(taken.table, ds.table)
    for c in COLUMNS:
        with pytest.raises(ValueError):
            getattr(taken, c)[0] = 1
    assert ds.height.tolist() == [1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize(
    "indices, message",
    [
        ([5], r"rows to take: index 5 is out of bounds for axis 0 with size 2"),
        ([-3], r"rows to take: index -3 is out of bounds for axis 0 with size 2"),
        (["a"], r"rows to take: only integers, .* are valid indices"),
        ([0.5], r"rows to take: only integers, .* are valid indices"),
        ([True], r"rows to take: boolean index did not match .*"),
        (0, r"rows to take must be one sequence of row indices or booleans"),
        (None, r"rows to take must be one sequence of row indices or booleans"),
        ([[0, 1]], r"rows to take must be one sequence of row indices or booleans"),
    ],
    ids=["beyond", "before", "str", "float", "short-mask", "scalar", "None", "2-d"],
)
def test_take_refuses_what_is_not_a_sequence_of_rows(indices, message):
    ds = make_dataset([_row(1), _row(2)])
    with pytest.raises(IntegrityError, match=f"^{message}$"):
        ds.take(indices)


@pytest.mark.parametrize(
    "indices, message",
    [
        ([0, 2, 2], r"^duplicate height 3$"),
        ([], r"^a dataset needs at least one sample$"),
    ],
    ids=["repeated", "empty"],
)
def test_take_out_of_order_raises_the_constructor_error(indices, message):
    ds = make_dataset([_row(h) for h in range(1, 5)])
    with pytest.raises(IntegrityError, match=message):
        ds.take(indices)
    with pytest.raises(IntegrityError, match=message):
        Dataset({c: getattr(ds, c)[indices] for c in COLUMNS})


def test_take_sorts_rows_taken_out_of_order():
    ds = make_dataset([_row(h, time_us=10 + h) for h in range(1, 5)])
    taken = ds.take([0, 3, 1])
    assert taken.height.tolist() == [1, 2, 4] and taken.verify_time_us.tolist() == [11, 12, 14]
    assert taken == Dataset({c: getattr(ds, c)[[0, 3, 1]] for c in COLUMNS})
    assert_row_table(taken)


@pytest.mark.parametrize(
    "indices", [slice(None, None, 2), slice(0, 2), slice(None), Ellipsis, ()], ids=["stepped", "prefix", "all", "...", "()"]
)
def test_take_of_a_slice_gathers_a_new_table(indices):
    ds = make_dataset([_row(h) for h in range(1, 6)])
    taken = ds.take(indices)
    assert np.array_equal(taken.table, ds.table[indices])
    assert_row_table(taken)
    assert not np.shares_memory(taken.table, ds.table)


def test_dataset_names_the_first_bad_row_and_its_first_broken_rule():
    # Row order decides, not rule order: height 2 breaks only the time rule,
    # height 3 breaks the size rule first.
    rows = [_row(1), (2, 1000, 0, 0, 0, 0, 0, 0), (3, 0, 0, 0, -1, 0, 0, 0)]
    with pytest.raises(IntegrityError, match=r"^height 2: verify_time_us must be > 0, got 0$"):
        make_dataset(rows)
    with pytest.raises(IntegrityError, match=r"^height 3: size_bytes must be > 0, got 0$"):
        make_dataset([rows[0], rows[2]])


def test_feature_names_come_from_the_column_table():
    assert len(extract_tx_features(_tx())) == len(COUNT_COLUMNS)
    assert len(_block_row(_block(_tx()), 1)) == len(COLUMNS) - 1
    assert all(name in FEATURE_COLUMNS for names in PREDICTORS.values() for name in names)
    assert CORRELATION_FEATURES == ("transparent_in", "transparent_out", "spend", "output", "joinsplit")
