"""Per-block transaction features and their extraction from decoded records.

Block verification cost is driven by a handful of countable transaction
components: legacy JoinSplit descriptions, Sapling Spend and Output
descriptions (one zk-SNARK proof each), and transparent inputs (one signature
check each, assuming P2PKH). Transparent outputs trigger no verification work
of their own; they are carried only for correlation reporting.

Fetched counts and dataset rows are columns named by :data:`COLUMNS`.
Everything that touches wire or file formats lives in :mod:`joist.ingest`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

import numpy as np

from .errors import IntegrityError, ParseError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

# The dataset fields in CSV order, the one place each is named; each is a
# Dataset column, and all but the time are fetched from a node.
COLUMNS = (
    "height",
    "size_bytes",
    "n_transparent_in",
    "n_transparent_out",
    "n_spend",
    "n_output",
    "n_joinsplit",
    "verify_time_us",
)
COUNT_COLUMNS = COLUMNS[2:7]

# Short feature names used by models and reports -> the column holding them.
FEATURE_COLUMNS = {"byte": "size_bytes", **{c.removeprefix("n_"): c for c in COUNT_COLUMNS}}

_INT64 = np.iinfo(np.int64)

# The value rules, in the order a row is checked: (column, rule, test for
# breaking values). Each test takes a whole column or a single value.
_RULES = (
    ("size_bytes", "> 0", lambda v: v <= 0),
    *((name, ">= 0", lambda v: v < 0) for name in COUNT_COLUMNS),
    ("verify_time_us", "finite and > 0", lambda v: ~((v > 0) & np.isfinite(v))),
)


def first_violation(columns: Mapping[str, np.ndarray]) -> tuple[int, str] | None:
    """The first row, in the order given, that breaks a value rule, and the
    message of the first rule (in _RULES order) it breaks; None if none does."""
    failed = [(name, rule, bad) for name, rule, test in _RULES if (bad := test(columns[name])).any()]
    if not failed:
        return None
    i = min(int(bad.argmax()) for _, _, bad in failed)
    name, rule, _ = next(f for f in failed if f[2][i])
    return i, f"{name} must be {rule}, got {columns[name][i]}"


def _check_fields(row: Mapping[str, int]) -> None:
    """Raise IntegrityError for the first of *row*'s fields that breaks its rule."""
    for name, rule, test in _RULES:
        if name in row and test(value := row[name]):
            raise IntegrityError(f"{name} must be {rule}, got {value}")


class Dataset:
    """An ordered, height-unique table of verification samples, one column per field.

    Each name in :data:`COLUMNS` is a read-only numpy attribute: int64, except
    that ``verify_time_us`` may be float64 so models can be re-fitted on their
    own (fractional) predictions. Heights must be strictly increasing; use
    :meth:`from_columns` to build a dataset from rows in any order.
    """

    __slots__ = COLUMNS

    def __init__(self, data: Mapping[str, ArrayLike]):
        """Build from a mapping of every name in COLUMNS to a column."""
        n = len(data["height"])
        if n < 1:
            raise IntegrityError("a dataset needs at least one sample")
        columns = {name: _column(name, data[name], n) for name in COLUMNS}
        for name, col in columns.items():
            object.__setattr__(self, name, col)
        violation = first_violation(columns)
        if violation is not None:
            i, message = violation
            raise IntegrityError(f"height {self.height[i]}: {message}")
        h = self.height
        steps = np.flatnonzero(h[1:] <= h[:-1])
        if steps.size:
            prev, cur = h[steps[0]], h[steps[0] + 1]
            if cur == prev:
                raise IntegrityError(f"duplicate height {cur}")
            raise IntegrityError(f"heights must be strictly increasing ({cur} after {prev})")

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return len(self.height)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in COLUMNS)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dataset({len(self)} rows, heights {self.height[0]}..{self.height[-1]})"

    def take(self, indices: ArrayLike) -> "Dataset":
        """The rows at *indices* (which must keep heights increasing)."""
        return Dataset({c: getattr(self, c)[indices] for c in COLUMNS})

    @classmethod
    def from_columns(cls, columns: Mapping[str, ArrayLike]) -> "Dataset":
        """Build a dataset from columns with rows in any order (stably sorted by height here)."""
        order = np.argsort(np.asarray(columns["height"]), kind="stable")
        return cls({c: np.asarray(columns[c])[order] for c in COLUMNS})


def _column(name: str, values: ArrayLike, n: int) -> np.ndarray:
    col = np.array(values)
    if col.shape != (n,):
        raise IntegrityError(f"column {name} has shape {col.shape}, expected ({n},)")
    if name == "verify_time_us" and col.dtype.kind == "f":
        col = col.astype(np.float64, copy=False)
    elif col.dtype.kind in "iu" and _INT64.min <= col.min() and col.max() <= _INT64.max:
        col = col.astype(np.int64, copy=False)
    else:
        raise IntegrityError(f"column {name} must hold integers within int64, got dtype {col.dtype}")
    col.flags.writeable = False
    return col


def extract_tx_features(tx: Mapping) -> tuple[int, ...]:
    """Count the model-relevant components of one decoded transaction record.

    Returns the counts in :data:`COUNT_COLUMNS` order. The record follows the
    node's decoded-transaction layout: a ``vin`` list (the coinbase input is
    the entry carrying a ``coinbase`` key), a ``vout`` list, and optional
    ``vjoinsplit`` / ``vShieldedSpend`` / ``vShieldedOutput`` lists. Absent
    shielded lists mean zero (pre-Sapling and transparent-only transactions).
    The transparent input count covers inputs that reference a previous
    output; the coinbase input carries no signature check and is never
    counted. A JoinSplit description counts as one unit even though it may
    bundle more than one proof internally; the fitted coefficient absorbs the
    average.

    Raises:
        ParseError: if ``vin`` or ``vout`` is missing or not a list, or a
            shielded field is present but not a list.
        IntegrityError: if a coinbase transaction also spends an input.
    """
    vin = tx.get("vin")
    if not isinstance(vin, list):
        raise ParseError('transaction record missing mandatory list "vin"')
    vout = tx.get("vout")
    if not isinstance(vout, list):
        raise ParseError('transaction record missing mandatory list "vout"')

    n_coinbase = sum(1 for e in vin if isinstance(e, Mapping) and "coinbase" in e)
    n_in = len(vin) - n_coinbase

    def _shielded(key: str) -> int:
        value = tx.get(key)
        if value is None:
            return 0
        if not isinstance(value, list):
            raise ParseError(f'transaction field "{key}" must be a list when present')
        return len(value)

    counts = (n_in, len(vout), *map(_shielded, ("vShieldedSpend", "vShieldedOutput", "vjoinsplit")))
    if n_coinbase and n_in:
        raise IntegrityError("a coinbase transaction has no countable transparent inputs")
    return counts
