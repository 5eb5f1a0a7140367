"""Per-block transaction features and their extraction from decoded records.

Block verification cost is driven by a handful of countable transaction
components: legacy JoinSplit descriptions, Sapling Spend and Output
descriptions (one zk-SNARK proof each), and transparent inputs (one signature
check each, assuming P2PKH). Transparent outputs trigger no verification work
of their own; they are carried only for correlation reporting.

Fetched counts are columns named by :data:`COLUMNS`; a :class:`Dataset` is one row table in that order.
Every row table, whether built, read, taken or written, is sorted and checked by :func:`_rows`.
Everything that touches wire or file formats lives in :mod:`joist.ingest`, except that
:func:`extract_tx_features` reads the node's decoded-transaction layout.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import TYPE_CHECKING

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

# Each column's least value, in COLUMNS order: sizes and times are positive (all int64: whole and finite).
_MINIMUM = np.array([0, 1, 0, 0, 0, 0, 0, 1])


def first_violation(table: np.ndarray) -> tuple[int, str] | None:
    """The first row of *table* (rows of the first k COLUMNS, in the order given) that breaks
    a value rule, and the message of its first column that does; None if no row does."""
    bad = table < _MINIMUM[: table.shape[1]]
    if not bad.any():
        return None
    i, j = divmod(int(bad.argmax()), bad.shape[1])
    return i, f"{COLUMNS[j]} must be {'> 0' if _MINIMUM[j] else '>= 0'}, got {table[i, j]}"


class Dataset:
    """A height-unique table of verification samples, one row per block, in height order.

    ``table`` is a read-only C-order ``(n, 8)`` int64 array, columns in :data:`COLUMNS`
    order, whose values keep the minimums in ``_MINIMUM``; each name in COLUMNS is a
    read-only view of its column. The constructor takes rows in any order, sorts them
    stably by height and copies the caller's columns into a new table.
    """

    __slots__ = ("table", *COLUMNS)

    def __init__(self, data: Mapping[str, ArrayLike]):
        """Build from a mapping of every name in COLUMNS to a column, rows in any order."""
        self._hold(_stacked(data, COLUMNS))

    def _hold(self, table: np.ndarray, checked: bool = False) -> None:
        """Make *table* this dataset's, sorted and checked by :func:`_rows`."""
        table = _rows(table, checked)
        table.flags.writeable = False
        for name, value in zip(self.__slots__, (table, *table.T)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    def __len__(self) -> int:
        return len(self.table)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    __hash__ = None

    def __repr__(self) -> str:
        return f"Dataset({len(self)} rows, heights {self.height[0]}..{self.height[-1]})"

    def take(self, indices: ArrayLike) -> "Dataset":
        """The rows at *indices* (row indices, booleans or a slice), gathered into a new table and
        sorted stably by height; they keep the value rules already, so those are not checked again."""
        try:
            table = self.table[indices]
        except IndexError as exc:  # an index out of range, or one that is not an int or bool
            raise IntegrityError(f"rows to take: {exc}") from None
        if table.shape[1:] != (len(COLUMNS),):
            raise IntegrityError("rows to take must be one sequence of row indices or booleans")
        if np.may_share_memory(table, self.table):  # a slice gives a view
            table = table.copy()
        return Dataset._from_table(table, checked=True)

    @classmethod
    def _from_table(cls, table: np.ndarray, checked: bool = False) -> "Dataset":
        """A dataset of *table*, C-order (n, 8) int64 rows in any order, which it keeps if they are sorted."""
        ds = object.__new__(cls)
        ds._hold(table, checked)
        return ds


def _stacked(data: Mapping[str, ArrayLike], names: Sequence[str]) -> np.ndarray:
    """A new (n, len(names)) int64 table of the mapping's columns *names*, in that order,
    where n is the length of the first."""
    if not isinstance(data, Mapping):
        raise IntegrityError(f"columns must be a mapping of names to columns, got a {type(data).__name__}")
    missing = [name for name in names if name not in data]
    if missing:
        raise IntegrityError(f"missing column(s): {', '.join(missing)}")
    table = None
    for j, name in enumerate(names):
        cells = data[name]
        try:
            col = np.asarray(cells)
        except ValueError as exc:  # a ragged nest of sequences
            raise IntegrityError(f"column {name} is not one column: {exc}") from None
        if table is None:  # the first column sets n
            if col.ndim != 1:
                raise IntegrityError(f"column {name} has shape {col.shape}, expected one dimension")
            if len(col) < 1:
                raise IntegrityError("a dataset needs at least one sample")
            n = len(col)
            table = np.empty((n, len(names)), dtype=np.int64)
        if col.shape != (n,):
            raise IntegrityError(f"column {name} has shape {col.shape}, expected ({n},)")
        if not (col.dtype.kind in "iu" and _INT64.min <= col.min() and col.max() <= _INT64.max):
            raise IntegrityError(f"column {name} must hold integers within int64, got dtype {col.dtype}")
        if isinstance(cells, (list, tuple)):  # numpy makes a bool among ints an int
            cell = next((v for v in cells if isinstance(v, bool) or getattr(v, "dtype", None) == bool), None)
            if cell is not None:
                raise IntegrityError(f"column {name} must hold integers within int64, got {cell!r}")
        table[:, j] = col
    return table


def _rows(table: np.ndarray, checked: bool = False) -> np.ndarray:
    """*table*, int64 rows of the first k COLUMNS, sorted stably by height (itself if sorted
    already). IntegrityError if it has no row, if a row breaks a value rule (the first in height
    order is named; rows *checked* already are not checked again) or if a height repeats."""
    if len(table) < 1:
        raise IntegrityError("a dataset needs at least one sample")
    h = table[:, 0]
    increasing = (h[1:] > h[:-1]).all()  # as in every table the package makes
    if not increasing:
        table = table[np.argsort(h, kind="stable")]
    violation = None if checked else first_violation(table)
    if violation is not None:
        i, message = violation
        raise IntegrityError(f"height {table[i, 0]}: {message}")
    if not increasing:
        h = table[:, 0]
        repeats = np.flatnonzero(h[1:] == h[:-1])
        if repeats.size:
            raise IntegrityError(f"duplicate height {h[repeats[0]]}")
    return table


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
