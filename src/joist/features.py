"""Per-block transaction features and their extraction from decoded records.

Block verification cost is driven by a handful of countable transaction
components: legacy JoinSplit descriptions, Sapling Spend and Output
descriptions (one zk-SNARK proof each), and transparent inputs (one signature
check each, assuming P2PKH). Transparent outputs trigger no verification work
of their own; they are carried only for correlation reporting.

The types here are plain immutable records. Everything that touches wire or
file formats lives in :mod:`joist.ingest`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import IntegrityError, ParseError

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

# The dataset fields in CSV order; each is a Dataset column and (but for the
# time) a BlockFeatures attribute.
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


@dataclass(frozen=True)
class TxFeatures:
    """Component counts for a single decoded transaction.

    ``n_transparent_in`` counts inputs that reference a previous output; the
    coinbase input carries no signature check and is never counted. A
    JoinSplit description counts as one unit even though it may bundle more
    than one proof internally; the fitted coefficient absorbs the average.
    """

    n_transparent_in: int
    n_transparent_out: int
    n_spend: int
    n_output: int
    n_joinsplit: int
    is_coinbase: bool = False

    def __post_init__(self) -> None:
        for name in COUNT_COLUMNS:
            if getattr(self, name) < 0:
                raise IntegrityError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.is_coinbase and self.n_transparent_in != 0:
            raise IntegrityError("a coinbase transaction has no countable transparent inputs")


@dataclass(frozen=True)
class BlockFeatures:
    """Block-level predictor counts: the sums over all constituent transactions."""

    height: int
    size_bytes: int
    n_transparent_in: int
    n_transparent_out: int
    n_spend: int
    n_output: int
    n_joinsplit: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise IntegrityError(f"size_bytes must be > 0, got {self.size_bytes}")
        for name in COUNT_COLUMNS:
            if getattr(self, name) < 0:
                raise IntegrityError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class VerificationSample:
    """One observation: a block's features paired with its measured verification time.

    Times are kept as integer microseconds in files; in memory a float is
    accepted so models can be re-fitted on their own (fractional) predictions.
    """

    features: BlockFeatures
    verify_time_us: int | float

    def __post_init__(self) -> None:
        if not self.verify_time_us > 0:
            raise IntegrityError(f"verify_time_us must be > 0, got {self.verify_time_us}")


class Dataset:
    """An ordered, height-unique table of verification samples, one column per field.

    Each name in :data:`COLUMNS` is a read-only numpy attribute: int64, except
    that ``verify_time_us`` may be float64 so models can be re-fitted on their
    own (fractional) predictions. Heights must be strictly increasing; use
    :meth:`from_columns` or :meth:`from_samples` to build a dataset from
    unordered material.
    """

    __slots__ = COLUMNS

    def __init__(self, data: Mapping[str, ArrayLike] | Iterable[VerificationSample]):
        """Build from a mapping of every name in COLUMNS to a column, or from samples."""
        if not isinstance(data, Mapping):
            data = _sample_columns(data)
        n = len(data["height"])
        if n < 1:
            raise IntegrityError("a dataset needs at least one sample")
        for name in COLUMNS:
            object.__setattr__(self, name, _column(name, data[name], n))
        h = self.height
        checks = [("size_bytes", self.size_bytes <= 0, "> 0")]
        checks += [(name, getattr(self, name) < 0, ">= 0") for name in COUNT_COLUMNS]
        t = self.verify_time_us
        checks.append(("verify_time_us", ~((t > 0) & np.isfinite(t)), "finite and > 0"))
        for name, bad, rule in checks:
            if bad.any():
                i = int(bad.argmax())
                raise IntegrityError(f"height {h[i]}: {name} must be {rule}, got {getattr(self, name)[i]}")
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

    def __iter__(self) -> Iterator[VerificationSample]:
        """The rows as :class:`VerificationSample` records (slow; for per-row callers)."""
        for *features, t in zip(*(getattr(self, c).tolist() for c in COLUMNS)):
            yield VerificationSample(BlockFeatures(*features), t)

    def take(self, indices: ArrayLike) -> "Dataset":
        """The rows at *indices* (which must keep heights increasing)."""
        return Dataset({c: getattr(self, c)[indices] for c in COLUMNS})

    @classmethod
    def from_columns(cls, columns: Mapping[str, ArrayLike]) -> "Dataset":
        """Build a dataset from columns with rows in any order (stably sorted by height here)."""
        order = np.argsort(np.asarray(columns["height"]), kind="stable")
        return cls({c: np.asarray(columns[c])[order] for c in COLUMNS})

    @classmethod
    def from_samples(cls, samples: Iterable[VerificationSample]) -> "Dataset":
        """Build a dataset from samples in any order (stably sorted by height here)."""
        return cls.from_columns(_sample_columns(samples))


def _sample_columns(samples: Iterable[VerificationSample]) -> dict[str, list]:
    samples = list(samples)
    columns = {c: [getattr(s.features, c) for s in samples] for c in COLUMNS[:-1]}
    columns["verify_time_us"] = [s.verify_time_us for s in samples]
    return columns


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


def extract_tx_features(tx: Mapping) -> TxFeatures:
    """Count the model-relevant components of one decoded transaction record.

    The record follows the node's decoded-transaction layout: a ``vin`` list
    (the coinbase input is the entry carrying a ``coinbase`` key), a ``vout``
    list, and optional ``vjoinsplit`` / ``vShieldedSpend`` / ``vShieldedOutput``
    lists. Absent shielded lists mean zero (pre-Sapling and transparent-only
    transactions).

    Raises:
        ParseError: if ``vin`` or ``vout`` is missing or not a list.
    """
    vin = tx.get("vin")
    if not isinstance(vin, list):
        raise ParseError('transaction record missing mandatory list "vin"')
    vout = tx.get("vout")
    if not isinstance(vout, list):
        raise ParseError('transaction record missing mandatory list "vout"')

    is_coinbase = any(isinstance(e, Mapping) and "coinbase" in e for e in vin)
    n_in = sum(1 for e in vin if not (isinstance(e, Mapping) and "coinbase" in e))

    def _shielded(key: str) -> int:
        value = tx.get(key)
        if value is None:
            return 0
        if not isinstance(value, list):
            raise ParseError(f'transaction field "{key}" must be a list when present')
        return len(value)

    return TxFeatures(
        n_transparent_in=n_in,
        n_transparent_out=len(vout),
        n_spend=_shielded("vShieldedSpend"),
        n_output=_shielded("vShieldedOutput"),
        n_joinsplit=_shielded("vjoinsplit"),
        is_coinbase=is_coinbase,
    )


def aggregate_block(txs: Sequence[TxFeatures], height: int, size_bytes: int) -> BlockFeatures:
    """Sum per-transaction counts into the block-level predictor record.

    Raises:
        IntegrityError: on an empty transaction sequence (every block carries
            at least its coinbase transaction).
    """
    if not txs:
        raise IntegrityError(f"block {height} has no transactions")
    return BlockFeatures(
        height=height,
        size_bytes=size_bytes,
        n_transparent_in=sum(t.n_transparent_in for t in txs),
        n_transparent_out=sum(t.n_transparent_out for t in txs),
        n_spend=sum(t.n_spend for t in txs),
        n_output=sum(t.n_output for t in txs),
        n_joinsplit=sum(t.n_joinsplit for t in txs),
    )
