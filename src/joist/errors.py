"""Exception hierarchy shared across the package, the base of its records, and
two helpers that records use to check a field and show a refused value.

The tree mirrors the CLI exit-code buckets: data/integrity problems,
remote/transport failures, and numerical failures each have a common base so
callers can map whole families at once.

:class:`Record` lives here because every module that defines a record
already imports this one, which needs only the standard library.
"""

from __future__ import annotations

import math
from collections.abc import Sized


class JoistError(Exception):
    """Base class for all errors raised by this package."""


class DataError(JoistError):
    """Bad input data: malformed files, broken invariants, shape mismatches."""


class FormatError(DataError):
    """A file does not match its documented format (header, field types)."""


class IntegrityError(DataError):
    """A domain-type invariant is violated (duplicate height, bad count, ...)."""


class ParseError(DataError):
    """A decoded transaction or block record is missing a mandatory field."""


class ShapeError(DataError):
    """Sequence lengths or sizes do not line up."""


class HeightRangeError(DataError):
    """A requested block height range is empty or unknown to the node."""


class SynthSpecError(DataError):
    """A synthetic-dataset specification cannot produce valid samples."""


class RemoteError(JoistError):
    """Remote node interaction failed."""


class RpcConnectionError(RemoteError):
    """Transport, HTTP, or authentication failure talking to the node."""


class NumericalError(JoistError):
    """A computation is numerically infeasible on the given data."""


class RankDeficiencyError(NumericalError):
    """The regression design matrix does not have full column rank."""


class DegenerateDataError(NumericalError):
    """Input data is degenerate for the requested statistic (e.g. zero mean)."""


class DegenerateVarianceError(DegenerateDataError):
    """A series is constant where nonzero variance is required."""


class SampleCountError(NumericalError):
    """Too few samples for the requested fit or statistic."""


class UnsupportedKindError(JoistError):
    """The operation does not apply to this model kind."""


class Record:
    """An immutable value with named fields, the base of the package's record types.

    A subclass declares its fields as class annotations, in order; a field
    given a value in the class body defaults to it. Instances are built by
    position or keyword, then checked by ``__post_init__``; assigning to or
    deleting an attribute raises ``AttributeError``. Two records are equal
    when they are of the same class and their fields are equal, and hash as
    the tuple of their fields. ``vars(record)`` is the fields, in order.

    Unlike ``dataclasses``, this generates no code per class, which keeps
    that cost out of every command's start.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(cls._fields[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(cls._fields)}, each once")
        values = {**cls._defaults, **dict(zip(cls._fields, args)), **kwargs}
        missing = [name for name in cls._fields if name not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() missing field(s): {', '.join(missing)}")
        vars(self).update((name, values[name]) for name in cls._fields)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; a subclass raises here for a value it does not accept."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def is_int(value) -> bool:
    """Whether *value* is an int but not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


def shown(value) -> str:
    """*value* as an error message shows it: its repr, but an int of more than 40 digits
    as its first 20 digits, "...", and its number of digits, as the CLI shortens a long
    digit run. str() refuses an int of more than 4,300 digits, so this counts them; a
    value whose repr is refused, such as a list holding such an int, shows its type and
    length."""
    if not (isinstance(value, int) and abs(value) >= 10**40):
        try:
            return repr(value)
        except ValueError:
            length = f" of length {len(value)}" if isinstance(value, Sized) else ""
            return f"a {type(value).__name__}{length}"
    magnitude = abs(value)
    # At least 2**(b - 1), so it has this many digits or one more.
    digits = int((magnitude.bit_length() - 1) * math.log10(2)) + 1
    digits += magnitude >= 10**digits
    return f"{'-' * (value < 0)}{magnitude // 10 ** (digits - 20)}...({digits} digits)"
