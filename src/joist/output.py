"""How the package writes output: one CSV formatter and one crash-safe file writer.

Every CSV table (dataset, features, plot data and the composition table on
stdout) is formatted by :func:`_csv_chunks`. Every file the package writes
goes through :func:`_atomic_write`: a regular file is written in full under a
temporary name in its own directory and then moved over the target with
``os.replace``, so a run that fails, or is interrupted, leaves the old file
(or none) and no partial one.
"""

from __future__ import annotations

import os
import stat
from contextlib import suppress
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import IntegrityError, shown

# A temporary file is named ".<target name>.<8 hex digits>" + TEMP_SUFFIX.
TEMP_SUFFIX = ".joist-tmp"

# Rows per formatted block of a written CSV: a block is at most about 1.4 MB.
CHUNK_ROWS = 8192

# Two digits as uint16 text, by row: [0] a pair with a digit above it,
# "00".."99"; [1] a value's last pair with none above, " 0".." 9", "10".."99";
# [2] an earlier pair with none above, "  ", " 1".." 9", "10".."99". That is
# 111 distinct pairs; the spaces pad and are dropped from the output.
_PAIRS = np.frombuffer(
    "".join(
        [f"{i:02d}" for i in range(100)] + [f"{i:2d}" for i in range(100)] + ["  "] + [f"{i:2d}" for i in range(1, 100)]
    ).encode(),
    dtype=np.uint16,
).reshape(3, 100)
_COMMA, _NEWLINE = np.frombuffer(b", \n ", dtype=np.uint16)


def _csv_chunks(header: str, columns: list[np.ndarray]) -> Iterator[bytes]:
    """The CSV of equal-length columns under *header*, header first, in blocks of CHUNK_ROWS rows.

    A column is non-negative int64, formatted as ``"%d"``, or float64, formatted as ``str()``.
    """
    yield (header + "\n").encode()
    if not len(columns[0]):
        return
    # A float column is formatted once, whole: str() of each distinct bit pattern (so -0.0 is
    # not 0.0), space-padded to whole pairs, as a C-order (pairs, distinct values) table, which
    # each block's take reads without a copy. The column becomes each row's index into it.
    columns = list(columns)
    tables = {}
    for i, c in enumerate(columns):
        if c.dtype == np.float64:
            bits, columns[i] = np.unique(c.view(np.int64), return_inverse=True)
            texts = [str(v) for v in bits.view(np.float64).tolist()]
            width = max(map(len, texts))
            width += width % 2
            table = np.array([s.ljust(width) for s in texts], dtype=f"S{width}")
            tables[i] = np.ascontiguousarray(table.view(np.uint16).reshape(len(table), -1).T)
    for start in range(0, len(columns[0]), CHUNK_ROWS):
        yield _format_rows([c[start:start + CHUNK_ROWS] for c in columns], tables)


def _format_rows(columns: list[np.ndarray], tables: dict[int, np.ndarray]) -> bytes:
    # columns[i] for i in tables holds indices into the float text table tables[i].
    # One row of `text` per digit pair or separator, one column per CSV row.
    widths = [len(tables[i]) if i in tables else (len(str(int(c.max()))) + 1) // 2 for i, c in enumerate(columns)]
    text = np.empty((sum(widths) + len(columns), len(columns[0])), dtype=np.uint16)
    end = 0
    for i, (c, width) in enumerate(zip(columns, widths)):
        end += width
        if i in tables:
            np.take(tables[i], c, axis=1, out=text[end - width:end])
        else:
            rest = c
            for slot in range(end - 1, end - width, -1):  # the pairs below the top one, last first
                above = rest // 100
                index = rest - 100 * above
                index += (100 if slot == end - 1 else 200) * (above == 0)  # no higher digit: a top pair
                np.take(_PAIRS, index, out=text[slot])
                rest = above
            np.take(_PAIRS[1 if width == 1 else 2], rest, out=text[end - width])
        text[end] = _COMMA
        end += 1
    text[-1] = _NEWLINE
    return text.T.tobytes().translate(None, b" ")


def _atomic_write(
    path: str | Path, chunks: Iterable[bytes], *more: tuple[str | Path, Iterable[bytes]]
) -> None:
    """Write the concatenated *chunks* to *path*, replacing it only once all are written.

    Each of *more* is a further ``(path, chunks)`` pair: every file is
    written in full before any of them is replaced. A symlinked path is
    followed and the file it points to is replaced. A path that exists and
    is not a regular file (``/dev/null``, a FIFO) is written in place. A new
    file gets the mode a plain ``open()`` gives it under the umask; a
    replaced file keeps its mode. On any exception, ``KeyboardInterrupt``
    included, the temporary files are removed and the targets are untouched.
    IntegrityError if a path is not a str or os.PathLike; nothing is written.
    """
    for target, _ in ((path, chunks), *more):
        if not isinstance(target, (str, os.PathLike)):
            raise IntegrityError(f"path must be a str or os.PathLike, got {shown(target)}")
    staged: list[tuple[str, str]] = []
    try:
        for target, parts in ((path, chunks), *more):
            target = os.path.realpath(target)
            try:
                st = os.stat(target)
            except FileNotFoundError:
                st = None
            if st is not None and not stat.S_ISREG(st.st_mode):
                with open(target, "wb") as fh:
                    fh.writelines(parts)
                continue
            head, name = os.path.split(target)
            temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}{TEMP_SUFFIX}")
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
            staged.append((temp, target))
            with open(fd, "wb") as fh:
                if st is not None:
                    os.fchmod(fd, stat.S_IMODE(st.st_mode))
                fh.writelines(parts)
        for temp, target in staged:
            os.replace(temp, target)
    except BaseException:
        for temp, _ in staged:
            with suppress(FileNotFoundError):  # already moved into place
                os.unlink(temp)
        raise
