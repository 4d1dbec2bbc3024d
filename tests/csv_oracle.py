"""The row-wise CSV table reader that fileio used before its column-wise one.

Kept as a test oracle: on every input the library's ``_read_table`` and
``_numeric`` must return the same columns and arrays as these, or raise the
same exception type with the same message.
"""

import csv
from pathlib import Path

import numpy as np

from slicekit.errors import IoError, SchemaError


def read_table(path: Path, fixed: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """A CSV table's columns by name, in header order, skipping blank lines.

    The header starts with ``fixed`` and names each column once, every row has
    the header's width, and ``id`` runs 0..n-1.
    """
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if header is None:
        raise SchemaError(f"{path}: empty file")
    if tuple(header[: len(fixed)]) != fixed or len(set(header)) != len(header):
        raise SchemaError(
            f"{path}: header must start with {','.join(fixed)} and name each column once"
        )
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaError(f"{path}: row {i} has {len(row)} fields, not {len(header)}")
    columns = dict(zip(header, zip(*rows)))
    if not np.array_equal(numeric(path, columns, ["id"], int)[:, 0], np.arange(len(rows))):
        raise SchemaError(f"{path}: id column must run 0..n-1 in order")
    return columns


def numeric(path: Path, columns: dict, names: list[str], kind: type) -> np.ndarray:
    """The named columns as an n x len(names) array, each token converted by ``kind``."""
    values = np.empty((len(columns["id"]), len(names)), dtype=kind)
    try:
        for j, name in enumerate(names):
            values[:, j] = np.fromiter(map(kind, columns[name]), kind)
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: column {name}: {exc}") from exc
    return values
