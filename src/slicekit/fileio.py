"""Bit-exact file ingestion and emission for embeddings, splits, and scores.

Formats
-------
EMB1 binary embeddings: bytes 0-3 ASCII ``EMB1``; bytes 4-7 uint32 LE
version (= 1); bytes 8-15 uint64 LE row count n; bytes 16-19 uint32 LE
dimensionality d; then n*d IEEE-754 float32 LE values in row-major order.
A read checks the declared size against the file's before it allocates,
then streams the payload in whole-row chunks through one reused float32
buffer into one float64 matrix, so it never holds a second copy of the whole
payload; a float32 read fills its result directly. A read of selected rows
(``keep``) streams and checks every row the same way but holds only the rows
it keeps. EMB1 is the only embeddings format.

Tables (CSV with a header, ``id`` running 0..n-1, one row per example):
the labels CSV ``id,y,y_hat[,p_0..p_{C-1}][,s_<name>...]``, the base table
``id,<binary column>...`` and the ingested predictions
``id,y_hat[,p_0..p_{C-1}]``. Both readers of probabilities take exactly the
columns ``p_0..p_{C-1}``, in order; any other name among them is a
SchemaError.
A table is read once as text and split into columns. Quoted fields, CR line
ends, NULs and fields over ``csv.field_size_limit()`` follow Python's csv
rules; text without them is split on newlines and commas directly, which
gives the same cells. A column of single ASCII digits converts in one numpy
step, every other cell through Python's ``int`` or ``float``.

Scores document: JSON with fields ``method``, ``n``, ``k_hat``, ``scores``
and optional ``slice_descriptions``.

Manifest: JSON ``{"settings": [...]}``, one object per setting with the
fields of :class:`ManifestEntry`. :func:`save_manifest` writes it and
:func:`load_manifest` reads it, so no other module builds one.

Typed JSON objects: :func:`from_json` builds a dataclass by its type hints
from ``setting.json``, a scores document, a manifest, a report row, error
row or ``k``/``seed``, or a config file. An unknown or missing key, or a
value of the wrong JSON kind, is a ValueError: true and 2.5 are not
integers, and an integer in a number field is a float.

Every reader fails with a :class:`SliceKitError`: :class:`IoError` when the
file cannot be read, :class:`SchemaError` or a subclass when it is malformed.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import os
import struct
import types
import typing
from itertools import chain
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .data import (
    EmbeddingMatrix,
    LabeledSplit,
    SliceScores,
    SliceSetting,
    all_finite,
    check_pair,
    duplicates,
    storage_dtype,
)
from .errors import (
    IoError,
    MagicMismatch,
    NonFiniteValue,
    RowCountMismatch,
    SchemaError,
    SliceKitError,
    TruncatedFile,
)
from .settings import BaseTable

_MAGIC = b"EMB1"
_VERSION = 1
_HEADER = struct.Struct("<4sIQI")
# float32 values per EMB1 chunk (4 MiB), rounded down to whole rows but at
# least one; a chunk goes through one reused buffer unless it is read in place
_CHUNK_VALUES = 1 << 20


# --- raw reads --------------------------------------------------------------


def read_lines(path: str | Path) -> Iterator[str]:
    """A text file's lines without their newlines, read one at a time."""
    try:
        with Path(path).open() as fh:
            for line in fh:
                yield line.rstrip("\n")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def read_json(path: str | Path) -> Any:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also UnicodeDecodeError
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc


# --- typed JSON objects -----------------------------------------------------

# The JSON kind of a Python container, or of a type hint's origin.
_JSON_CONTAINER = {list: list, tuple: list, dict: dict}
_KIND_WORDS = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               list: "a list", dict: "an object"}


def _container(option) -> type:
    """list or dict if a type hint option takes a JSON array or object, else object."""
    origin = dict if dataclasses.is_dataclass(option) else typing.get_origin(option)
    return _JSON_CONTAINER.get(origin, object)


def _kind_words(options) -> str:
    words = (_KIND_WORDS.get(_container(o), _KIND_WORDS.get(o)) for o in options)
    return " or ".join(dict.fromkeys(filter(None, words)))


def _field_value(name: str, hint, value):
    """``value`` as a field of type ``hint``; raises ValueError unless its JSON kind fits.

    A JSON true is a Python int, and 2.5 would pass an int field's bounds, so
    neither counts as an integer; an integer in a float field becomes a float.
    An array fills a list or tuple field, and an object fills a dataclass
    field; among dataclasses with a ``kind`` it picks one by its ``kind`` key.
    ``Any`` takes every value.
    """
    if hint is Any:
        return value
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    options = typing.get_args(hint) if union else (hint,)
    container = _JSON_CONTAINER.get(type(value), object)
    fits = [o for o in options if _container(o) is container]
    if fits and container is list:
        entry = typing.get_args(fits[0])[0]
        return typing.get_origin(fits[0])(_field_value(f"{name}[{i}]", entry, v) for i, v in enumerate(value))
    if fits and container is dict and dataclasses.is_dataclass(fits[0]):
        chosen = fits[0]
        if hasattr(chosen, "kind"):
            kind = value.get("kind", chosen.kind)
            chosen = next((o for o in fits if o.kind == kind), None)
            if chosen is None:
                raise ValueError(f"{name} kind must be {' or '.join(repr(o.kind) for o in fits)}, got {kind!r}")
            value = {k: v for k, v in value.items() if k != "kind"}
        return from_json(chosen, value, name, f"{name} ")
    if fits and container is dict:
        return {k: _field_value(f"{name}[{k!r}]", typing.get_args(fits[0])[1], v) for k, v in value.items()}
    if container is object and (bool in fits or not isinstance(value, bool)):
        if float in fits and isinstance(value, int):
            return float(value)
        if isinstance(value, tuple(fits)):
            return value
    raise ValueError(f"{name} must be {_kind_words(fits) or _kind_words(options)}, got {value!r}")


# Each class's type hints are resolved once: a resolution takes about 0.1 ms.
_type_hints = functools.cache(typing.get_type_hints)


def from_json(cls, values: Any, label: str, prefix: str = "", **given):
    """The dataclass ``cls`` from the parsed JSON object ``values``; raises ValueError.

    ``given`` holds fields that are already typed, such as a setting's splits,
    which ``values`` may not set. ``prefix`` starts each field's name, and
    also the message of an entry's own check: an entry is named by its index
    or key, such as ``settings[2]``.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{label} must be a JSON object, got {values!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(name for name in values if name not in fields or name in given)
    if unknown:
        raise ValueError(f"unknown {label} parameters: {', '.join(unknown)}")
    for f in fields.values():
        if f.default is f.default_factory is dataclasses.MISSING and f.name not in {**given, **values}:
            raise ValueError(f"{prefix}{f.name} is required")
    hints = _type_hints(cls)
    typed = {name: _field_value(prefix + name, hints[name], v) for name, v in values.items()}
    try:
        return cls(**given, **typed)
    except ValueError as exc:  # an entry is one of many, so its own check names it: ``settings[2]``
        raise ValueError(f"{prefix}{exc}") if label.endswith("]") else exc


# --- embeddings -------------------------------------------------------------


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix as an EMB1 file."""
    payload = np.ascontiguousarray(emb.values, dtype="<f4")
    try:
        with Path(path).open("wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, emb.n, emb.d))
            fh.write(payload.data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_embeddings(
    path: str | Path, *, dtype: type = np.float64, keep: np.ndarray | None = None
) -> EmbeddingMatrix:
    """Read an EMB1 file.

    ``dtype=np.float32`` keeps the payload as stored (see ``data``). Any
    other ``dtype`` is a ValueError. ``keep``, one bool per row of the file,
    returns only the rows it marks, in file order. Every row is still read
    and checked, and a file with another row count than ``keep`` raises
    RowCountMismatch once the payload has passed every other check.
    """
    dtype = storage_dtype(dtype)
    path = Path(path)
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
    try:
        return EmbeddingMatrix(_read_emb1(path, dtype, keep), dtype=dtype)
    except NonFiniteValue as exc:
        raise NonFiniteValue(f"{path}: embedding payload contains NaN or Inf") from exc


def _read_emb1(path: Path, dtype: np.dtype, keep: np.ndarray | None) -> np.ndarray:
    """Every row of the payload, or those ``keep`` marks, read in whole-row chunks.

    The size check runs before anything is allocated. Each chunk goes through
    one reused float32 buffer of about ``_CHUNK_VALUES`` values, so a
    selection never holds the whole payload; a float32 read of every row
    fills its result directly. A selection raises for a NaN or Inf in any
    row, kept or not, then for a ``keep`` of another length than the file's
    row count; a whole read leaves its finiteness check to EmbeddingMatrix.
    """
    try:
        with path.open("rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise TruncatedFile(f"{path}: shorter than the {_HEADER.size}-byte header")
            magic, version, n, d = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise MagicMismatch(f"{path}: bad magic {magic!r}, not an EMB1 file")
            if version != _VERSION:
                raise MagicMismatch(f"{path}: unsupported version {version}")
            if n < 1 or d < 1:
                raise SchemaError(f"{path}: declares an empty {n} x {d} matrix")
            expected = _HEADER.size + 4 * n * d
            if size != expected:
                raise TruncatedFile(f"{path}: {size} bytes, expected {expected}")
            step = min(max(1, _CHUNK_VALUES // d), n)
            direct = keep is None and dtype == np.float32
            rows = n if keep is None else int(np.count_nonzero(keep))
            # a selection is gathered as stored, then widened to ``dtype``
            wide = keep is None and not direct
            values = np.empty((rows, d), dtype=np.float64 if wide else "<f4")
            buf = None if direct else np.empty((step, d), dtype="<f4")
            finite, filled = True, 0
            for start in range(0, n, step):
                stop = min(start + step, n)
                chunk = values[start:stop] if direct else buf[: stop - start]
                got = fh.readinto(chunk.data)
                if got != chunk.nbytes:
                    end = _HEADER.size + 4 * start * d + got
                    raise TruncatedFile(f"{path}: ended at byte {end}, expected {expected}")
                if keep is None:
                    if not direct:
                        values[start:stop] = chunk
                    continue
                finite = finite and all_finite(chunk)
                # past the end of a short keep nothing is kept; RowCountMismatch follows
                marks = keep[start:stop]
                count = int(np.count_nonzero(marks))
                np.compress(marks, chunk, axis=0, out=values[filled : filled + count])
                filled += count
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not finite:
        raise NonFiniteValue("embedding payload contains NaN or Inf")
    if keep is not None and len(keep) != n:
        raise RowCountMismatch(f"{path}: embeddings have {n} rows, expected {len(keep)}")
    return values.astype(dtype, copy=False)


# --- tables: the labels, base-table and predictions CSVs ---------------------


def _read_text(path: Path) -> str:
    """A file's whole text, line ends kept as they are, as csv reads it."""
    try:
        with path.open(newline="") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError:
                # csv decodes a chunk at a time and can stop at an earlier csv
                # error, so let it meet the bad bytes and report them itself
                fh.seek(0)
                list(csv.reader(fh))
                raise
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _read_table(path: Path, fixed: tuple[str, ...]) -> dict[str, list[str]]:
    """A CSV table's columns by name, in header order, skipping blank lines.

    The header starts with ``fixed`` and names each column once, every row has
    the header's width, and ``id`` runs 0..n-1. The default csv dialect treats
    only quotes, CR, LF and (before Python 3.11) NUL specially, so text
    without the first three, without NUL and without a line longer than csv's
    field size limit is split on newlines and commas directly, all rows at
    once. Any other text goes through :mod:`csv`.
    """
    text = _read_text(path)
    lines = text.split("\n")
    plain = not any(c in text for c in '"\r\0') and max(map(len, lines)) <= csv.field_size_limit()
    if plain:
        # csv reads no header from empty text and no fields from a blank line
        header = lines[0].split(",") if lines[0] else [] if text else None
        rows = list(filter(None, lines[1:]))
    else:
        try:
            reader = csv.reader(io.StringIO(text, newline=""))
            header = next(reader, None)
            rows = [row for row in reader if row]
        except csv.Error as exc:
            raise SchemaError(f"{path}: {exc}") from exc
    del text, lines
    if header is None:
        raise SchemaError(f"{path}: empty file")
    if tuple(header[: len(fixed)]) != fixed or len(set(header)) != len(header):
        raise SchemaError(
            f"{path}: header must start with {','.join(fixed)} and name each column once"
        )
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    n, width = len(rows), len(header)
    columns = None
    if plain:
        # Joined by ",\n,", the lines split into their cells with a "\n" cell
        # between rows, and no cell of a line is "\n", so every row has the
        # header's width exactly when the markers fall every width + 1 cells.
        cells = ",\n,".join(rows).split(",")
        if len(cells) == n * (width + 1) - 1 and cells[width :: width + 1].count("\n") == n - 1:
            columns = {name: cells[j :: width + 1] for j, name in enumerate(header)}
        else:
            rows = [line.split(",") for line in rows]
    if columns is None:
        for i, row in enumerate(rows):
            if len(row) != width:
                raise SchemaError(f"{path}: row {i} has {len(row)} fields, not {width}")
        columns = dict(zip(header, map(list, zip(*rows))))
    if not np.array_equal(_numeric(path, columns, ["id"], int)[:, 0], np.arange(n)):
        raise SchemaError(f"{path}: id column must run 0..n-1 in order")
    return columns


def _digits(column: list[str]) -> np.ndarray | None:
    """The column's values when every cell is one ASCII digit, else None."""
    # n non-empty cells holding n characters in all hold one each
    text = "".join(column)
    if len(text) == len(column) and all(column) and text.isascii() and text.isdigit():
        return np.frombuffer(text.encode("ascii"), np.uint8) - ord("0")
    return None


def _numeric(path: Path, columns: dict, names: list[str], kind: type) -> np.ndarray:
    """The named columns as an n x len(names) array, each cell converted by ``kind``.

    A column of single ASCII digits is converted in one step; any other
    column goes through ``kind`` cell by cell, so a cell is accepted exactly
    when ``kind`` accepts it.
    """
    values = np.empty((len(columns["id"]), len(names)), dtype=kind)
    try:
        for j, name in enumerate(names):
            column = _digits(columns[name])
            if column is None:
                column = np.fromiter(map(kind, columns[name]), kind)
            values[:, j] = column
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: column {name}: {exc}") from exc
    return values


def save_split(split: LabeledSplit, path: str | Path) -> None:
    """Write the labels CSV for one split, a whole column at a time."""
    columns = {"id": np.arange(split.n), "y": split.labels, "y_hat": split.predictions}
    if split.prediction_probs is not None:
        columns.update((f"p_{c}", col) for c, col in enumerate(split.prediction_probs.T))
    columns.update((f"s_{name}", col) for name, col in zip(split.slice_names, split.slices.T))
    # Python ints and floats print as the shortest text that reads back exactly.
    rows = zip(*(map(str, column.tolist()) for column in columns.values()))
    try:
        with Path(path).open("w", newline="") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write("\n".join(map(",".join, rows)) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _check_probability_columns(path: Path, names: list[str]) -> None:
    """Raise SchemaError unless ``names`` are ``p_0..p_{C-1}`` in order."""
    if names != [f"p_{c}" for c in range(len(names))]:
        raise SchemaError(f"{path}: probability columns must be p_0..p_{{C-1}}")


def _load_labels(path: Path) -> LabeledSplit:
    columns = _read_table(path, ("id", "y", "y_hat"))
    prob_cols = [h for h in columns if h.startswith("p_")]
    slice_cols = [h for h in columns if h.startswith("s_")]
    unknown = [h for h in list(columns)[3:] if not h.startswith(("p_", "s_"))]
    if unknown:
        raise SchemaError(f"{path}: unknown columns {unknown}")
    _check_probability_columns(path, prob_cols)
    if not slice_cols:
        raise SchemaError(f"{path}: at least one s_<name> slice column is required")
    for name in slice_cols:
        other = set(columns[name]) - {"0", "1"}
        if other:
            raise SchemaError(f"{path}: slice column {name} holds {min(other)!r}, not 0/1")

    labels, preds = _numeric(path, columns, ["y", "y_hat"], int).T
    probs = _numeric(path, columns, prob_cols, float) if prob_cols else None
    num_classes = len(prob_cols) or max(2, int(labels.max()) + 1, int(preds.max()) + 1)
    try:
        return LabeledSplit(
            labels=labels,
            predictions=preds,
            slices=_numeric(path, columns, slice_cols, int),
            slice_names=tuple(name[2:] for name in slice_cols),
            num_classes=num_classes,
            prediction_probs=probs,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except SliceKitError as exc:  # LabelOutOfRange, NonFiniteValue, ArgmaxInconsistent
        raise type(exc)(f"{path}: {exc}") from exc


def load_split(
    labels_path: str | Path, emb_path: str | Path
) -> tuple[EmbeddingMatrix, LabeledSplit]:
    """Read a labels CSV plus its companion embedding file as a validated pair."""
    split = _load_labels(Path(labels_path))
    emb = load_embeddings(emb_path)
    check_pair(emb, split)
    return emb, split


# --- scores document --------------------------------------------------------


def save_scores(scores: SliceScores, path: str | Path) -> None:
    """Emit the JSON scores document for one slice discovery run."""
    doc: dict[str, Any] = {
        "method": scores.method,
        "n": scores.n,
        "k_hat": scores.k_hat,
        "scores": [[float(v) for v in row] for row in scores.scores],
    }
    if scores.slice_descriptions is not None:
        doc["slice_descriptions"] = [list(d) for d in scores.slice_descriptions]
    write_json(path, doc)


@dataclasses.dataclass(frozen=True)
class _ScoresDocument:
    """A scores document's fields. ``scores`` is checked in one pass by ``load_scores``."""

    method: str
    n: int
    k_hat: int
    scores: Any
    slice_descriptions: list[list[str]] | None = None


def load_scores(path: str | Path) -> SliceScores:
    try:
        doc = from_json(_ScoresDocument, read_json(path), "scores document")
        rows = doc.scores
        # one C-level scan of the kinds, not one typed read per value
        if not (isinstance(rows, list) and set(map(type, rows)) <= {list}
                and set(map(type, chain.from_iterable(rows))) <= {int, float}):
            raise ValueError("scores must be a list of lists of numbers")
        scores = np.asarray(rows, dtype=np.float64)
        if scores.ndim != 2 or scores.shape != (doc.n, doc.k_hat):
            raise ValueError(f"scores shape {scores.shape} does not match n/k_hat fields")
        descriptions = doc.slice_descriptions
        if descriptions is not None:
            descriptions = tuple(map(tuple, descriptions))
        return SliceScores(scores, method=doc.method, slice_descriptions=descriptions)
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# --- setting directories ----------------------------------------------------


def write_json(path: str | Path, payload: Any) -> None:
    """Write canonical JSON: sorted keys, fixed separators, trailing newline."""
    try:
        Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_setting(setting: SliceSetting, directory: str | Path) -> None:
    """Materialize one setting directory: valid/test files plus setting.json."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot make {directory}: {exc}") from exc
    save_embeddings(setting.valid_emb, directory / "valid.emb")
    save_split(setting.valid_split, directory / "valid.csv")
    save_embeddings(setting.test_emb, directory / "test.emb")
    save_split(setting.test_split, directory / "test.csv")
    write_json(
        directory / "setting.json",
        {
            "slice_type": setting.slice_type,
            "alpha": setting.alpha,
            "model_kind": setting.model_kind,
            "seed": setting.seed,
            "provenance": setting.provenance,
        },
    )


def load_setting(directory: str | Path) -> SliceSetting:
    directory = Path(directory)
    meta_path = directory / "setting.json"
    if not meta_path.exists():
        raise SchemaError(f"{directory}: missing setting.json")
    meta = read_json(meta_path)
    valid_emb, valid_split = load_split(directory / "valid.csv", directory / "valid.emb")
    test_emb, test_split = load_split(directory / "test.csv", directory / "test.emb")
    try:
        return from_json(SliceSetting, meta, "setting", valid_emb=valid_emb, valid_split=valid_split,
                         test_emb=test_emb, test_split=test_split)
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{meta_path}: bad setting: {type(exc).__name__}: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    """One setting of a manifest: its id and its directory, relative to the manifest.

    ``path`` defaults to the id. ``synth`` also records each setting's
    ``slice_type``, ``alpha`` and ``replicate``, which ``eval`` does not read.
    """

    id: str
    path: str | None = None
    slice_type: str | None = None
    alpha: float | None = None
    replicate: int | None = None

    def __post_init__(self) -> None:
        for name in ("id", "path"):
            if getattr(self, name) == "":
                raise ValueError(f"{name} must not be empty")


@dataclasses.dataclass(frozen=True)
class _Manifest:
    settings: list[ManifestEntry]


def save_manifest(path: str | Path, entries: list[ManifestEntry]) -> None:
    """Write a manifest of ``entries``, each with all of its fields."""
    write_json(path, {"settings": [dataclasses.asdict(e) for e in entries]})


def load_manifest(path: str | Path) -> list[tuple[str, Path]]:
    """(id, directory) of every setting a manifest lists, in manifest order."""
    path = Path(path)
    try:
        entries = from_json(_Manifest, read_json(path), "manifest").settings
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: bad manifest: {exc}") from exc
    if not entries:
        raise SchemaError(f"{path}: manifest lists no settings")
    repeated = duplicates([e.id for e in entries])
    if repeated:
        raise SchemaError(f"{path}: manifest lists setting ids more than once: {', '.join(repeated)}")
    settings = [(e.id, path.parent / (e.path or e.id)) for e in entries]
    repeated = duplicates([str(directory.resolve()) for _, directory in settings])
    if repeated:
        raise SchemaError(
            f"{path}: manifest lists setting directories more than once: {', '.join(repeated)}"
        )
    return settings


# --- generator inputs -------------------------------------------------------


def load_base_table(path: str | Path, target: str, attribute: str) -> BaseTable:
    """Read a base table CSV: ``id`` 0..n-1, then one binary column per attribute."""
    path = Path(path)
    columns = _read_table(path, ("id",))
    names = list(columns)[1:]
    try:
        return BaseTable(
            names=tuple(names),
            values=_numeric(path, columns, names, int),
            target=target,
            attribute=attribute,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_ingested_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Predictions and optional class probabilities, one row per base-table row.

    Every column after ``y_hat`` is a probability column: they must be
    ``p_0..p_{C-1}``, as in a labels CSV.
    """
    path = Path(path)
    columns = _read_table(path, ("id", "y_hat"))
    prob_cols = list(columns)[2:]
    _check_probability_columns(path, prob_cols)
    probs = _numeric(path, columns, prob_cols, float) if prob_cols else None
    return _numeric(path, columns, ["y_hat"], int)[:, 0], probs
