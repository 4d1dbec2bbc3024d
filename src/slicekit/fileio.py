"""Bit-exact file ingestion and emission for embeddings, splits, and scores.

Formats
-------
EMB1 binary embeddings: bytes 0-3 ASCII ``EMB1``; bytes 4-7 uint32 LE
version (= 1); bytes 8-15 uint64 LE row count n; bytes 16-19 uint32 LE
dimensionality d; then n*d IEEE-754 float32 LE values in row-major order.
Files with a ``.csv`` suffix fall back to headerless CSV with d decimal
floats per row.

Labels CSV: header ``id,y,y_hat[,p_0..p_{C-1}][,s_<name>...]`` with ``id``
strictly increasing from 0.

Scores document: JSON with fields ``method``, ``n``, ``k_hat``, ``scores``
and optional ``slice_descriptions``.

Every reader fails with a :class:`SliceKitError`: :class:`IoError` when the
file cannot be read, :class:`SchemaError` or a subclass when it is malformed.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from .data import EmbeddingMatrix, LabeledSplit, SliceScores, SliceSetting, check_pair
from .errors import (
    IoError,
    LabelOutOfRange,
    MagicMismatch,
    NonFiniteValue,
    SchemaError,
    TruncatedFile,
)
from .settings import BaseTable

_MAGIC = b"EMB1"
_VERSION = 1
_HEADER = struct.Struct("<4sIQI")


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


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """The header and the non-blank rows of a CSV file."""
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
    return header, rows


# --- embeddings -------------------------------------------------------------


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix; EMB1 binary unless the path ends in .csv."""
    path = Path(path)
    try:
        if path.suffix == ".csv":
            with path.open("w", newline="") as fh:
                for row in emb.values:
                    fh.write(",".join(repr(float(v)) for v in row))
                    fh.write("\n")
        else:
            payload = np.ascontiguousarray(emb.values, dtype="<f4").tobytes()
            with path.open("wb") as fh:
                fh.write(_HEADER.pack(_MAGIC, _VERSION, emb.n, emb.d))
                fh.write(payload)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read an EMB1 binary file, or headerless CSV for a .csv path."""
    path = Path(path)
    if path.suffix == ".csv":
        return _load_embeddings_csv(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if len(raw) < _HEADER.size:
        raise TruncatedFile(f"{path}: shorter than the {_HEADER.size}-byte header")
    magic, version, n, d = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise MagicMismatch(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise MagicMismatch(f"{path}: unsupported version {version}")
    if n < 1 or d < 1:
        raise SchemaError(f"{path}: declares an empty {n} x {d} matrix")
    expected = _HEADER.size + 4 * n * d
    if len(raw) != expected:
        raise TruncatedFile(f"{path}: {len(raw)} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(n, d)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path}: embedding payload contains NaN or Inf")
    return EmbeddingMatrix(values)


def _load_embeddings_csv(path: Path) -> EmbeddingMatrix:
    rows: list[list[float]] = []
    for lineno, line in enumerate(read_lines(path)):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise SchemaError(f"{path}:{lineno + 1}: {exc}") from exc
    if not rows:
        raise TruncatedFile(f"{path}: no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise SchemaError(f"{path}: ragged rows (widths {sorted(widths)})")
    values = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(values)):
        raise NonFiniteValue(f"{path}: embedding payload contains NaN or Inf")
    return EmbeddingMatrix(values)


# --- labels CSV -------------------------------------------------------------


def save_split(split: LabeledSplit, path: str | Path) -> None:
    """Write the labels CSV for one split."""
    path = Path(path)
    header = ["id", "y", "y_hat"]
    if split.prediction_probs is not None:
        header += [f"p_{c}" for c in range(split.num_classes)]
    header += [f"s_{name}" for name in split.slice_names]
    try:
        with path.open("w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(split.n):
                row = [str(i), str(int(split.labels[i])), str(int(split.predictions[i]))]
                if split.prediction_probs is not None:
                    row += [repr(float(v)) for v in split.prediction_probs[i]]
                row += [str(int(v)) for v in split.slices[i]]
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _parse_split_csv(path: Path) -> LabeledSplit:
    header, records = _read_csv(path)

    required = ["id", "y", "y_hat"]
    if header[: len(required)] != required:
        raise SchemaError(
            f"{path}: header must start with {','.join(required)}, got {header[:3]}"
        )
    prob_cols = [h for h in header if h.startswith("p_")]
    slice_cols = [h for h in header if h.startswith("s_")]
    known = set(required) | set(prob_cols) | set(slice_cols)
    unknown = [h for h in header if h not in known]
    if unknown:
        raise SchemaError(f"{path}: unknown columns {unknown}")
    if prob_cols:
        expected = [f"p_{c}" for c in range(len(prob_cols))]
        if prob_cols != expected:
            raise SchemaError(f"{path}: probability columns must be p_0..p_{{C-1}}")
    if not slice_cols:
        raise SchemaError(f"{path}: at least one s_<name> slice column is required")
    if not records:
        raise SchemaError(f"{path}: no data rows")

    col_index = {h: i for i, h in enumerate(header)}
    n = len(records)
    labels = np.empty(n, dtype=np.int64)
    preds = np.empty(n, dtype=np.int64)
    probs = np.empty((n, len(prob_cols)), dtype=np.float64) if prob_cols else None
    slices = np.empty((n, len(slice_cols)), dtype=np.int64)

    try:
        for i, row in enumerate(records):
            if len(row) != len(header):
                raise SchemaError(f"{path}: row {i} has {len(row)} fields, not {len(header)}")
            if int(row[col_index["id"]]) != i:
                raise SchemaError(f"{path}: id column must increase strictly from 0 (row {i})")
            labels[i] = int(row[col_index["y"]])
            preds[i] = int(row[col_index["y_hat"]])
            if probs is not None:
                for c, name in enumerate(prob_cols):
                    probs[i, c] = float(row[col_index[name]])
            for j, name in enumerate(slice_cols):
                value = row[col_index[name]]
                if value not in ("0", "1"):
                    raise SchemaError(f"{path}: slice column {name} holds {value!r}, not 0/1")
                slices[i, j] = int(value)
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: row {i}: {exc}") from exc

    if probs is not None:
        num_classes = probs.shape[1]
    else:
        num_classes = max(2, int(labels.max()) + 1, int(preds.max()) + 1)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LabelOutOfRange(f"{path}: label outside [0, {num_classes - 1}]")
    if preds.min() < 0 or preds.max() >= num_classes:
        raise LabelOutOfRange(f"{path}: prediction outside [0, {num_classes - 1}]")

    try:
        return LabeledSplit(
            labels=labels,
            predictions=preds,
            slices=slices,
            slice_names=tuple(name[2:] for name in slice_cols),
            num_classes=num_classes,
            prediction_probs=probs,
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_split(
    labels_path: str | Path, emb_path: str | Path
) -> tuple[EmbeddingMatrix, LabeledSplit]:
    """Read a labels CSV plus its companion embedding file as a validated pair."""
    split = _parse_split_csv(Path(labels_path))
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


def load_scores(path: str | Path) -> SliceScores:
    doc = read_json(path)
    try:
        for key in ("method", "n", "k_hat", "scores"):
            if not isinstance(doc, dict) or key not in doc:
                raise SchemaError(f"{path}: scores document missing {key!r}")
        scores = np.asarray(doc["scores"], dtype=np.float64)
        if scores.ndim != 2 or scores.shape != (doc["n"], doc["k_hat"]):
            raise SchemaError(
                f"{path}: scores shape {scores.shape} does not match n/k_hat fields"
            )
        descriptions = doc.get("slice_descriptions")
        if descriptions is not None:
            descriptions = tuple(tuple(d) for d in descriptions)
        return SliceScores(scores, method=doc["method"], slice_descriptions=descriptions)
    except (OverflowError, TypeError, ValueError) as exc:
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
    directory.mkdir(parents=True, exist_ok=True)
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
        return SliceSetting(
            valid_emb=valid_emb,
            valid_split=valid_split,
            test_emb=test_emb,
            test_split=test_split,
            slice_type=meta["slice_type"],
            alpha=float(meta["alpha"]),
            model_kind=meta["model_kind"],
            seed=int(meta["seed"]),
            provenance=meta.get("provenance", {}),
        )
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"{directory}: bad setting: {type(exc).__name__}: {exc}") from exc


def load_manifest(path: str | Path) -> list[tuple[str, Path]]:
    """(id, directory) of every setting a manifest lists, in manifest order."""
    path = Path(path)
    doc = read_json(path)
    entries = doc.get("settings") if isinstance(doc, dict) else None
    if not entries or not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("id"), str) and isinstance(e.get("path", ""), str)
        for e in entries
    ):
        raise SchemaError(
            f"{path}: a manifest is a JSON object whose 'settings' list is non-empty "
            "and holds a string 'id' (and optional 'path') per setting"
        )
    return [(e["id"], path.parent / e.get("path", e["id"])) for e in entries]


# --- generator inputs -------------------------------------------------------


def load_base_table(path: str | Path, target: str, attribute: str) -> BaseTable:
    """Read a base table CSV with the given target and attribute columns."""
    path = Path(path)
    header, rows = _read_csv(path)
    if header[:1] != ["id"]:
        raise SchemaError(f"{path}: base table header must start with 'id'")
    try:
        values = np.asarray([[int(v) for v in row[1:]] for row in rows], dtype=np.int64)
        return BaseTable(
            names=tuple(header[1:]), values=values, target=target, attribute=attribute
        )
    except (OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_ingested_predictions(path: str | Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Predictions and optional class probabilities, one row per base-table row."""
    path = Path(path)
    header, rows = _read_csv(path)
    if header[:2] != ["id", "y_hat"]:
        raise SchemaError(f"{path}: predictions header must start with id,y_hat")
    prob_cols = header[2:]
    preds = np.empty(len(rows), dtype=np.int64)
    probs = np.empty((len(rows), len(prob_cols))) if prob_cols else None
    try:
        for i, row in enumerate(rows):
            if int(row[0]) != i:
                raise SchemaError(f"{path}: id column must increase strictly from 0")
            preds[i] = int(row[1])
            if probs is not None:
                probs[i] = [float(v) for v in row[2:]]
    except (IndexError, OverflowError, ValueError) as exc:
        raise SchemaError(f"{path}: row {i}: {exc}") from exc
    return preds, probs
