"""Core data model: embeddings, labeled splits, settings, and slice scores.

All types validate their invariants at construction and are immutable
afterwards, so they can be shared read-only across workers.

One array rule holds for every value type here and for ``BaseTable``,
``MixtureParams`` and ``Responsibilities``: each array argument passes through
``np.ascontiguousarray`` in its field's dtype, and once the checks pass,
``keep_arrays`` marks it read-only and stores it. So an argument that already
has the dtype and is C-contiguous is kept without a copy, and the caller's own
array can no longer be written (a write raises ``ValueError``); memory it
shares with another, writable view still changes through that view. Any other
array, a strided view included, is copied, and the caller's stays writable. A
rejected argument is never frozen. So a large input, such as a phrase corpus,
is never held twice.

Embeddings are float64, except as storage: ``EmbeddingMatrix(values,
dtype=np.float32)`` keeps a float32 array, such as an EMB1 payload as read,
under the same rule at half the memory. It is for code that only gathers or
ranks rows and upcasts just the rows it computes on, which is exact. It never
rounds: a float64 array, or any other that float32 cannot hold exactly,
raises ``DtypeMismatch``. Nor is it fit: ``check_pair``, which every fitting
path calls, raises ``DtypeMismatch`` for it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import (
    AlphaOutOfRange,
    ArgmaxInconsistent,
    DimensionMismatch,
    DtypeMismatch,
    LabelOutOfRange,
    NonFiniteValue,
    RowCountMismatch,
)

MODEL_KINDS = ("trained_ingested", "synthetic")

# Legal slice-strength ranges per slice type (inclusive endpoints; the
# benchmark grids use the endpoints themselves).
ALPHA_RANGES: Mapping[str, tuple[float, float]] = {
    "rare": (0.01, 0.1),
    "correlation": (0.2, 0.8),
    "noisy_label": (0.01, 0.3),
}
SLICE_TYPES = tuple(ALPHA_RANGES)


def keep_arrays(obj: Any, **arrays: np.ndarray | None) -> None:
    """Make each array read-only and set it as the named field of frozen ``obj``."""
    for name, arr in arrays.items():
        if arr is not None:
            arr.setflags(write=False)
        object.__setattr__(obj, name, arr)


def duplicates(names: list[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted(name for name, count in Counter(names).items() if count > 1)


def all_finite(values: np.ndarray) -> bool:
    """True when no entry of ``values`` is NaN or Inf.

    A NaN or Inf entry makes the sum non-finite, so the elementwise check,
    with its temporary as large as ``values``, runs only for a bad entry or
    an overflowing sum.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    return bool(np.isfinite(total) or np.all(np.isfinite(values)))


def storage_dtype(dtype: Any) -> np.dtype:
    """``dtype`` as a numpy dtype; ValueError unless it is float64 or float32."""
    dtype = np.dtype(dtype)
    if dtype not in (np.float64, np.float32):
        raise ValueError(f"embeddings are stored as float64 or float32, not {dtype}")
    return dtype


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Dense n-by-d matrix of input or phrase embeddings, row i = example i.

    ``values`` follows the module's array rule in ``dtype``: float64, or
    float32 storage as the module docstring describes. ``dtype`` is not kept
    as a field, so ``dataclasses.replace`` of a float32 matrix upcasts it.
    """

    values: np.ndarray
    dtype: InitVar[type] = np.float64

    def __post_init__(self, dtype: type) -> None:
        dtype = storage_dtype(dtype)
        if dtype == np.float32:
            given = np.asarray(self.values).dtype
            if not np.can_cast(given, dtype):
                raise DtypeMismatch(f"float32 storage would round {given} embeddings")
        values = np.ascontiguousarray(self.values, dtype=dtype)
        if values.ndim != 2:
            raise ValueError(f"embeddings must be 2-d, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"embeddings need n >= 1 and d >= 1, got {values.shape}")
        if not all_finite(values):
            raise NonFiniteValue("embedding matrix contains NaN or Inf")
        keep_arrays(self, values=values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LabeledSplit:
    """Per-example labels, model predictions, and ground-truth slice columns.

    ``labels``, ``predictions`` and ``slices`` are int64 and
    ``prediction_probs`` is float64; all follow the module's array rule.
    """

    labels: np.ndarray
    predictions: np.ndarray
    slices: np.ndarray
    slice_names: tuple[str, ...]
    num_classes: int
    prediction_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        preds = np.ascontiguousarray(self.predictions, dtype=np.int64)
        slices = np.ascontiguousarray(self.slices, dtype=np.int64)
        names = tuple(str(s) for s in self.slice_names)
        c = int(self.num_classes)

        if labels.ndim != 1:
            raise ValueError("labels must be 1-d")
        n = labels.shape[0]
        if n < 1:
            raise ValueError("split must contain at least one example")
        if preds.shape != (n,):
            raise RowCountMismatch(
                f"predictions have {preds.shape[0]} rows, labels have {n}"
            )
        if slices.ndim != 2 or slices.shape[0] != n:
            raise RowCountMismatch(
                f"slice matrix shape {slices.shape} does not match n={n}"
            )
        if slices.shape[1] < 1:
            raise ValueError("at least one slice column is required")
        if len(names) != slices.shape[1] or len(set(names)) != len(names):
            raise ValueError(
                f"slice names {names} are not {slices.shape[1]} distinct names, one per column"
            )
        if c < 2:
            raise ValueError("num_classes must be >= 2")
        if labels.min() < 0 or labels.max() >= c:
            raise LabelOutOfRange(f"labels outside [0, {c - 1}]")
        if preds.min() < 0 or preds.max() >= c:
            raise LabelOutOfRange(f"predictions outside [0, {c - 1}]")
        if not np.isin(slices, (0, 1)).all():
            raise ValueError("slice memberships must be 0 or 1")

        probs = self.prediction_probs
        if probs is not None:
            probs = np.ascontiguousarray(probs, dtype=np.float64)
            if probs.shape != (n, c):
                raise RowCountMismatch(
                    f"probability matrix shape {probs.shape}, expected {(n, c)}"
                )
            if not np.all(np.isfinite(probs)):
                raise NonFiniteValue("prediction probabilities contain NaN or Inf")
            if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-6 or probs.min() < 0:
                raise ValueError(
                    "probability rows must be non-negative and sum to 1 within 1e-6"
                )
            # np.argmax breaks ties toward the lower class index, as required.
            if not np.array_equal(np.argmax(probs, axis=1), preds):
                raise ArgmaxInconsistent(
                    "hard predictions disagree with argmax of probabilities"
                )

        keep_arrays(self, labels=labels, predictions=preds, slices=slices, prediction_probs=probs)
        object.__setattr__(self, "slice_names", names)
        object.__setattr__(self, "num_classes", c)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    @property
    def num_slices(self) -> int:
        return self.slices.shape[1]


def check_pair(emb: EmbeddingMatrix, split: LabeledSplit) -> None:
    """Raise unless emb and split describe the same examples and emb can be fit.

    A float32-stored ``emb`` (see the module docstring) raises DtypeMismatch,
    differing row counts RowCountMismatch.
    """
    if emb.values.dtype != np.float64:
        raise DtypeMismatch(
            "embeddings stored as float32 are not fit on; EmbeddingMatrix(emb.values) "
            "gives their exact float64 form"
        )
    if emb.n != split.n:
        raise RowCountMismatch(f"embeddings have {emb.n} rows, split has {split.n}")


@dataclass(frozen=True)
class SliceSetting:
    """One benchmark instance: validation and test splits plus slice metadata."""

    valid_emb: EmbeddingMatrix
    valid_split: LabeledSplit
    test_emb: EmbeddingMatrix
    test_split: LabeledSplit
    slice_type: str
    alpha: float
    model_kind: str
    seed: int
    provenance: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.slice_type not in SLICE_TYPES:
            raise ValueError(f"unknown slice type {self.slice_type!r}")
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        check_pair(self.valid_emb, self.valid_split)
        check_pair(self.test_emb, self.test_split)
        if self.valid_emb.d != self.test_emb.d:
            raise DimensionMismatch(
                f"valid d={self.valid_emb.d} but test d={self.test_emb.d}"
            )
        if self.valid_split.num_classes != self.test_split.num_classes:
            raise ValueError("valid and test disagree on the number of classes")
        if self.valid_split.slice_names != self.test_split.slice_names:
            raise ValueError("valid and test disagree on slice names")
        if not np.isfinite(self.alpha) or not -1.0 < float(self.alpha) < 1.0:
            raise ValueError(f"alpha {self.alpha} outside (-1, 1)")


def check_alpha(slice_type: str, alpha: float) -> None:
    """Raise AlphaOutOfRange unless alpha lies in the benchmark range of its slice type."""
    if slice_type not in ALPHA_RANGES:
        raise ValueError(f"unknown slice type {slice_type!r}")
    lo, hi = ALPHA_RANGES[slice_type]
    if not lo <= float(alpha) <= hi:
        raise AlphaOutOfRange(f"{slice_type} alpha {alpha} is outside [{lo}, {hi}]")


@dataclass(frozen=True)
class SliceScores:
    """n-by-k_hat membership scores emitted by a slice discovery method.

    ``scores`` is float64 and follows the module's array rule.
    """

    scores: np.ndarray
    method: str
    slice_descriptions: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self) -> None:
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError("scores must be 2-d")
        if scores.shape[0] < 1 or scores.shape[1] < 1:
            raise ValueError(f"scores need n >= 1 and k_hat >= 1, got {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise NonFiniteValue("slice scores contain NaN or Inf")
        if scores.min() < 0.0 or scores.max() > 1.0:
            raise ValueError("slice scores must lie in [0, 1]")
        if self.slice_descriptions is not None:
            descriptions = tuple(tuple(str(p) for p in d) for d in self.slice_descriptions)
            if len(descriptions) != scores.shape[1]:
                raise ValueError("one description list per slice column is required")
            object.__setattr__(self, "slice_descriptions", descriptions)
        keep_arrays(self, scores=scores)
        object.__setattr__(self, "method", str(self.method))

    @property
    def n(self) -> int:
        return self.scores.shape[0]

    @property
    def k_hat(self) -> int:
        return self.scores.shape[1]
