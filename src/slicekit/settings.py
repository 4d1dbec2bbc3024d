"""Programmatic generation of slice discovery settings.

Three generators subsample a binary-attribute base table into benchmark
datasets whose slice is induced by rarity, a target/attribute correlation,
or concentrated label noise. A synthetic model then replaces predictions by
draws from four beta distributions conditioned on (label, slice membership),
calibrated to target sensitivity/specificity inside and outside the slice.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar

import numpy as np

from .data import SLICE_TYPES, EmbeddingMatrix, LabeledSplit, SliceSetting, check_alpha, duplicates, keep_arrays
from .errors import (
    InfeasibleCounts,
    InsufficientBase,
    NoConvergence,
    NotBinary,
    RowCountMismatch,
    SchemaError,
)
from .seeding import derive_rng


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BaseTable:
    """Binary-attribute population to subsample, with designated Y and C columns.

    ``values`` is int64 and follows the array rule of ``slicekit.data``.
    """

    names: tuple[str, ...]
    values: np.ndarray
    target: str
    attribute: str

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.int64)
        names = tuple(str(n) for n in self.names)
        if values.ndim != 2 or values.shape[1] != len(names):
            raise ValueError("base table values must be n_base x len(names)")
        if not np.isin(values, (0, 1)).all():
            raise ValueError("base table attributes must be binary")
        if self.target == self.attribute:
            raise ValueError("target and attribute columns must be distinct")
        for col in (self.target, self.attribute):
            if col not in names:
                raise ValueError(f"column {col!r} not in base table")
        keep_arrays(self, values=values)
        object.__setattr__(self, "names", names)

    @property
    def n_base(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


# The four (y, c) cells in the order every generator draws and records them.
_CELLS = ((1, 1), (1, 0), (0, 1), (0, 0))
_CELL_NAMES = ("n11", "n10", "n01", "n00")


def check_sizes(n: int, mu_a: float, mu_b: float) -> None:
    """Reject a setting size or class marginal the generators cannot honour."""
    if n < 4:
        raise ValueError(f"n must be at least 4, got {n}")
    if not (0.0 < mu_a < 1.0 and 0.0 < mu_b < 1.0):
        raise ValueError(f"mu_a and mu_b must lie in (0, 1), got {mu_a} and {mu_b}")


def correlation_counts(
    alpha: float, mu_a: float, mu_b: float, n: int
) -> tuple[int, int, int, int]:
    """Cell counts (n11, n10, n01, n00) whose materialized Pearson correlation is alpha.

    The joint cell is pinned by the phi-coefficient identity
    ``n11 = alpha * n * sqrt(mu_a (1-mu_a) mu_b (1-mu_b)) + mu_a * mu_b * n``,
    the remaining cells by the marginal totals. Rounding n11 to the nearest
    integer perturbs the realized correlation by at most 2/n when the
    marginals are exact.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (-1, 1)")
    check_sizes(n, mu_a, mu_b)

    ny1 = _round_half_up(mu_a * n)
    nc1 = _round_half_up(mu_b * n)
    spread = math.sqrt(mu_a * (1.0 - mu_a) * mu_b * (1.0 - mu_b))
    n11 = _round_half_up(alpha * n * spread + mu_a * mu_b * n)
    n10 = ny1 - n11
    n01 = nc1 - n11
    n00 = n - ny1 - nc1 + n11
    if min(n11, n10, n01, n00) < 0:
        raise InfeasibleCounts(
            f"alpha={alpha}, mu_a={mu_a}, mu_b={mu_b}, n={n} implies cells "
            f"({n11}, {n10}, {n01}, {n00})"
        )
    return n11, n10, n01, n00


# --- subsampling ------------------------------------------------------------


def _cell_pools(base: BaseTable) -> tuple[np.ndarray, ...]:
    """The base rows of each (y, c) cell, in ``_CELLS`` order."""
    y = base.column(base.target)
    c = base.column(base.attribute)
    return tuple(np.flatnonzero((y == yy) & (c == cc)) for yy, cc in _CELLS)


def _subsample(
    pools: tuple[np.ndarray, ...], counts: tuple[int, ...] | list[int], rng: np.random.Generator
) -> np.ndarray:
    """Sorted base rows: ``counts[i]`` rows drawn without replacement from ``pools[i]``.

    A zero count draws nothing from ``rng``, so skipping a cell leaves the
    stream of the others unchanged.
    """
    parts = []
    for (yy, cc), pool, count in zip(_CELLS, pools, counts):
        if count > pool.shape[0]:
            raise InsufficientBase(
                f"cell (y={yy}, c={cc}) has {pool.shape[0]} base rows, {count} requested"
            )
        parts.append(rng.choice(pool, size=count, replace=False) if count else pool[:0])
    return np.sort(np.concatenate(parts))


def _split_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # 50/50 seeded shuffle; within each half the original example order is kept.
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


# The base's embeddings: a matrix with one row per base-table row, or a
# function that returns the rows a boolean mask over the base table marks,
# such as ``slicekit gen``'s read of just those rows from its file.
BaseEmbeddings = EmbeddingMatrix | Callable[[np.ndarray], EmbeddingMatrix]


def _materialize(
    base: BaseTable,
    embeddings: BaseEmbeddings,
    chosen: np.ndarray,
    labels: np.ndarray,
    slice_col: np.ndarray,
    slice_type: str,
    alpha: float,
    seed: int,
    provenance: dict,
    original_labels: np.ndarray | None = None,
) -> SliceSetting:
    """Gather the chosen base rows' embeddings once and split them 50/50.

    The slice is named after the attribute. ``provenance`` adds
    generator-specific fields to the common ones. ``embeddings`` may be
    float32 storage: the gathered rows become float64.
    """
    keep = np.zeros(base.n_base, dtype=bool)
    keep[chosen] = True
    if isinstance(embeddings, EmbeddingMatrix):
        if embeddings.n != base.n_base:
            raise RowCountMismatch(
                f"embeddings have {embeddings.n} rows, base table has {base.n_base}"
            )
        gathered = embeddings.values[keep]
    else:
        gathered = embeddings(keep).values
    rng = derive_rng(seed, "settings", slice_type, "split")
    valid_idx, test_idx = _split_indices(chosen.shape[0], rng)

    def build(idx: np.ndarray) -> tuple[EmbeddingMatrix, LabeledSplit]:
        split = LabeledSplit(
            labels=labels[idx],
            predictions=labels[idx].copy(),
            slices=slice_col[idx, None],
            slice_names=(base.attribute,),
            num_classes=2,
        )
        return EmbeddingMatrix(gathered[idx]), split

    valid_emb, valid_split = build(valid_idx)
    test_emb, test_split = build(test_idx)
    provenance = {
        "generator": slice_type,
        "alpha": alpha,
        "n": chosen.shape[0],
        "seed": seed,
        "target": base.target,
        "attribute": base.attribute,
        **provenance,
    }
    provenance["base_rows"] = {
        "valid": chosen[valid_idx].tolist(),
        "test": chosen[test_idx].tolist(),
    }
    if original_labels is not None:
        provenance["original_labels"] = {
            "valid": original_labels[valid_idx].tolist(),
            "test": original_labels[test_idx].tolist(),
        }
    return SliceSetting(
        valid_emb=valid_emb,
        valid_split=valid_split,
        test_emb=test_emb,
        test_split=test_split,
        slice_type=slice_type,
        alpha=float(alpha),
        model_kind="trained_ingested",
        seed=int(seed),
        provenance=provenance,
    )


def build_correlation_setting(
    base: BaseTable,
    embeddings: BaseEmbeddings,
    alpha: float,
    mu_a: float,
    mu_b: float,
    n: int,
    seed: int,
) -> SliceSetting:
    """Subsample to a target Y/C Pearson correlation; slice is 1[C != Y].

    Predictions are initialized to the labels; apply a model afterwards via
    :func:`synth_predictions` or :func:`apply_synthetic_model`.
    """
    counts = correlation_counts(alpha, mu_a, mu_b, n)
    rng = derive_rng(seed, "settings", "correlation", "subsample")
    chosen = _subsample(_cell_pools(base), counts, rng)
    y = base.column(base.target)[chosen]
    c = base.column(base.attribute)[chosen]
    slice_col = (y != c).astype(np.int64)
    provenance = {"mu_a": mu_a, "mu_b": mu_b, "cells": dict(zip(_CELL_NAMES, counts))}
    return _materialize(
        base, embeddings, chosen, y, slice_col, "correlation", alpha, seed, provenance
    )


def build_rare_setting(
    base: BaseTable,
    embeddings: BaseEmbeddings,
    alpha: float,
    n: int,
    seed: int,
) -> SliceSetting:
    """Balanced binary dataset whose positive class contains subclass C at rate alpha."""
    check_alpha("rare", alpha)
    n_pos = n // 2
    n_neg = n - n_pos
    n_slice = _round_half_up(alpha * n_pos)
    rng = derive_rng(seed, "settings", "rare", "subsample")
    # every negative comes from the (0, 0) cell; (0, 1) gives no rows
    chosen = _subsample(_cell_pools(base), (n_slice, n_pos - n_slice, 0, n_neg), rng)
    y = base.column(base.target)[chosen]
    slice_col = base.column(base.attribute)[chosen].astype(np.int64)
    provenance = {"n_pos": n_pos, "n_slice": n_slice}
    return _materialize(base, embeddings, chosen, y, slice_col, "rare", alpha, seed, provenance)


def build_noisy_setting(
    base: BaseTable,
    embeddings: BaseEmbeddings,
    alpha: float,
    n: int,
    seed: int,
) -> SliceSetting:
    """Proportional subsample whose subclass-C rows get labels flipped w.p. alpha."""
    check_alpha("noisy_label", alpha)
    pools = _cell_pools(base)
    n_base = base.n_base
    if n > n_base:
        raise InsufficientBase(f"requested n={n} from a base of {n_base} rows")
    # Largest-remainder allocation proportional to the base joint distribution.
    exact = [n * pool.shape[0] / n_base for pool in pools]
    counts = [int(math.floor(e)) for e in exact]
    remainders = sorted(
        range(4), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1

    rng = derive_rng(seed, "settings", "noisy_label", "subsample")
    chosen = _subsample(pools, counts, rng)
    y = base.column(base.target)[chosen]
    slice_col = base.column(base.attribute)[chosen].astype(np.int64)
    if slice_col.sum() == 0:
        raise InsufficientBase("base table yields an empty subclass-C slice")

    flip_rng = derive_rng(seed, "settings", "noisy_label", "flips")
    flips = (flip_rng.random(chosen.shape[0]) < alpha) & (slice_col == 1)
    noisy = np.where(flips, 1 - y, y)
    provenance = {"cells": dict(zip(_CELL_NAMES, counts)), "n_flipped": int(flips.sum())}
    return _materialize(
        base, embeddings, chosen, noisy, slice_col, "noisy_label", alpha, seed, provenance,
        original_labels=y,
    )


def build_setting(
    slice_type: str,
    base: BaseTable,
    embeddings: BaseEmbeddings,
    alpha: float,
    n: int,
    seed: int,
    mu_a: float = 0.5,
    mu_b: float = 0.5,
) -> SliceSetting:
    """Run the generator of ``slice_type``; mu_a/mu_b apply to correlation only."""
    if slice_type == "correlation":
        return build_correlation_setting(base, embeddings, alpha, mu_a, mu_b, n, seed)
    if slice_type == "rare":
        return build_rare_setting(base, embeddings, alpha, n, seed)
    if slice_type == "noisy_label":
        return build_noisy_setting(base, embeddings, alpha, n, seed)
    raise ValueError(f"unknown slice type {slice_type!r}")


# --- synthetic model --------------------------------------------------------


@dataclass(frozen=True)
class SyntheticModelSpec:
    """Target rates for the four beta distributions of a simulated classifier.

    Each rate lies in [0, 1]. One below 0.001 or above 0.999, such as 0 or 1,
    is taken as 0.001 or 0.999, which the beta solve can reach.
    """

    kind: ClassVar[str] = "synthetic"
    sens_in: float
    spec_in: float
    sens_out: float
    spec_out: float
    kappa: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.kappa < np.inf:  # false for NaN too
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        for name in ("sens_in", "spec_in", "sens_out", "spec_out"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:  # false for NaN too
                raise ValueError(f"{name} must be a number in [0, 1], got {value}")
            object.__setattr__(self, name, min(max(value, 0.001), 0.999))


@functools.lru_cache(maxsize=256)
def solve_beta(target_rate: float, kappa: float) -> tuple[float, float]:
    """Shape parameters (a, b) with a + b = kappa and P(X > 0.5) = target_rate.

    Solved by bisection on a: the survival mass above 0.5 increases
    monotonically in a for fixed a + b. The result depends on the two
    arguments alone, so it is cached: a ``synth`` grid solves the same few
    pairs for every setting. A call that raises is not cached.
    """
    # scipy.special is imported here, its only use, so that importing
    # slicekit does not pay for it
    from scipy import special

    if not kappa > 0:
        raise ValueError("kappa must be positive")
    rate = min(max(float(target_rate), 0.001), 0.999)
    lo, hi = 0.0, float(kappa)
    for _ in range(200):
        a = 0.5 * (lo + hi)
        survival = float(1.0 - special.betainc(a, kappa - a, 0.5))
        err = survival - rate
        if abs(err) <= 1e-6:
            return a, kappa - a
        if err < 0:
            lo = a
        else:
            hi = a
    raise NoConvergence(
        f"beta solve at rate={rate}, kappa={kappa} missed tolerance after 200 steps"
    )


def synth_predictions(
    split: LabeledSplit,
    spec: SyntheticModelSpec,
    stream: tuple[object, ...] = (),
) -> LabeledSplit:
    """Replace predictions with draws from (label, slice)-conditional betas.

    Every example's predicted probability of class 1 is sampled from the beta
    distribution of its (Y, S) cell; the hard prediction is 1 when that
    probability exceeds 0.5. ``stream`` names the random substream so the same
    spec can serve several splits independently.
    """
    if split.num_classes != 2:
        raise NotBinary(f"synthetic models require 2 classes, split has {split.num_classes}")
    if split.num_slices != 1:
        raise ValueError(
            f"synthetic models require exactly one slice column, split has {split.num_slices}"
        )
    y = split.labels
    s = split.slices[:, 0]

    # P(predicted probability > 0.5) per (y, s) cell.
    cell_rates = {
        (1, 1): spec.sens_in,
        (0, 1): 1.0 - spec.spec_in,
        (1, 0): spec.sens_out,
        (0, 0): 1.0 - spec.spec_out,
    }
    shape_a = np.empty(split.n)
    shape_b = np.empty(split.n)
    for (yy, ss), rate in cell_rates.items():
        a, b = solve_beta(rate, spec.kappa)
        mask = (y == yy) & (s == ss)
        shape_a[mask] = a
        shape_b[mask] = b

    rng = derive_rng(spec.seed, "synth-predictions", *stream)
    prob_one = rng.beta(shape_a, shape_b)
    prob_one = np.clip(prob_one, 1e-12, 1.0 - 1e-12)
    probs = np.column_stack([1.0 - prob_one, prob_one])
    preds = (prob_one > 0.5).astype(np.int64)
    return replace(split, predictions=preds, prediction_probs=probs)


def apply_synthetic_model(setting: SliceSetting, spec: SyntheticModelSpec) -> SliceSetting:
    """Attach synthetic predictions to both splits of a setting."""
    model_spec = replace(spec, seed=derive_rng(setting.seed, "model", spec.seed).integers(2**62))
    provenance = dict(setting.provenance)
    provenance["model"] = {"kind": "synthetic", **asdict(spec)}
    return replace(
        setting,
        valid_split=synth_predictions(setting.valid_split, model_spec, stream=("valid",)),
        test_split=synth_predictions(setting.test_split, model_spec, stream=("test",)),
        model_kind="synthetic",
        provenance=provenance,
    )


@dataclass(frozen=True)
class IngestedModel:
    """Predictions read from a CSV of ``id,y_hat[,p_0,p_1]`` rows aligned to the base table."""

    kind: ClassVar[str] = "ingested"
    predictions: str

    def __post_init__(self) -> None:
        if not self.predictions:
            raise ValueError("model predictions must be a non-empty path")


def apply_ingested_predictions(
    setting: SliceSetting,
    predictions: np.ndarray,
    prediction_probs: np.ndarray | None = None,
    *,
    n_base: int,
) -> SliceSetting:
    """Attach externally produced predictions, aligned to base-table rows.

    ``predictions`` (and optional per-class probabilities) hold one row per row
    of the ``n_base``-row base table and are indexed by the base-table row ids
    in the setting's provenance; any other row count raises RowCountMismatch.
    """
    rows = setting.provenance.get("base_rows")
    if rows is None:
        raise ValueError("setting provenance lacks base_rows; cannot ingest predictions")
    predictions = np.asarray(predictions, dtype=np.int64)
    if predictions.shape[0] != n_base:
        raise RowCountMismatch(f"predictions have {predictions.shape[0]} rows, base table has {n_base}")

    def rebuilt(split: LabeledSplit, part: str) -> LabeledSplit:
        idx = np.asarray(rows[part], dtype=np.int64)
        if idx.max() >= predictions.shape[0]:
            raise RowCountMismatch(
                f"predictions cover {predictions.shape[0]} base rows but the "
                f"setting references row {int(idx.max())}"
            )
        probs = None if prediction_probs is None else prediction_probs[idx]
        try:
            return replace(split, predictions=predictions[idx], prediction_probs=probs)
        except ValueError as exc:
            raise SchemaError(f"ingested predictions for the {part} split: {exc}") from exc

    return replace(
        setting,
        valid_split=rebuilt(setting.valid_split, "valid"),
        test_split=rebuilt(setting.test_split, "test"),
        model_kind="trained_ingested",
        provenance=dict(setting.provenance, model={"kind": "ingested"}),
    )


# --- fully synthetic settings -----------------------------------------------

# The base population has _BASE_FACTOR * n rows. For rare and noisy settings
# the attribute marks _ATTR_RATE of the positive class.
_BASE_FACTOR = 5
_ATTR_RATE = 0.2
_ATTRIBUTE = "planted"


def check_synthetic_base(n_base: int, d: int, sigma: float) -> None:
    """Reject a base ``synthetic_base`` cannot build.

    It offsets dimension 1, and it holds all ``n_base x d`` float64 values in
    one numpy array, whose size in bytes numpy bounds by ``intp``.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    if not sigma > 0:  # false for NaN too
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n_base * d * np.dtype(np.float64).itemsize > np.iinfo(np.intp).max:
        raise ValueError(f"a base of {n_base} x {d} float64 values exceeds numpy's maximum array size")


def synthetic_base(
    slice_type: str,
    n_base: int,
    d: int,
    seed: int,
    offset_sigmas: float = 4.0,
    class_sep_sigmas: float = 4.0,
    sigma: float = 1.0,
) -> tuple[BaseTable, EmbeddingMatrix]:
    """Synthetic base population whose attribute displaces the embedding.

    For correlation settings every (y, c) cell is populated equally so any
    feasible target correlation can be subsampled; for rare and noisy settings
    the attribute occurs only inside the positive class, at ``_ATTR_RATE``.
    """
    check_synthetic_base(n_base, d, sigma)
    rng = derive_rng(seed, "synthetic-base", slice_type)
    y = (np.arange(n_base) % 2 == 1).astype(np.int64)
    if slice_type == "correlation":
        c = ((np.arange(n_base) // 2) % 2 == 1).astype(np.int64)
    else:
        c = np.zeros(n_base, dtype=np.int64)
        pos = np.flatnonzero(y == 1)
        n_attr = int(round(_ATTR_RATE * pos.shape[0]))
        c[rng.choice(pos, size=n_attr, replace=False)] = 1

    means = np.zeros((2, d))
    means[1, 0] = class_sep_sigmas * sigma
    offset = np.zeros(d)
    offset[1] = offset_sigmas * sigma
    values = means[y] + c[:, None] * offset + sigma * rng.standard_normal((n_base, d))

    table = BaseTable(
        names=("target", _ATTRIBUTE),
        values=np.column_stack([y, c]),
        target="target",
        attribute=_ATTRIBUTE,
    )
    return table, EmbeddingMatrix(values)


def make_synthetic_setting(
    slice_type: str,
    alpha: float,
    n: int,
    d: int,
    seed: int,
    offset_sigmas: float = 4.0,
    class_sep_sigmas: float = 4.0,
    sigma: float = 1.0,
    mu_a: float = 0.5,
    mu_b: float = 0.5,
    model: SyntheticModelSpec | None = None,
) -> SliceSetting:
    """End-to-end synthetic setting: base population, subsample, model."""
    base, emb = synthetic_base(
        slice_type,
        n_base=_BASE_FACTOR * n,
        d=d,
        seed=seed,
        offset_sigmas=offset_sigmas,
        class_sep_sigmas=class_sep_sigmas,
        sigma=sigma,
    )
    setting = build_setting(slice_type, base, emb, alpha, n, seed, mu_a, mu_b)
    if model is not None:
        setting = apply_synthetic_model(setting, model)
    return setting


# --- generation configs -----------------------------------------------------
# The ``synth`` and ``gen`` config files: each field, its JSON kind (the type
# hint), its default and its bounds.


@dataclass(frozen=True)
class SynthConfig:
    """A ``slicekit synth`` grid of slice type x alpha x replicate, all under one model.

    ``alphas`` maps each slice type to its alphas; a list applies to every type
    and is stored as that map. ``seeds`` is a replicate count or a list of ids.
    """

    alphas: list[float] | dict[str, list[float]]
    model: SyntheticModelSpec
    slice_types: list[str] = field(default_factory=lambda: list(SLICE_TYPES))
    seeds: int | list[int] = 1
    n: int = 2000
    d: int = 32
    seed: int = 0
    offset_sigmas: float = 4.0
    class_sep_sigmas: float = 4.0
    sigma: float = 1.0
    mu_a: float = 0.5
    mu_b: float = 0.5

    def __post_init__(self) -> None:
        if isinstance(self.alphas, list):
            object.__setattr__(self, "alphas", dict.fromkeys(self.slice_types, self.alphas))
        for slice_type in (*self.slice_types, *self.alphas):
            if slice_type not in SLICE_TYPES:
                raise ValueError(f"unknown slice type {slice_type!r}")
        for slice_type in self.slice_types:
            if slice_type not in self.alphas:
                raise ValueError(f"alphas gives no list for slice type {slice_type!r}")
            for alpha in self.alphas[slice_type]:
                check_alpha(slice_type, alpha)
        check_sizes(self.n, self.mu_a, self.mu_b)
        check_synthetic_base(_BASE_FACTOR * self.n, self.d, self.sigma)
        ids = [setting_id for setting_id, *_ in self.grid()]
        if not ids:
            raise ValueError("synth grid is empty")
        repeated = duplicates(ids)
        if repeated:
            raise ValueError(f"synth grid repeats setting ids: {', '.join(repeated)}")

    def grid(self) -> list[tuple[str, str, float, int]]:
        """(setting id, slice type, alpha, replicate) of every setting, in generation order."""
        reps = self.seeds if isinstance(self.seeds, list) else range(self.seeds)
        return [
            (f"{slice_type}_a{alpha:g}_r{rep}", slice_type, alpha, rep)
            for slice_type in self.slice_types
            for alpha in self.alphas[slice_type]
            for rep in reps
        ]


@dataclass(frozen=True)
class GenConfig:
    """A ``slicekit gen`` config: one setting subsampled from a base table."""

    slice_type: str
    alpha: float
    target: str
    attribute: str
    n: int
    model: SyntheticModelSpec | IngestedModel
    mu_a: float = 0.5
    mu_b: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_alpha(self.slice_type, self.alpha)
        check_sizes(self.n, self.mu_a, self.mu_b)
