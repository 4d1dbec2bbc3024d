"""Programmatic generation of slice discovery settings.

Three generators subsample a binary-attribute base table into benchmark
datasets whose slice is induced by rarity, a target/attribute correlation,
or concentrated label noise. A synthetic model then replaces predictions by
draws from four beta distributions conditioned on (label, slice membership),
calibrated to target sensitivity/specificity inside and outside the slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .data import (
    ALPHA_RANGES,
    EmbeddingMatrix,
    LabeledSplit,
    SliceSetting,
    alpha_in_range,
)
from .errors import (
    AlphaOutOfRange,
    DegenerateSpec,
    InfeasibleCounts,
    InsufficientBase,
    NoConvergence,
    NotBinary,
    RowCountMismatch,
)
from .seeding import derive_rng

# Threshold-crossing rates for the synthetic model, by domain.
NATURAL_IMAGE_RATES = {"sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75}
MEDICAL_RATES = {"sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.8, "spec_out": 0.8}


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class BaseTable:
    """Binary-attribute population to subsample, with designated Y and C columns."""

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
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n_base(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.names.index(name)]


@dataclass(frozen=True)
class CellCounts:
    """Counts of the four (y, c) cells for a target joint distribution."""

    n11: int
    n10: int
    n01: int
    n00: int
    n: int

    def __post_init__(self) -> None:
        cells = (self.n11, self.n10, self.n01, self.n00)
        if any(c < 0 for c in cells):
            raise InfeasibleCounts(f"negative cell in {cells}")
        if sum(cells) != self.n:
            raise InfeasibleCounts(f"cells {cells} do not sum to n={self.n}")

    def implied_correlation(self) -> float:
        """Pearson correlation of binary arrays materialized from these counts."""
        n = self.n
        ny1 = self.n11 + self.n10
        nc1 = self.n11 + self.n01
        denom = math.sqrt(ny1 * (n - ny1)) * math.sqrt(nc1 * (n - nc1))
        if denom == 0.0:
            raise InfeasibleCounts("degenerate marginal: correlation undefined")
        return (n * self.n11 - ny1 * nc1) / denom


def correlation_counts(alpha: float, mu_a: float, mu_b: float, n: int) -> CellCounts:
    """Cell counts whose materialized sample Pearson correlation is alpha.

    The joint cell is pinned by the phi-coefficient identity
    ``n11 = alpha * n * sqrt(mu_a (1-mu_a) mu_b (1-mu_b)) + mu_a * mu_b * n``,
    the remaining cells by the marginal totals. Rounding n11 to the nearest
    integer perturbs the realized correlation by at most 2/n when the
    marginals are exact.
    """
    if not -1.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (-1, 1)")
    if not (0.0 < mu_a < 1.0 and 0.0 < mu_b < 1.0):
        raise ValueError("mu_a and mu_b must lie in (0, 1)")
    if n < 4:
        raise ValueError("n must be at least 4")

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
    return CellCounts(n11=n11, n10=n10, n01=n01, n00=n00, n=n)


# --- subsampling ------------------------------------------------------------


def _cell_indices(base: BaseTable) -> dict[tuple[int, int], np.ndarray]:
    y = base.column(base.target)
    c = base.column(base.attribute)
    return {
        (yy, cc): np.flatnonzero((y == yy) & (c == cc))
        for yy in (0, 1)
        for cc in (0, 1)
    }


def _take_cell(
    cells: dict[tuple[int, int], np.ndarray],
    cell: tuple[int, int],
    count: int,
    rng: np.random.Generator,
) -> np.ndarray:
    pool = cells[cell]
    if count > pool.shape[0]:
        raise InsufficientBase(
            f"cell (y={cell[0]}, c={cell[1]}) has {pool.shape[0]} base rows, "
            f"{count} requested"
        )
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return rng.choice(pool, size=count, replace=False)


def _split_indices(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    # 50/50 seeded shuffle; within each half the original example order is kept.
    perm = rng.permutation(n)
    half = n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


def _materialize(
    base: BaseTable,
    embeddings: EmbeddingMatrix,
    chosen: np.ndarray,
    labels: np.ndarray,
    slice_col: np.ndarray,
    slice_type: str,
    alpha: float,
    seed: int,
    provenance: dict,
    original_labels: np.ndarray | None = None,
) -> SliceSetting:
    """Split the chosen base rows 50/50; the slice is named after the attribute.

    ``provenance`` adds generator-specific fields to the common ones.
    """
    if embeddings.n != base.n_base:
        raise RowCountMismatch(
            f"embeddings have {embeddings.n} rows, base table has {base.n_base}"
        )
    rng = derive_rng(seed, "settings", slice_type, "split")
    valid_idx, test_idx = _split_indices(chosen.shape[0], rng)

    def build(idx: np.ndarray) -> tuple[EmbeddingMatrix, LabeledSplit]:
        rows = chosen[idx]
        split = LabeledSplit(
            labels=labels[idx],
            predictions=labels[idx].copy(),
            slices=slice_col[idx, None],
            slice_names=(base.attribute,),
            num_classes=2,
        )
        return EmbeddingMatrix(embeddings.values[rows]), split

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
        "valid": [int(v) for v in chosen[valid_idx]],
        "test": [int(v) for v in chosen[test_idx]],
    }
    if original_labels is not None:
        provenance["original_labels"] = {
            "valid": [int(v) for v in original_labels[valid_idx]],
            "test": [int(v) for v in original_labels[test_idx]],
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
    embeddings: EmbeddingMatrix,
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
    cells = _cell_indices(base)
    rng = derive_rng(seed, "settings", "correlation", "subsample")
    chosen_parts = [
        _take_cell(cells, (1, 1), counts.n11, rng),
        _take_cell(cells, (1, 0), counts.n10, rng),
        _take_cell(cells, (0, 1), counts.n01, rng),
        _take_cell(cells, (0, 0), counts.n00, rng),
    ]
    chosen = np.sort(np.concatenate(chosen_parts))
    y = base.column(base.target)[chosen]
    c = base.column(base.attribute)[chosen]
    slice_col = (y != c).astype(np.int64)
    provenance = {
        "mu_a": mu_a,
        "mu_b": mu_b,
        "cells": {"n11": counts.n11, "n10": counts.n10, "n01": counts.n01, "n00": counts.n00},
    }
    return _materialize(
        base, embeddings, chosen, y, slice_col, "correlation", alpha, seed, provenance
    )


def build_rare_setting(
    base: BaseTable,
    embeddings: EmbeddingMatrix,
    alpha: float,
    n: int,
    seed: int,
) -> SliceSetting:
    """Balanced binary dataset whose positive class contains subclass C at rate alpha."""
    if not alpha_in_range("rare", alpha):
        lo, hi = ALPHA_RANGES["rare"]
        raise AlphaOutOfRange(f"rare alpha {alpha} outside [{lo}, {hi}]")
    n_pos = n // 2
    n_neg = n - n_pos
    n_slice = _round_half_up(alpha * n_pos)
    cells = _cell_indices(base)
    rng = derive_rng(seed, "settings", "rare", "subsample")
    chosen_parts = [
        _take_cell(cells, (1, 1), n_slice, rng),
        _take_cell(cells, (1, 0), n_pos - n_slice, rng),
        _take_cell(cells, (0, 0), n_neg, rng),
    ]
    chosen = np.sort(np.concatenate(chosen_parts))
    y = base.column(base.target)[chosen]
    slice_col = base.column(base.attribute)[chosen].astype(np.int64)
    provenance = {"n_pos": n_pos, "n_slice": n_slice}
    return _materialize(base, embeddings, chosen, y, slice_col, "rare", alpha, seed, provenance)


def build_noisy_setting(
    base: BaseTable,
    embeddings: EmbeddingMatrix,
    alpha: float,
    n: int,
    seed: int,
) -> SliceSetting:
    """Proportional subsample whose subclass-C rows get labels flipped w.p. alpha."""
    if not alpha_in_range("noisy_label", alpha):
        lo, hi = ALPHA_RANGES["noisy_label"]
        raise AlphaOutOfRange(f"noisy-label alpha {alpha} outside [{lo}, {hi}]")
    cells = _cell_indices(base)
    order = [(1, 1), (1, 0), (0, 1), (0, 0)]
    n_base = base.n_base
    if n > n_base:
        raise InsufficientBase(f"requested n={n} from a base of {n_base} rows")
    # Largest-remainder allocation proportional to the base joint distribution.
    exact = [n * cells[cell].shape[0] / n_base for cell in order]
    counts = [int(math.floor(e)) for e in exact]
    remainders = sorted(
        range(4), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1

    rng = derive_rng(seed, "settings", "noisy_label", "subsample")
    chosen_parts = [_take_cell(cells, cell, cnt, rng) for cell, cnt in zip(order, counts)]
    chosen = np.sort(np.concatenate(chosen_parts))
    y = base.column(base.target)[chosen]
    slice_col = base.column(base.attribute)[chosen].astype(np.int64)
    if slice_col.sum() == 0:
        raise InsufficientBase("base table yields an empty subclass-C slice")

    flip_rng = derive_rng(seed, "settings", "noisy_label", "flips")
    flips = (flip_rng.random(chosen.shape[0]) < alpha) & (slice_col == 1)
    noisy = np.where(flips, 1 - y, y)
    provenance = {
        "cells": dict(zip(("n11", "n10", "n01", "n00"), counts)),
        "n_flipped": int(flips.sum()),
    }
    return _materialize(
        base, embeddings, chosen, noisy, slice_col, "noisy_label", alpha, seed, provenance,
        original_labels=y,
    )


def build_setting(
    slice_type: str,
    base: BaseTable,
    embeddings: EmbeddingMatrix,
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
    """Target rates for the four beta distributions of a simulated classifier."""

    sens_in: float
    spec_in: float
    sens_out: float
    spec_out: float
    kappa: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        for name in ("sens_in", "spec_in", "sens_out", "spec_out"):
            value = float(getattr(self, name))
            object.__setattr__(self, name, min(max(value, 0.001), 0.999))

    @classmethod
    def natural_defaults(cls, seed: int = 0) -> "SyntheticModelSpec":
        return cls(seed=seed, **NATURAL_IMAGE_RATES)

    @classmethod
    def medical_defaults(cls, seed: int = 0) -> "SyntheticModelSpec":
        return cls(seed=seed, **MEDICAL_RATES)


def solve_beta(target_rate: float, kappa: float) -> tuple[float, float]:
    """Shape parameters (a, b) with a + b = kappa and P(X > 0.5) = target_rate.

    Solved by bisection on a: the survival mass above 0.5 increases
    monotonically in a for fixed a + b.
    """
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    rate = min(max(float(target_rate), 0.001), 0.999)
    lo, hi = 0.0, float(kappa)
    a = kappa / 2.0
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
    provenance["model"] = {
        "kind": "synthetic",
        "sens_in": spec.sens_in,
        "spec_in": spec.spec_in,
        "sens_out": spec.sens_out,
        "spec_out": spec.spec_out,
        "kappa": spec.kappa,
        "seed": spec.seed,
    }
    return replace(
        setting,
        valid_split=synth_predictions(setting.valid_split, model_spec, stream=("valid",)),
        test_split=synth_predictions(setting.test_split, model_spec, stream=("test",)),
        model_kind="synthetic",
        provenance=provenance,
    )


def apply_ingested_predictions(
    setting: SliceSetting,
    predictions: np.ndarray,
    prediction_probs: np.ndarray | None = None,
) -> SliceSetting:
    """Attach externally produced predictions, aligned to base-table rows.

    ``predictions`` (and optional per-class probabilities) are indexed by the
    base-table row ids recorded in the setting's provenance, so they must
    cover every row of the base the setting was subsampled from.
    """
    rows = setting.provenance.get("base_rows")
    if rows is None:
        raise ValueError("setting provenance lacks base_rows; cannot ingest predictions")
    predictions = np.asarray(predictions, dtype=np.int64)

    def rebuilt(split: LabeledSplit, part: str) -> LabeledSplit:
        idx = np.asarray(rows[part], dtype=np.int64)
        if idx.max() >= predictions.shape[0]:
            raise RowCountMismatch(
                f"predictions cover {predictions.shape[0]} base rows but the "
                f"setting references row {int(idx.max())}"
            )
        probs = None if prediction_probs is None else prediction_probs[idx]
        return replace(split, predictions=predictions[idx], prediction_probs=probs)

    return replace(
        setting,
        valid_split=rebuilt(setting.valid_split, "valid"),
        test_split=rebuilt(setting.test_split, "test"),
        model_kind="trained_ingested",
        provenance=dict(setting.provenance, model={"kind": "ingested"}),
    )


# --- synthetic embeddings ---------------------------------------------------


@dataclass(frozen=True)
class ClusterLayout:
    """Gaussian cluster layout for desk-scale synthetic embeddings.

    ``group_counts`` lists (class index, in_slice flag, count) triples; slice
    members are displaced from their class mean by ``slice_offset``.
    """

    class_means: np.ndarray
    slice_offset: np.ndarray
    sigma: float
    group_counts: tuple[tuple[int, int, int], ...]
    slice_name: str = "planted"

    def __post_init__(self) -> None:
        means = np.atleast_2d(np.asarray(self.class_means, dtype=np.float64))
        offset = np.asarray(self.slice_offset, dtype=np.float64).ravel()
        if means.shape[1] != offset.shape[0]:
            raise ValueError("class means and slice offset disagree on d")
        if means.shape[1] < 2:
            raise ValueError("embedding dimension must be at least 2")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        groups = tuple((int(c), int(bool(s)), int(m)) for c, s, m in self.group_counts)
        if not groups:
            raise DegenerateSpec("no groups declared")
        for c, _, m in groups:
            if m <= 0:
                raise DegenerateSpec(f"group with class {c} declares {m} examples")
            if not 0 <= c < means.shape[0]:
                raise ValueError(f"group class {c} has no mean vector")
        object.__setattr__(self, "class_means", means)
        object.__setattr__(self, "slice_offset", offset)
        object.__setattr__(self, "group_counts", groups)

    @property
    def num_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def d(self) -> int:
        return self.class_means.shape[1]


def synth_embeddings(layout: ClusterLayout, seed: int) -> tuple[EmbeddingMatrix, LabeledSplit]:
    """Draw isotropic Gaussian embeddings for the layout's groups, shuffled."""
    rng = derive_rng(seed, "synth-embeddings")
    blocks = []
    labels = []
    slice_col = []
    for class_idx, in_slice, count in layout.group_counts:
        center = layout.class_means[class_idx] + in_slice * layout.slice_offset
        blocks.append(center + layout.sigma * rng.standard_normal((count, layout.d)))
        labels.append(np.full(count, class_idx, dtype=np.int64))
        slice_col.append(np.full(count, in_slice, dtype=np.int64))
    values = np.concatenate(blocks)
    labels_arr = np.concatenate(labels)
    slice_arr = np.concatenate(slice_col)
    order = rng.permutation(values.shape[0])
    split = LabeledSplit(
        labels=labels_arr[order],
        predictions=labels_arr[order].copy(),
        slices=slice_arr[order, None],
        slice_names=(layout.slice_name,),
        num_classes=max(2, layout.num_classes),
    )
    return EmbeddingMatrix(values[order]), split


# --- fully synthetic settings -----------------------------------------------


def synthetic_base(
    slice_type: str,
    n_base: int,
    d: int,
    seed: int,
    offset_sigmas: float = 4.0,
    class_sep_sigmas: float = 4.0,
    sigma: float = 1.0,
    attr_rate: float = 0.2,
    attribute: str = "planted",
) -> tuple[BaseTable, EmbeddingMatrix]:
    """Synthetic base population whose attribute displaces the embedding.

    For correlation settings every (y, c) cell is populated equally so any
    feasible target correlation can be subsampled; for rare and noisy settings
    the attribute occurs only inside the positive class, at ``attr_rate``.
    """
    rng = derive_rng(seed, "synthetic-base", slice_type)
    y = (np.arange(n_base) % 2 == 1).astype(np.int64)
    if slice_type == "correlation":
        c = ((np.arange(n_base) // 2) % 2 == 1).astype(np.int64)
    else:
        c = np.zeros(n_base, dtype=np.int64)
        pos = np.flatnonzero(y == 1)
        n_attr = int(round(attr_rate * pos.shape[0]))
        c[rng.choice(pos, size=n_attr, replace=False)] = 1

    means = np.zeros((2, d))
    means[1, 0] = class_sep_sigmas * sigma
    offset = np.zeros(d)
    offset[1] = offset_sigmas * sigma
    values = means[y] + c[:, None] * offset + sigma * rng.standard_normal((n_base, d))

    table = BaseTable(
        names=("target", attribute),
        values=np.column_stack([y, c]),
        target="target",
        attribute=attribute,
    )
    return table, EmbeddingMatrix(values)


def make_planted_setting(
    n: int,
    d: int,
    seed: int,
    slice_frac: float = 0.2,
    offset_sigmas: float = 4.0,
    class_sep_sigmas: float = 4.0,
    sigma: float = 1.0,
    model: SyntheticModelSpec | None = None,
    slice_name: str = "planted",
) -> SliceSetting:
    """Planted-slice instance: an attribute subclass displaced by the offset.

    Both splits are drawn independently; class balance is 0.5 and the slice
    occupies ``slice_frac`` of each class, so slice membership is independent
    of the label. At offset 0 the slice is therefore statistically invisible
    in every channel, which makes the instance a clean null control. Unlike
    the benchmark generators this builder accepts any slice fraction.
    """
    means = np.zeros((2, d))
    means[1, 0] = class_sep_sigmas * sigma
    offset = np.zeros(d)
    offset[1] = offset_sigmas * sigma

    def one(tag: str, m: int) -> tuple[EmbeddingMatrix, LabeledSplit]:
        n_pos = m // 2
        n_neg = m - n_pos
        s_pos = _round_half_up(slice_frac * n_pos)
        s_neg = _round_half_up(slice_frac * n_neg)
        layout = ClusterLayout(
            class_means=means,
            slice_offset=offset,
            sigma=sigma,
            group_counts=(
                (0, 0, n_neg - s_neg),
                (0, 1, s_neg),
                (1, 0, n_pos - s_pos),
                (1, 1, s_pos),
            ),
            slice_name=slice_name,
        )
        return synth_embeddings(layout, seed=derive_rng(seed, "planted", tag).integers(2**62))

    valid_emb, valid_split = one("valid", n // 2)
    test_emb, test_split = one("test", n - n // 2)
    setting = SliceSetting(
        valid_emb=valid_emb,
        valid_split=valid_split,
        test_emb=test_emb,
        test_split=test_split,
        slice_type="rare",
        alpha=float(slice_frac),
        model_kind="trained_ingested",
        seed=int(seed),
        provenance={
            "generator": "planted",
            "slice_frac": slice_frac,
            "offset_sigmas": offset_sigmas,
            "class_sep_sigmas": class_sep_sigmas,
            "sigma": sigma,
            "n": n,
            "d": d,
            "seed": seed,
        },
    )
    if model is not None:
        setting = apply_synthetic_model(setting, model)
    return setting


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
    base_factor: int = 5,
    attribute: str = "planted",
) -> SliceSetting:
    """End-to-end synthetic setting: base population, subsample, model."""
    base, emb = synthetic_base(
        slice_type,
        n_base=base_factor * n,
        d=d,
        seed=seed,
        offset_sigmas=offset_sigmas,
        class_sep_sigmas=class_sep_sigmas,
        sigma=sigma,
        attribute=attribute,
    )
    setting = build_setting(slice_type, base, emb, alpha, n, seed, mu_a, mu_b)
    if model is not None:
        setting = apply_synthetic_model(setting, model)
    return setting
