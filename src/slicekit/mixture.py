"""Error-aware mixture model over embeddings, labels, and predictions.

Each mixture component carries a diagonal Gaussian over embeddings plus two
categorical distributions, one over labels and one over predictions, with the
categorical log-terms weighted by gamma. Components are initialized from the
confusion matrix and fit by expectation-maximization; the components with the
largest label/prediction divergence are returned as slices.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .clustering import kmeans, pca_basis
from .data import EmbeddingMatrix, LabeledSplit, SliceScores, check_pair
from .errors import (
    DimensionMismatch,
    IoError,
    NumericalUnderflow,
    TooFewSlices,
)
from .seeding import derive_rng

logger = logging.getLogger(__name__)

_SMOOTH = 1e-9


@dataclass(frozen=True)
class FitConfig:
    """Hyperparameters for one mixture fit."""

    # ``cli_aliases`` are extra spellings of the field's ``slicekit run`` flag.
    k_bar: int = field(default=25, metadata={"cli_aliases": ("--kbar",)})
    k_hat: int = field(default=5, metadata={"cli_aliases": ("--khat",)})
    gamma: float = 10.0
    max_iter: int = 100
    rel_tol: float = 1e-6
    init_noise: float = 1e-3
    pca_threshold: int = 256
    pca_dim: int = 128
    cov_floor: float = 1e-6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k_hat > self.k_bar:
            raise ValueError("k_hat must not exceed k_bar")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        for name in ("rel_tol", "cov_floor"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.init_noise < 0:
            raise ValueError("init_noise must be non-negative")


@dataclass(frozen=True)
class ProjectionRecord:
    """Frozen dimensionality reduction fitted on the validation embeddings."""

    mean: np.ndarray | None
    basis: np.ndarray | None
    input_dim: int
    output_dim: int

    def apply(self, emb: EmbeddingMatrix) -> EmbeddingMatrix:
        if emb.d != self.input_dim:
            raise DimensionMismatch(
                f"projection expects d={self.input_dim}, embeddings have d={emb.d}"
            )
        if self.basis is None:
            return emb
        return EmbeddingMatrix((emb.values - self.mean) @ self.basis.T)


@dataclass(frozen=True)
class MixtureParams:
    """All component parameters of a fitted mixture."""

    weights: np.ndarray      # (k_bar,) component prior
    means: np.ndarray        # (k_bar, d)
    variances: np.ndarray    # (k_bar, d) diagonal covariance entries
    label_probs: np.ndarray  # (k_bar, C)
    pred_probs: np.ndarray   # (k_bar, C)

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=np.float64)
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64)
        label_probs = np.asarray(self.label_probs, dtype=np.float64)
        pred_probs = np.asarray(self.pred_probs, dtype=np.float64)
        k = weights.shape[0]
        if means.shape[0] != k or variances.shape != means.shape:
            raise ValueError("component parameter shapes disagree")
        if label_probs.shape != pred_probs.shape or label_probs.shape[0] != k:
            raise ValueError("categorical parameter shapes disagree")
        if abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("component priors must sum to 1")
        for name, probs in (("label", label_probs), ("prediction", pred_probs)):
            if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-9:
                raise ValueError(f"{name} categoricals must sum to 1 per component")
        if variances.min() <= 0:
            raise ValueError("variances must be strictly positive")
        for field_name, value in (
            ("weights", weights), ("means", means), ("variances", variances),
            ("label_probs", label_probs), ("pred_probs", pred_probs),
        ):
            value.setflags(write=False)
            object.__setattr__(self, field_name, value)

    @property
    def k_bar(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.label_probs.shape[1]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one simplex row per example."""

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError("responsibilities must be 2-d")
        if q.min() < 0.0 or q.max() > 1.0:
            raise ValueError("responsibilities must lie in [0, 1]")
        if np.abs(q.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("responsibility rows must sum to 1")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class FitDiagnostics:
    log_likelihoods: tuple[float, ...]
    n_iter: int
    converged: bool
    rescues: int
    projection: ProjectionRecord
    responsibilities: Responsibilities


def reduce_dim(
    train_emb: EmbeddingMatrix, apply_emb: EmbeddingMatrix, cfg: FitConfig
) -> tuple[EmbeddingMatrix, EmbeddingMatrix, ProjectionRecord]:
    """Project both matrices onto the top principal directions of train_emb.

    Identity when d does not exceed ``cfg.pca_threshold``. When fewer than
    ``cfg.pca_dim`` directions exist, the projection uses min(n - 1, pca_dim)
    directions and records the actual output dimension.
    """
    if train_emb.d != apply_emb.d:
        raise DimensionMismatch(
            f"train d={train_emb.d} but apply d={apply_emb.d}"
        )
    d = train_emb.d
    if d <= cfg.pca_threshold:
        record = ProjectionRecord(mean=None, basis=None, input_dim=d, output_dim=d)
        return train_emb, apply_emb, record

    mean, basis = pca_basis(train_emb.values, cfg.pca_dim)
    record = ProjectionRecord(mean, basis, input_dim=d, output_dim=basis.shape[0])
    return record.apply(train_emb), record.apply(apply_emb), record


def init_confusion(
    split: LabeledSplit, cfg: FitConfig, emb: EmbeddingMatrix | None = None
) -> Responsibilities:
    """Seed responsibilities from confusion-matrix cells.

    Component j is assigned cell j mod C^2 (row-major over (y, y_hat)), so
    every cell receives at least floor(k_bar / C^2) components. Entries are
    1 + eps for cell members and eps otherwise, eps ~ Uniform[0, init_noise],
    then rows are normalized.

    When embeddings are supplied and a cell holds several components, the
    cell's members are further partitioned among its components by a seeded
    k-means run. The per-entry noise alone leaves same-cell components
    identical up to O(1/sqrt(n)) perturbations, a near-neutral configuration
    that EM cannot reliably split within the iteration budget; the k-means
    partition breaks the tie macroscopically while keeping every component
    inside its confusion cell.
    """
    c = split.num_classes
    if cfg.k_bar < c * c:
        raise TooFewSlices(f"k_bar={cfg.k_bar} below {c * c} confusion cells")
    cell = np.arange(cfg.k_bar) % (c * c)
    cell_y = cell // c
    cell_yhat = cell % c
    match = (split.labels[:, None] == cell_y[None, :]) & (
        split.predictions[:, None] == cell_yhat[None, :]
    )
    rng = derive_rng(cfg.seed, "init-confusion")
    if emb is not None:
        match = match.copy()
        example_cell = split.labels * c + split.predictions
        for cell_idx in range(c * c):
            comps = np.flatnonzero(cell == cell_idx)
            members = np.flatnonzero(example_cell == cell_idx)
            if comps.shape[0] < 2 or members.shape[0] <= comps.shape[0]:
                continue
            _, assign, _ = kmeans(
                emb.values[members], comps.shape[0], rng, restarts=3, max_iter=25
            )
            match[members, :] = False
            match[members, comps[assign]] = True
    noise = rng.uniform(0.0, cfg.init_noise, size=(split.n, cfg.k_bar))
    raw = match.astype(np.float64) + noise
    return Responsibilities(raw / raw.sum(axis=1, keepdims=True))


def _log_gaussian(values: np.ndarray, params: MixtureParams) -> np.ndarray:
    """(n, k_bar) diagonal-Gaussian log densities via the expanded quadratic."""
    inv_var = 1.0 / params.variances
    quad = (
        values**2 @ inv_var.T
        - 2.0 * values @ (params.means * inv_var).T
        + (params.means**2 * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (
        values.shape[1] * np.log(2.0 * np.pi) + np.log(params.variances).sum(axis=1)
    )
    return log_norm[None, :] - 0.5 * quad


def e_step(
    emb: EmbeddingMatrix,
    split: LabeledSplit,
    params: MixtureParams,
    gamma: float,
) -> tuple[Responsibilities, float]:
    """Posterior responsibilities and the total log-likelihood of the batch."""
    check_pair(emb, split)
    if emb.d != params.means.shape[1]:
        raise DimensionMismatch(
            f"model has d={params.means.shape[1]}, embeddings have d={emb.d}"
        )
    with np.errstate(divide="ignore"):
        log_joint = np.log(params.weights)[None, :] + _log_gaussian(emb.values, params)
        if gamma != 0.0:
            log_joint = log_joint + gamma * (
                np.log(params.label_probs)[:, split.labels].T
                + np.log(params.pred_probs)[:, split.predictions].T
            )
    row_max = log_joint.max(axis=1, keepdims=True)
    if np.isneginf(row_max).any():
        raise NumericalUnderflow("a responsibility row lost all mass in log space")
    shifted = np.exp(log_joint - row_max)
    totals = shifted.sum(axis=1, keepdims=True)
    log_lik = float((np.log(totals) + row_max).sum())
    q = shifted / totals
    return Responsibilities(q), log_lik


def m_step(
    emb: EmbeddingMatrix,
    split: LabeledSplit,
    q: Responsibilities,
    cfg: FitConfig,
) -> MixtureParams:
    """Closed-form parameter update from weighted moments and frequencies.

    Gamma scales the categorical log-terms by a constant, so the maximizing
    categoricals are the plain weighted frequencies; gamma enters the E-step
    only. Components whose total weight falls below 1e-12 are re-seeded at a
    random data point with prior mass 1/k_bar.
    """
    check_pair(emb, split)
    values = emb.values
    n, k = q.q.shape
    c = split.num_classes
    mass = q.q.sum(axis=0)
    empty = mass < 1e-12
    safe_mass = np.where(empty, 1.0, mass)

    weights = mass / n
    means = (q.q.T @ values) / safe_mass[:, None]
    second = (q.q.T @ values**2) / safe_mass[:, None]
    variances = np.maximum(second - means**2, cfg.cov_floor)

    label_onehot = np.eye(c)[split.labels]
    pred_onehot = np.eye(c)[split.predictions]
    label_counts = q.q.T @ label_onehot + _SMOOTH
    pred_counts = q.q.T @ pred_onehot + _SMOOTH
    label_probs = label_counts / label_counts.sum(axis=1, keepdims=True)
    pred_probs = pred_counts / pred_counts.sum(axis=1, keepdims=True)

    if empty.any():
        rng = derive_rng(cfg.seed, "rescue")
        global_var = np.maximum(values.var(axis=0), cfg.cov_floor)
        global_label = label_onehot.mean(axis=0) + _SMOOTH
        global_pred = pred_onehot.mean(axis=0) + _SMOOTH
        means = means.copy()
        variances = variances.copy()
        label_probs = label_probs.copy()
        pred_probs = pred_probs.copy()
        weights = weights.copy()
        for j in np.flatnonzero(empty):
            anchor = int(rng.integers(n))
            logger.debug("re-seeding empty component %d at example %d", j, anchor)
            means[j] = values[anchor]
            variances[j] = global_var
            label_probs[j] = global_label / global_label.sum()
            pred_probs[j] = global_pred / global_pred.sum()
            weights[j] = 1.0 / k
        weights = weights / weights.sum()

    return MixtureParams(
        weights=weights,
        means=means,
        variances=variances,
        label_probs=label_probs,
        pred_probs=pred_probs,
    )


def fit(
    valid_emb: EmbeddingMatrix,
    valid_split: LabeledSplit,
    cfg: FitConfig,
) -> tuple[MixtureParams, FitDiagnostics]:
    """Fit the mixture on the validation split by expectation-maximization.

    Alternates E and M steps from the confusion-matrix initialization until
    the relative log-likelihood improvement drops below ``cfg.rel_tol`` or
    ``cfg.max_iter`` iterations are reached.
    """
    check_pair(valid_emb, valid_split)
    if valid_emb.n < cfg.k_bar:
        raise ValueError(f"need at least k_bar={cfg.k_bar} examples, got {valid_emb.n}")
    emb, _, projection = reduce_dim(valid_emb, valid_emb, cfg)
    q = init_confusion(valid_split, cfg, emb)
    params = m_step(emb, valid_split, q, cfg)
    rescues = 0

    log_liks: list[float] = []
    converged = False
    prev = -np.inf
    for iteration in range(cfg.max_iter):
        q, log_lik = e_step(emb, valid_split, params, cfg.gamma)
        log_liks.append(log_lik)
        if np.isfinite(prev) and log_lik - prev < cfg.rel_tol * abs(prev):
            converged = True
            break
        prev = log_lik
        if iteration == cfg.max_iter - 1:
            break
        # The returned params are always the ones that produced the last
        # recorded responsibilities, so frozen-parameter scoring of the
        # validation set reproduces them exactly.
        rescues += int((q.q.sum(axis=0) < 1e-12).sum())
        params = m_step(emb, valid_split, q, cfg)

    diagnostics = FitDiagnostics(
        log_likelihoods=tuple(log_liks),
        n_iter=len(log_liks),
        converged=converged,
        rescues=rescues,
        projection=projection,
        responsibilities=q,
    )
    return params, diagnostics


def select_slices(params: MixtureParams, k_hat: int) -> np.ndarray:
    """Indices of the k_hat components with the largest sum |p_hat - p|."""
    if k_hat > params.k_bar:
        raise ValueError(f"k_hat={k_hat} exceeds k_bar={params.k_bar}")
    divergence = np.abs(params.pred_probs - params.label_probs).sum(axis=1)
    order = np.argsort(-divergence, kind="stable")
    return order[:k_hat]


def score(
    test_emb: EmbeddingMatrix,
    test_split: LabeledSplit,
    params: MixtureParams,
    selected: Sequence[int] | np.ndarray,
    projection: ProjectionRecord,
    gamma: float,
) -> SliceScores:
    """Frozen-parameter posteriors on new data, restricted to selected slices.

    Scores are the full-model posteriors at the selected columns; they are not
    renormalized over the selected subset.
    """
    emb = projection.apply(test_emb)
    q, _ = e_step(emb, test_split, params, gamma)
    selected = np.asarray(selected, dtype=np.int64)
    return SliceScores(scores=q.q[:, selected], method="domino")


class MixtureSDM:
    """fit/transform wrapper used by the evaluation harness."""

    def __init__(self, cfg: FitConfig | None = None):
        self.cfg = cfg or FitConfig()
        self.params: MixtureParams | None = None
        self.diagnostics: FitDiagnostics | None = None
        self.selected: np.ndarray | None = None

    def fit(self, emb: EmbeddingMatrix, split: LabeledSplit) -> "MixtureSDM":
        self.params, self.diagnostics = fit(emb, split, self.cfg)
        self.selected = select_slices(self.params, self.cfg.k_hat)
        return self

    def transform(self, emb: EmbeddingMatrix, split: LabeledSplit) -> SliceScores:
        if self.params is None:
            raise RuntimeError("fit must be called before transform")
        return score(
            emb, split, self.params, self.selected,
            self.diagnostics.projection, self.cfg.gamma,
        )


# --- persistence ------------------------------------------------------------


def save_model(
    params: MixtureParams,
    projection: ProjectionRecord,
    cfg: FitConfig,
    path: str | Path,
) -> None:
    """Persist a fitted model as JSON with full-precision decimal values."""
    doc = {
        "config": asdict(cfg),
        "projection": {
            "mean": None if projection.mean is None else projection.mean.tolist(),
            "basis": None if projection.basis is None else projection.basis.tolist(),
            "input_dim": projection.input_dim,
            "output_dim": projection.output_dim,
        },
        "params": {f.name: getattr(params, f.name).tolist() for f in fields(MixtureParams)},
    }
    try:
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_model(path: str | Path) -> tuple[MixtureParams, ProjectionRecord, FitConfig]:
    doc = json.loads(Path(path).read_text())
    cfg = FitConfig(**doc["config"])
    proj = doc["projection"]
    projection = ProjectionRecord(
        mean=None if proj["mean"] is None else np.asarray(proj["mean"]),
        basis=None if proj["basis"] is None else np.asarray(proj["basis"]),
        input_dim=int(proj["input_dim"]),
        output_dim=int(proj["output_dim"]),
    )
    params = MixtureParams(**{k: np.asarray(v) for k, v in doc["params"].items()})
    return params, projection, cfg
