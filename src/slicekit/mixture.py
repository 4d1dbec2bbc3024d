"""Error-aware mixture model over embeddings, labels, and predictions.

Each mixture component carries a diagonal Gaussian over embeddings plus two
categorical distributions, one over labels and one over predictions, with the
categorical log-terms weighted by gamma. Components are initialized from the
confusion matrix and fit by expectation-maximization; the components with the
largest label/prediction divergence are returned as slices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .clustering import kmeans, pca_basis
from .data import EmbeddingMatrix, LabeledSplit, SliceScores, check_pair, keep_arrays
from .errors import (
    DimensionMismatch,
    NumericalUnderflow,
    RowCountMismatch,
    TooFewPoints,
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
        if not 1 <= self.k_hat <= self.k_bar:
            raise ValueError(f"k_hat must lie in [1, k_bar={self.k_bar}], got {self.k_hat}")
        # Every float bound is written so that NaN fails it.
        for name in ("gamma", "init_noise"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        for name in ("rel_tol", "cov_floor"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("max_iter", "pca_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


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
    """All component parameters of a fitted mixture.

    Every field is float64 and follows the array rule of ``slicekit.data``.
    """

    weights: np.ndarray      # (k_bar,) component prior
    means: np.ndarray        # (k_bar, d)
    variances: np.ndarray    # (k_bar, d) diagonal covariance entries
    label_probs: np.ndarray  # (k_bar, C)
    pred_probs: np.ndarray   # (k_bar, C)

    def __post_init__(self) -> None:
        arrays = {
            f.name: np.ascontiguousarray(getattr(self, f.name), dtype=np.float64)
            for f in fields(self)
        }
        weights, means, variances, label_probs, pred_probs = arrays.values()
        if not all(np.isfinite(a).all() for a in arrays.values()):
            raise ValueError("mixture parameters must be finite")
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
        keep_arrays(self, **arrays)

    @property
    def k_bar(self) -> int:
        return self.weights.shape[0]

    @property
    def num_classes(self) -> int:
        return self.label_probs.shape[1]


@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one simplex row per example.

    ``q`` is float64 and follows the array rule of ``slicekit.data``.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.ascontiguousarray(self.q, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError("responsibilities must be 2-d")
        # Written so that a NaN entry fails it.
        if not (q.min() >= 0.0 and q.max() <= 1.0):
            raise ValueError("responsibilities must lie in [0, 1]")
        if np.abs(q.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("responsibility rows must sum to 1")
        keep_arrays(self, q=q)


@dataclass(frozen=True)
class FitDiagnostics:
    log_likelihoods: tuple[float, ...]
    n_iter: int
    converged: bool
    rescues: int
    projection: ProjectionRecord
    responsibilities: Responsibilities


def reduce_dim(emb: EmbeddingMatrix, cfg: FitConfig) -> tuple[EmbeddingMatrix, ProjectionRecord]:
    """Project emb onto its top principal directions; the record projects others.

    Identity when d does not exceed ``cfg.pca_threshold``. When fewer than
    ``cfg.pca_dim`` directions exist, the projection uses min(n - 1, pca_dim)
    directions and records the actual output dimension.
    """
    d = emb.d
    if d <= cfg.pca_threshold:
        record = ProjectionRecord(mean=None, basis=None, input_dim=d, output_dim=d)
        return emb, record

    mean, basis = pca_basis(emb.values, cfg.pca_dim)
    record = ProjectionRecord(mean, basis, input_dim=d, output_dim=basis.shape[0])
    return record.apply(emb), record


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


@dataclass(frozen=True)
class _EMInputs:
    """What the E and M steps derive from a fixed batch, once per fit."""

    squares: np.ndarray       # values**2
    cells: np.ndarray         # (n,) confusion cell, labels * C + predictions
    label_onehot: np.ndarray  # (n, C)
    pred_onehot: np.ndarray   # (n, C)

    @classmethod
    def of(cls, emb: EmbeddingMatrix, split: LabeledSplit) -> "_EMInputs":
        c = split.num_classes
        return cls(
            squares=emb.values**2,
            cells=split.labels * c + split.predictions,
            label_onehot=np.eye(c)[split.labels],
            pred_onehot=np.eye(c)[split.predictions],
        )


def _unchecked(cls, **values):
    """A frozen dataclass instance built without running its ``__post_init__``.

    The EM loop passes its own intermediate params and responsibilities
    between the steps this way; ``fit`` validates the ones it returns. The
    arrays are made read-only, as in a validated instance.
    """
    obj = object.__new__(cls)
    keep_arrays(obj, **values)
    return obj


def e_step(
    emb: EmbeddingMatrix,
    split: LabeledSplit,
    params: MixtureParams,
    gamma: float,
    *,
    inputs: _EMInputs | None = None,
) -> tuple[Responsibilities, float]:
    """Posterior responsibilities and the total log-likelihood of the batch.

    ``fit`` passes its per-fit ``inputs`` and gets unvalidated
    responsibilities back; every other caller has its arguments checked and
    its result validated.
    """
    validate = inputs is None
    if validate:
        check_pair(emb, split)
        if emb.d != params.means.shape[1]:
            raise DimensionMismatch(
                f"model has d={params.means.shape[1]}, embeddings have d={emb.d}"
            )
        if split.num_classes != params.num_classes:
            raise DimensionMismatch(
                f"model has {params.num_classes} classes, split has {split.num_classes}"
            )
        inputs = _EMInputs.of(emb, split)
    # Diagonal-Gaussian log densities via the expanded quadratic. Doubling
    # is exact, so 2 * (x @ m) is bit for bit (2 * x) @ m, at n*k multiplies.
    inv_var = 1.0 / params.variances
    quad = (
        inputs.squares @ inv_var.T
        - 2.0 * (emb.values @ (params.means * inv_var).T)
        + (params.means**2 * inv_var).sum(axis=1)[None, :]
    )
    log_norm = -0.5 * (emb.d * np.log(2.0 * np.pi) + np.log(params.variances).sum(axis=1))
    with np.errstate(divide="ignore"):
        log_joint = np.log(params.weights)[None, :] + (log_norm[None, :] - 0.5 * quad)
        if gamma != 0.0:
            # One (k_bar, C^2) table of categorical terms, gathered by cell.
            c = params.num_classes
            pair = np.log(params.label_probs)[:, :, None] + np.log(params.pred_probs)[:, None, :]
            table = gamma * pair.reshape(params.k_bar, c * c)
            log_joint = log_joint + table[:, inputs.cells].T
    row_max = log_joint.max(axis=1, keepdims=True)
    if np.isneginf(row_max).any():
        raise NumericalUnderflow("a responsibility row lost all mass in log space")
    shifted = np.exp(log_joint - row_max)
    totals = shifted.sum(axis=1, keepdims=True)
    log_lik = float((np.log(totals) + row_max).sum())
    q = shifted / totals
    return (Responsibilities(q) if validate else _unchecked(Responsibilities, q=q)), log_lik


def m_step(
    emb: EmbeddingMatrix,
    split: LabeledSplit,
    q: Responsibilities,
    cfg: FitConfig,
    *,
    inputs: _EMInputs | None = None,
    mass: np.ndarray | None = None,
) -> MixtureParams:
    """Closed-form parameter update from weighted moments and frequencies.

    Gamma scales the categorical log-terms by a constant, so the maximizing
    categoricals are the plain weighted frequencies; gamma enters the E-step
    only. Components whose total weight falls below 1e-12 are re-seeded at a
    random data point with prior mass 1/k_bar.

    ``fit`` passes its per-fit ``inputs`` and the column sums ``mass`` of
    ``q`` and gets unvalidated params back; every other caller has its
    arguments checked and its result validated.
    """
    validate = inputs is None
    if validate:
        check_pair(emb, split)
        if q.q.shape[0] != emb.n:
            raise RowCountMismatch(
                f"responsibilities have {q.q.shape[0]} rows, embeddings have {emb.n}"
            )
        inputs = _EMInputs.of(emb, split)
    if mass is None:
        mass = q.q.sum(axis=0)
    values = emb.values
    n, k = q.q.shape
    empty = mass < 1e-12
    safe_mass = np.where(empty, 1.0, mass)

    weights = mass / n
    means = (q.q.T @ values) / safe_mass[:, None]
    second = (q.q.T @ inputs.squares) / safe_mass[:, None]
    variances = np.maximum(second - means**2, cfg.cov_floor)

    label_counts = q.q.T @ inputs.label_onehot + _SMOOTH
    pred_counts = q.q.T @ inputs.pred_onehot + _SMOOTH
    label_probs = label_counts / label_counts.sum(axis=1, keepdims=True)
    pred_probs = pred_counts / pred_counts.sum(axis=1, keepdims=True)

    if empty.any():
        rng = derive_rng(cfg.seed, "rescue")
        global_var = np.maximum(values.var(axis=0), cfg.cov_floor)
        global_label = inputs.label_onehot.mean(axis=0) + _SMOOTH
        global_pred = inputs.pred_onehot.mean(axis=0) + _SMOOTH
        for j in np.flatnonzero(empty):
            anchor = int(rng.integers(n))
            logger.debug("re-seeding empty component %d at example %d", j, anchor)
            means[j] = values[anchor]
            variances[j] = global_var
            label_probs[j] = global_label / global_label.sum()
            pred_probs[j] = global_pred / global_pred.sum()
            weights[j] = 1.0 / k
        weights = weights / weights.sum()

    arrays = dict(
        weights=weights,
        means=means,
        variances=variances,
        label_probs=label_probs,
        pred_probs=pred_probs,
    )
    return MixtureParams(**arrays) if validate else _unchecked(MixtureParams, **arrays)


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
        raise TooFewPoints(f"need at least k_bar={cfg.k_bar} examples, got {valid_emb.n}")
    emb, projection = reduce_dim(valid_emb, cfg)
    inputs = _EMInputs.of(emb, valid_split)
    q = init_confusion(valid_split, cfg, emb)
    params = m_step(emb, valid_split, q, cfg, inputs=inputs)
    rescues = 0

    log_liks: list[float] = []
    converged = False
    prev = -np.inf
    for iteration in range(cfg.max_iter):
        q, log_lik = e_step(emb, valid_split, params, cfg.gamma, inputs=inputs)
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
        mass = q.q.sum(axis=0)
        rescues += int((mass < 1e-12).sum())
        params = m_step(emb, valid_split, q, cfg, inputs=inputs, mass=mass)

    # The loop passes unvalidated values between the steps; check what leaves.
    params = replace(params)
    q = replace(q)
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

