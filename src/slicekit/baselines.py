"""Comparison slice discovery methods sharing the SliceScores contract.

Four baselines: confusion-matrix cells, loss-seeking Gaussian spotlights,
multiaccuracy-style residual boosting, and class-conditional clustering on a
two-dimensional principal-component reduction (method id ``george-pca``).
Each is one SDM class whose ``fit`` learns from the validation split and whose
``transform`` scores any split; ``evaluate.METHODS`` registers them.

The spotlight weights exp(-|x - mu|^2 / (2 sigma^2)) are computed in one
place, ``_gaussian_weights``. Each ascent step weighs the data once, for the
candidate point: the current point's mass and mean loss are kept from the
step that accepted it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import kmeans, pca_basis, sq_distances
from .data import EmbeddingMatrix, LabeledSplit, SliceScores, check_pair
from .errors import DegenerateLoss, NotBinary, ProbOnBoundary, SchemaError, TooFewPoints
from .seeding import derive_rng

_PROB_EPS = 1e-6


@dataclass(frozen=True)
class SpotlightConfig:
    """Spotlight search: 2% minimum mass, lr 1e-3, 1000 ascent steps."""

    min_mass_fraction: float = 0.02
    steps: int = 1000
    learning_rate: float = 1e-3
    num_spotlights: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_mass_fraction < 1.0:
            raise ValueError("min_mass_fraction must lie in (0, 1)")
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        for name in ("steps", "num_spotlights"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


@dataclass(frozen=True)
class MultiaccuracyConfig:
    eta: float = 0.1
    rounds: int = 5
    fit_fraction: float = 0.7
    ridge_lambda: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("eta", "ridge_lambda"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        if not 0.0 < self.fit_fraction < 1.0:
            raise ValueError("fit_fraction must lie in (0, 1)")
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")


@dataclass(frozen=True)
class GeorgeConfig:
    clusters_per_class: int | None = None
    reduce_dim: int = 2
    restarts: int = 10
    max_iter: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clusters_per_class is not None and self.clusters_per_class < 1:
            raise ValueError("clusters_per_class must be None or at least 1")
        for name in ("reduce_dim", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")


def example_losses(split: LabeledSplit) -> np.ndarray:
    """Cross-entropy when probabilities are available, 0/1 loss otherwise."""
    if split.prediction_probs is not None:
        p_true = split.prediction_probs[np.arange(split.n), split.labels]
        return -np.log(np.maximum(p_true, 1e-12))
    return (split.predictions != split.labels).astype(np.float64)


# --- confusion SDM ----------------------------------------------------------


class ConfusionSDM:
    """One slicing column per confusion-matrix cell, row-major over (y, y_hat)."""

    def __init__(self, cfg: object = None):
        self.num_classes: int | None = None

    def fit(self, emb: EmbeddingMatrix | None, split: LabeledSplit) -> "ConfusionSDM":
        self.num_classes = split.num_classes
        return self

    def transform(self, emb: EmbeddingMatrix | None, split: LabeledSplit) -> SliceScores:
        c = split.num_classes if self.num_classes is None else self.num_classes
        cell = split.labels * c + split.predictions
        scores = np.zeros((split.n, c * c))
        scores[np.arange(split.n), cell] = 1.0
        return SliceScores(scores=scores, method="confusion")


# --- spotlight --------------------------------------------------------------


def _gaussian_weights(
    values: np.ndarray, mu: np.ndarray, log_sigma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``values - mu``, squared distances r and weights exp(-r / (2 sigma^2)).

    The weights are not normalised and carry no downdate multiplier.
    """
    diff = values - mu
    r = (diff**2).sum(axis=1)
    return diff, r, np.exp(-r / (2.0 * math.exp(2.0 * log_sigma)))


class SpotlightSDM:
    """Gradient ascent on soft-weighted mean loss over Gaussian spotlights."""

    def __init__(self, cfg: SpotlightConfig | None = None):
        self.cfg = cfg or SpotlightConfig()
        self.spotlights: list[tuple[np.ndarray, float]] = []
        self.degenerate = False
        # per spotlight: (mean loss, barrier active, step accepted) per step
        self.trace: list[list[tuple[float, bool, bool]]] = []

    def fit(self, emb: EmbeddingMatrix, split: LabeledSplit) -> "SpotlightSDM":
        self.spotlights, self.trace, self.degenerate = [], [], False
        check_pair(emb, split)
        losses = example_losses(split)
        values = emb.values
        n = values.shape[0]
        cfg = self.cfg
        if n * cfg.min_mass_fraction < 1.0:
            raise TooFewPoints("min_mass_fraction admits no examples at this n")

        if np.ptp(losses) == 0.0:
            self.degenerate = True
            warnings.warn(
                "all per-example losses are equal; spotlight output is uniform",
                DegenerateLoss,
            )
            return self

        min_mass = n * cfg.min_mass_fraction
        multiplier = np.ones(n)
        for _ in range(cfg.num_spotlights):
            mu, log_sigma = self._ascend(values, losses, multiplier, min_mass)
            self.spotlights.append((mu, log_sigma))
            _, _, w = _gaussian_weights(values, mu, log_sigma)
            top = w.max()
            if top > 0:
                multiplier = multiplier * (1.0 - w / top)
        return self

    def _ascend(
        self,
        values: np.ndarray,
        losses: np.ndarray,
        multiplier: np.ndarray,
        min_mass: float,
    ) -> tuple[np.ndarray, float]:
        cfg = self.cfg
        # Start at the remaining loss mass center with a data-scale radius.
        eff_loss = multiplier * losses + 1e-12
        mu = (eff_loss @ values) / eff_loss.sum()
        center = values.mean(axis=0)
        log_sigma = 0.5 * math.log(((values - center) ** 2).sum(axis=1).mean() + 1e-12)
        t_lo, t_hi = log_sigma - 10.0, log_sigma + 10.0
        trace: list[tuple[float, bool, bool]] = []

        def evaluate(mu: np.ndarray, log_sigma: float) -> tuple:
            """diff, r, downdated weights, their total and the mean loss."""
            diff, r, w = _gaussian_weights(values, mu, log_sigma)
            w = w * multiplier
            total = w.sum()
            mean_loss = (w * losses).sum() / total if total > 0 else np.nan
            return diff, r, w, total, mean_loss

        def objective(total: float, mean_loss: float, barrier: float) -> float:
            if total <= 0:
                return -np.inf
            deficit = max(0.0, min_mass - total)
            return float(mean_loss) - barrier * (deficit / min_mass) ** 2

        diff, r, w, total, mean_loss = evaluate(mu, log_sigma)
        for step in range(cfg.steps):
            if total <= 0:
                break
            # Quadratic barrier whose weight doubles every 100 steps from 1.0.
            barrier = float(2.0 ** (step // 100))
            sigma_sq = math.exp(2.0 * log_sigma)

            # d(mean loss)/d(weight_i) = (loss_i - mean_loss) / total
            dl_dw = (losses - mean_loss) / total
            # Quadratic barrier active when total mass drops below min_mass.
            deficit = max(0.0, min_mass - total)
            dpen_dw = -2.0 * barrier * deficit / min_mass**2
            coeff = w * (dl_dw - dpen_dw)
            grad_mu = (coeff[None, :] @ diff)[0] / sigma_sq
            grad_t = float((coeff * r).sum() / sigma_sq)

            new_mu = mu + cfg.learning_rate * grad_mu
            new_t = min(max(log_sigma + cfg.learning_rate * grad_t, t_lo), t_hi)
            candidate = evaluate(new_mu, new_t)
            # Only accepted ascent steps move the spotlight. The current point
            # keeps its evaluation, so each step weighs the data once; the
            # barrier is re-applied because its weight changes with the step.
            accepted = objective(*candidate[3:], barrier) >= objective(
                total, mean_loss, barrier
            )
            trace.append((float(mean_loss), deficit > 0.0, accepted))
            if accepted:
                mu, log_sigma = new_mu, new_t
                diff, r, w, total, mean_loss = candidate
        self.trace.append(trace)
        return mu, log_sigma

    def transform(self, emb: EmbeddingMatrix, split: LabeledSplit) -> SliceScores:
        n = emb.n
        if self.degenerate:
            return SliceScores(
                scores=np.full((n, self.cfg.num_spotlights), 0.5), method="spotlight"
            )
        columns = []
        for mu, log_sigma in self.spotlights:
            _, _, w = _gaussian_weights(emb.values, mu, log_sigma)
            top = w.max()
            columns.append(w / top if top > 0 else np.zeros(n))
        return SliceScores(scores=np.column_stack(columns), method="spotlight")


# --- multiaccuracy boost ----------------------------------------------------


def _rank_normalize(x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n == 1:
        return np.ones(1)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(n)
    ranks[order] = np.arange(n, dtype=np.float64)
    return ranks / (n - 1)


class MultiaccuracySDM:
    """Boosting rounds of ridge-regressed cross-entropy partial residuals.

    Each round regresses the target 1 / (1 - h - y) on the embeddings over a
    fit fraction of the data, downdates the predicted probabilities
    multiplicatively, and emits |f| rank-normalized to [0, 1] as one slice.
    """

    def __init__(self, cfg: MultiaccuracyConfig | None = None):
        self.cfg = cfg or MultiaccuracyConfig()
        self.coefs: list[np.ndarray] = []

    def fit(self, emb: EmbeddingMatrix, split: LabeledSplit) -> "MultiaccuracySDM":
        check_pair(emb, split)
        if split.num_classes != 2:
            raise NotBinary("multiaccuracy requires a binary split")
        if split.prediction_probs is None:
            raise SchemaError("multiaccuracy requires prediction probabilities")
        cfg = self.cfg
        values = emb.values
        y = split.labels.astype(np.float64)
        h = split.prediction_probs[:, 1].copy()
        if ((h <= 0.0) | (h >= 1.0)).any():
            warnings.warn(
                "prediction probabilities on {0, 1} were clamped", ProbOnBoundary
            )
        h = np.clip(h, _PROB_EPS, 1.0 - _PROB_EPS)

        n = values.shape[0]
        n_fit = max(1, int(round(cfg.fit_fraction * n)))
        self.coefs = []
        for r in range(cfg.rounds):
            rng = derive_rng(cfg.seed, "multiacc", r)
            fit_idx = rng.permutation(n)[:n_fit]
            target = 1.0 / (1.0 - h[fit_idx] - y[fit_idx])
            x_fit = values[fit_idx]
            gram = x_fit.T @ x_fit + cfg.ridge_lambda * np.eye(values.shape[1])
            coef = np.linalg.solve(gram, x_fit.T @ target)
            self.coefs.append(coef)

            f = values @ coef
            scaled = h * np.exp(-cfg.eta * f)
            h = np.clip(scaled / (scaled + (1.0 - h)), _PROB_EPS, 1.0 - _PROB_EPS)
        return self

    def transform(self, emb: EmbeddingMatrix, split: LabeledSplit) -> SliceScores:
        if not self.coefs:
            raise RuntimeError("fit must be called before transform")
        columns = [_rank_normalize(np.abs(emb.values @ coef)) for coef in self.coefs]
        return SliceScores(scores=np.column_stack(columns), method="multiacc")


# --- george (class-conditional clustering) ----------------------------------


class GeorgeSDM:
    """Per-class k-means over a 2-d principal-component reduction."""

    def __init__(self, cfg: GeorgeConfig | None = None):
        self.cfg = cfg or GeorgeConfig()
        self.by_class: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.num_classes = 0

    def fit(self, emb: EmbeddingMatrix, split: LabeledSplit) -> "GeorgeSDM":
        check_pair(emb, split)
        cfg = self.cfg
        self.num_classes = split.num_classes
        k = cfg.clusters_per_class or math.ceil(25 / split.num_classes)
        self.clusters_per_class = k
        self.by_class = {}
        for c in range(split.num_classes):
            members = np.flatnonzero(split.labels == c)
            if members.shape[0] < k:
                raise TooFewPoints(
                    f"class {c} has {members.shape[0]} points for {k} clusters"
                )
            subset = emb.values[members]
            mean, basis = pca_basis(subset, cfg.reduce_dim)
            reduced = (subset - mean) @ basis.T
            rng = derive_rng(cfg.seed, "george", c)
            centers, _, _ = kmeans(
                reduced, k, rng, restarts=cfg.restarts, max_iter=cfg.max_iter
            )
            self.by_class[c] = (mean, basis, centers)
        return self

    def transform(self, emb: EmbeddingMatrix, split: LabeledSplit) -> SliceScores:
        if not self.by_class:
            raise RuntimeError("fit must be called before transform")
        k = self.clusters_per_class
        scores = np.zeros((emb.n, self.num_classes * k))
        for c, (mean, basis, centers) in self.by_class.items():
            members = np.flatnonzero(split.labels == c)
            if members.shape[0] == 0:
                continue
            reduced = (emb.values[members] - mean) @ basis.T
            assign = sq_distances(reduced, centers).argmin(axis=1)
            scores[members, c * k + assign] = 1.0
        return SliceScores(scores=scores, method="george-pca")
