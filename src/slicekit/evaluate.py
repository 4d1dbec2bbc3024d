"""Evaluation harness: fit on validation, score test, aggregate with CIs.

For every setting the chosen method is fit on the validation split only and
applied to the test split; each ground-truth slice is credited with the best
precision-at-k over all discovered slices. Group means carry seeded
percentile-bootstrap 95% confidence intervals.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .baselines import (
    ConfusionSDM,
    GeorgeConfig,
    GeorgeSDM,
    MultiaccuracyConfig,
    MultiaccuracySDM,
    SpotlightConfig,
    SpotlightSDM,
)
from .data import LabeledSplit, SliceScores, SliceSetting
from .errors import EmptyGroup, KTooLarge
from .mixture import FitConfig, MixtureSDM
from .seeding import derive_rng


@dataclass(frozen=True)
class Method:
    """One registered slice discovery method.

    ``config`` is the method's config dataclass (None when it takes no
    settings). With ``cli_flags``, ``slicekit run`` gets one flag per config
    field other than ``seed``.
    """

    sdm: type
    config: type | None
    cli_flags: bool


# The single method registry, in the order the CLI lists methods. GEORGE is
# configured through --config only: its max_iter would clash with domino's.
METHODS: dict[str, Method] = {
    "domino": Method(MixtureSDM, FitConfig, cli_flags=True),
    "confusion": Method(ConfusionSDM, None, cli_flags=False),
    "spotlight": Method(SpotlightSDM, SpotlightConfig, cli_flags=True),
    "multiacc": Method(MultiaccuracySDM, MultiaccuracyConfig, cli_flags=True),
    "george": Method(GeorgeSDM, GeorgeConfig, cli_flags=False),
}


def make_sdm(method: str, cfg: object = None):
    """Instantiate the named method; each method builds its default config."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {', '.join(METHODS)}")
    return METHODS[method].sdm(cfg)


def precision_at_k(scores: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Fraction of the k highest-scored examples inside the ground-truth slice.

    Score ties are broken toward the lower example index.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    truth = np.asarray(truth).ravel()
    if scores.shape != truth.shape:
        raise ValueError("scores and truth must have equal length")
    if k < 1 or k > scores.shape[0]:
        raise KTooLarge(f"k={k} outside [1, {scores.shape[0]}]")
    top = np.argsort(-scores, kind="stable")[:k]
    return float(truth[top].sum() / k)


def check_degradation(
    split: LabeledSplit, slice_col: int = 0, epsilon_pp: float = 10.0
) -> bool:
    """Whether out-of-slice accuracy beats in-slice accuracy by more than epsilon."""
    members = split.slices[:, slice_col] == 1
    if not members.any() or members.all():
        raise EmptyGroup("degradation needs both slice members and non-members")
    correct = split.predictions == split.labels
    acc_in = float(correct[members].mean())
    acc_out = float(correct[~members].mean())
    return acc_out - acc_in > epsilon_pp / 100.0


@dataclass(frozen=True)
class SettingResult:
    """Per-setting outcome for one method."""

    setting_id: str
    method: str
    slice_type: str
    alpha: float
    model_kind: str
    precisions: tuple[float, ...]
    best_slices: tuple[int, ...]
    degraded: bool
    success_at_beta: bool
    wall_time: float

    @property
    def precision(self) -> float:
        """Setting-level precision: mean over ground-truth slices."""
        return float(np.mean(self.precisions))


@dataclass(frozen=True)
class AggregateReport:
    method: str
    slice_type: str
    mean_precision: float
    ci_low: float
    ci_high: float
    n_settings: int
    n_excluded: int
    per_alpha: tuple[tuple[float, float, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.ci_low <= self.mean_precision <= self.ci_high:
            raise ValueError("confidence interval must bracket the mean")


def score_setting(scores: SliceScores, split: LabeledSplit, k: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """Best precision-at-k per ground-truth slice, plus the best column index."""
    precisions = []
    best_columns = []
    for u in range(split.num_slices):
        truth = split.slices[:, u]
        per_column = [
            precision_at_k(scores.scores[:, v], truth, k)
            for v in range(scores.k_hat)
        ]
        best = int(np.argmax(per_column))
        best_columns.append(best)
        precisions.append(per_column[best])
    return tuple(precisions), tuple(best_columns)


def run_setting(
    setting: SliceSetting,
    method: str,
    method_cfg: object = None,
    k: int = 10,
    beta: float = 0.5,
    setting_id: str = "",
) -> SettingResult:
    """Fit the method on the validation split, score test, and compare slices."""
    start = time.perf_counter()
    sdm = make_sdm(method, method_cfg)
    sdm.fit(setting.valid_emb, setting.valid_split)
    scores = sdm.transform(setting.test_emb, setting.test_split)
    precisions, best_columns = score_setting(scores, setting.test_split, k)
    try:
        degraded = all(
            check_degradation(setting.test_split, u)
            for u in range(setting.test_split.num_slices)
        )
    except EmptyGroup:
        degraded = False
    return SettingResult(
        setting_id=setting_id,
        method=scores.method,
        slice_type=setting.slice_type,
        alpha=float(setting.alpha),
        model_kind=setting.model_kind,
        precisions=precisions,
        best_slices=best_columns,
        degraded=degraded,
        success_at_beta=all(p > beta for p in precisions),
        wall_time=time.perf_counter() - start,
    )


def _bootstrap_ci(
    values: np.ndarray, rng: np.random.Generator, resamples: int
) -> tuple[float, float]:
    idx = rng.integers(0, values.shape[0], size=(resamples, values.shape[0]))
    means = values[idx].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5], method="linear")
    return float(low), float(high)


def is_excluded(result: SettingResult) -> bool:
    """Trained-model settings without measured degradation are not valid settings."""
    return result.model_kind == "trained_ingested" and not result.degraded


def aggregate(
    results: Iterable[SettingResult],
    ci_resamples: int = 1000,
    seed: int = 0,
) -> tuple[AggregateReport, ...]:
    """Group results by (method, slice_type) with bootstrap CIs on mean precision.

    The reduction is order-independent: results are sorted by setting id
    before resampling, and each group draws its own named random stream.
    """
    by_group: dict[tuple[str, str], list[SettingResult]] = {}
    excluded: dict[tuple[str, str], int] = {}
    for result in sorted(results, key=lambda r: (r.method, r.slice_type, r.setting_id)):
        key = (result.method, result.slice_type)
        if is_excluded(result):
            excluded[key] = excluded.get(key, 0) + 1
            continue
        by_group.setdefault(key, []).append(result)

    reports = []
    for (method, slice_type), group in sorted(by_group.items()):
        values = np.asarray([r.precision for r in group])
        if values.shape[0] == 0:
            raise EmptyGroup(f"no results for {method}/{slice_type}")
        rng = derive_rng(seed, "bootstrap", method, slice_type)
        ci_low, ci_high = _bootstrap_ci(values, rng, ci_resamples)
        mean = float(values.mean())
        per_alpha = []
        for alpha in sorted({r.alpha for r in group}):
            sub = [r.precision for r in group if r.alpha == alpha]
            per_alpha.append((float(alpha), float(np.mean(sub)), len(sub)))
        reports.append(
            AggregateReport(
                method=method,
                slice_type=slice_type,
                mean_precision=mean,
                ci_low=min(ci_low, mean),
                ci_high=max(ci_high, mean),
                n_settings=values.shape[0],
                n_excluded=excluded.get((method, slice_type), 0),
                per_alpha=tuple(per_alpha),
            )
        )
    return tuple(reports)


# --- report documents -------------------------------------------------------


def result_to_dict(result: SettingResult) -> dict:
    # wall_time is deliberately omitted: report files must be byte-identical
    # across reruns and worker counts.
    return {
        "setting_id": result.setting_id,
        "method": result.method,
        "slice_type": result.slice_type,
        "alpha": result.alpha,
        "model_kind": result.model_kind,
        "precisions": list(result.precisions),
        "best_slices": list(result.best_slices),
        "degraded": result.degraded,
        "success_at_beta": result.success_at_beta,
        "excluded": is_excluded(result),
    }


def result_from_dict(doc: Mapping) -> SettingResult:
    return SettingResult(
        setting_id=doc["setting_id"],
        method=doc["method"],
        slice_type=doc["slice_type"],
        alpha=float(doc["alpha"]),
        model_kind=doc["model_kind"],
        precisions=tuple(float(p) for p in doc["precisions"]),
        best_slices=tuple(int(b) for b in doc["best_slices"]),
        degraded=bool(doc["degraded"]),
        success_at_beta=bool(doc["success_at_beta"]),
        wall_time=0.0,
    )


def report_document(
    results: Sequence[SettingResult],
    reports: Sequence[AggregateReport],
    errors: Sequence[Mapping] = (),
    config: Mapping | None = None,
) -> dict:
    return {
        "config": dict(config or {}),
        "results": [result_to_dict(r) for r in sorted(results, key=lambda r: (r.setting_id, r.method))],
        "errors": sorted((dict(e) for e in errors), key=lambda e: (e["setting_id"], e["method"])),
        "aggregates": [
            {
                "method": rep.method,
                "slice_type": rep.slice_type,
                "mean_precision": rep.mean_precision,
                "ci_low": rep.ci_low,
                "ci_high": rep.ci_high,
                "n_settings": rep.n_settings,
                "n_excluded": rep.n_excluded,
                "per_alpha": [
                    {"alpha": a, "mean_precision": m, "n_settings": n}
                    for a, m, n in rep.per_alpha
                ],
            }
            for rep in sorted(reports, key=lambda r: (r.method, r.slice_type))
        ],
    }


def report_markdown(reports: Sequence[AggregateReport], k: int = 10) -> str:
    lines = [
        "# Slice discovery report",
        "",
        f"| method | slice type | mean p@{k} | 95% CI | settings | excluded |",
        "|---|---|---|---|---|---|",
    ]
    for rep in sorted(reports, key=lambda r: (r.method, r.slice_type)):
        lines.append(
            f"| {rep.method} | {rep.slice_type} | {rep.mean_precision:.4f} "
            f"| [{rep.ci_low:.4f}, {rep.ci_high:.4f}] | {rep.n_settings} "
            f"| {rep.n_excluded} |"
        )
    lines.append("")
    return "\n".join(lines)
