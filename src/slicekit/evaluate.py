"""Evaluation harness: fit on validation, score test, aggregate with CIs.

For every setting the chosen method is fit on the validation split only and
applied to the test split; each ground-truth slice is credited with the best
precision-at-k over all discovered slices. Group means carry seeded
percentile-bootstrap 95% confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, make_dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .baselines import ConfusionSDM, GeorgeSDM, MultiaccuracySDM, SpotlightSDM
from .data import MODEL_KINDS, SLICE_TYPES, LabeledSplit, SliceScores, SliceSetting, duplicates
from .errors import EmptyGroup, KTooLarge, SchemaError
from .fileio import from_json
from .mixture import MixtureSDM
from .seeding import derive_rng

# The single method table, in the order the CLI lists methods: each name's
# SDM class, which names its config dataclass in ``Config``.
METHODS: dict[str, type] = {
    "domino": MixtureSDM,
    "confusion": ConfusionSDM,
    "spotlight": SpotlightSDM,
    "multiacc": MultiaccuracySDM,
    "george": GeorgeSDM,
}


def check_method(method: str) -> None:
    """Raise ValueError unless ``method`` names a registered method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; valid methods: {', '.join(METHODS)}")


def make_sdm(method: str, cfg: object = None):
    """Instantiate the named method; without ``cfg`` it builds its default ``Config()``."""
    check_method(method)
    return METHODS[method](cfg)


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


_DEGRADATION_PP = 10.0  # accuracy gap, in percentage points
_CI_RESAMPLES = 1000


def check_degradation(split: LabeledSplit, slice_col: int = 0) -> bool:
    """Whether out-of-slice accuracy beats in-slice accuracy by more than 10 points."""
    members = split.slices[:, slice_col] == 1
    if not members.any() or members.all():
        raise EmptyGroup("degradation needs both slice members and non-members")
    correct = split.predictions == split.labels
    acc_in = float(correct[members].mean())
    acc_out = float(correct[~members].mean())
    return acc_out - acc_in > _DEGRADATION_PP / 100.0


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

    def __post_init__(self) -> None:
        if not self.precisions or not all(0.0 <= p <= 1.0 for p in self.precisions):
            raise ValueError(f"precisions must be non-empty and lie in [0, 1], got {self.precisions!r}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite number, got {self.alpha!r}")
        for name, known in (("slice_type", SLICE_TYPES), ("model_kind", MODEL_KINDS)):
            if getattr(self, name) not in known:
                raise ValueError(f"{name} must be one of {', '.join(known)}, got {getattr(self, name)!r}")

    @property
    def precision(self) -> float:
        """Setting-level precision: mean over ground-truth slices."""
        return float(np.mean(self.precisions))


@dataclass(frozen=True)
class ErrorRow:
    """A setting/method pair that failed, with the failure's message."""

    setting_id: str
    method: str
    error: str


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
    )


def _bootstrap_ci(values: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
    idx = rng.integers(0, values.shape[0], size=(_CI_RESAMPLES, values.shape[0]))
    means = values[idx].mean(axis=1)
    low, high = np.percentile(means, [2.5, 97.5], method="linear")
    return float(low), float(high)


def is_excluded(result: SettingResult) -> bool:
    """Trained-model settings without measured degradation are not valid settings."""
    return result.model_kind == "trained_ingested" and not result.degraded


def aggregate(results: Iterable[SettingResult], seed: int = 0) -> tuple[AggregateReport, ...]:
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
        rng = derive_rng(seed, "bootstrap", method, slice_type)
        ci_low, ci_high = _bootstrap_ci(values, rng)
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
    return {**asdict(result), "excluded": is_excluded(result)}


# The report config fields ``report`` reads back: the ``k`` of precision@k and the bootstrap seed.
_REPORT_KEYS = make_dataclass("ReportKeys", [("k", int), ("seed", int)], frozen=True)
# A report document's rows; a malformed one is named by its index, such as ``results[2]``.
_REPORT_ROWS = make_dataclass("ReportRows", [("errors", list[ErrorRow]), ("results", list[SettingResult])])


def read_report_document(doc: Any) -> tuple[list[SettingResult], list[ErrorRow], dict]:
    """The results, errors and config of a ``report_document``; SchemaError if malformed.

    The config, returned as it is, holds the ``k`` and bootstrap ``seed`` the report was built with.
    """
    try:
        config = doc["config"]
        keys = {name: config[name] for name in ("k", "seed")} if isinstance(config, dict) else config
        if from_json(_REPORT_KEYS, keys, "config").k < 1:
            raise ValueError(f"k must be at least 1, got {config['k']}")
        # a row's ``excluded`` is derived from its other keys, so it is not a field
        results = [{k: v for k, v in r.items() if k != "excluded"} if isinstance(r, dict) else r
                   for r in doc["results"]]
        rows = from_json(_REPORT_ROWS, {"errors": doc.get("errors", []), "results": results}, "report document")
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad report document: {type(exc).__name__}: {exc}") from exc
    if not rows.results:
        raise SchemaError("no results to aggregate")
    repeated = duplicates([f"{r.setting_id} [{r.method}]" for r in rows.results])
    if repeated:
        raise SchemaError(f"rows repeat setting/method pairs: {', '.join(repeated)}")
    return rows.results, rows.errors, config


def report_document(
    results: Sequence[SettingResult],
    reports: Sequence[AggregateReport],
    errors: Sequence[ErrorRow] = (),
    config: Mapping | None = None,
) -> dict:
    return {
        "config": dict(config or {}),
        "results": [result_to_dict(r) for r in sorted(results, key=lambda r: (r.setting_id, r.method))],
        "errors": [asdict(e) for e in sorted(errors, key=lambda e: (e.setting_id, e.method))],
        "aggregates": [
            {
                **asdict(rep),
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
