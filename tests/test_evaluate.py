"""Evaluation harness: precision-at-k, degradation, run/aggregate."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from slicekit import (
    FitConfig,
    LabeledSplit,
    MixtureSDM,
    SliceScores,
    aggregate,
    check_degradation,
    make_synthetic_setting,
    precision_at_k,
    run_setting,
)
from slicekit.errors import EmptyGroup, KTooLarge
from slicekit.evaluate import (
    ErrorRow,
    SettingResult,
    is_excluded,
    read_report_document,
    report_document,
    report_markdown,
    score_setting,
)
from slicekit.seeding import derive_rng

from planted import natural_model, planted_setting


class TestPrecisionAtK:
    def test_perfect_ranking(self):
        truth = np.array([1, 1, 1, 0, 0, 0])
        assert precision_at_k(truth.astype(float), truth, 3) == 1.0

    def test_empty_slice(self):
        scores = np.linspace(1, 0, 6)
        assert precision_at_k(scores, np.zeros(6), 3) == 0.0

    def test_hand_enumerated_case(self):
        scores = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])
        truth = np.array([1, 0, 1, 0, 0, 1])
        # top-3 = examples {0, 1, 2}; members {0, 2} -> 2/3
        assert precision_at_k(scores, truth, 3) == pytest.approx(2 / 3)

    def test_ties_break_to_lower_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        truth = np.array([1, 1, 0, 0])
        assert precision_at_k(scores, truth, 2) == 1.0

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            precision_at_k(np.ones(3), np.ones(3), 4)

    @hsettings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 20))
    def test_monotone_transform_invariance(self, seed, k):
        rng = np.random.default_rng(seed)
        scores = rng.random(50)
        truth = rng.integers(2, size=50)
        base = precision_at_k(scores, truth, k)
        for transform in (lambda x: 3 * x + 1, np.exp, lambda x: x**3):
            assert precision_at_k(transform(scores), truth, k) == base


class TestCheckDegradation:
    def split(self, acc_in, acc_out, m=1000):
        labels = np.zeros(2 * m, dtype=int)
        slices = np.concatenate([np.ones(m), np.zeros(m)]).astype(int)
        preds = np.zeros(2 * m, dtype=int)
        preds[: int(m * (1 - acc_in))] = 1          # in-slice wrong
        preds[m : m + int(m * (1 - acc_out))] = 1   # out-slice wrong
        return LabeledSplit(
            labels=labels,
            predictions=preds,
            slices=slices[:, None],
            slice_names=("s",),
            num_classes=2,
        )

    def test_large_gap_detected(self):
        assert check_degradation(self.split(0.40, 0.75)) is True

    def test_equal_accuracy(self):
        assert check_degradation(self.split(0.6, 0.6)) is False

    def test_boundary_gap_is_not_degraded(self):
        # gap of exactly 10pp fails the strict inequality
        assert check_degradation(self.split(0.50, 0.60)) is False

    def test_empty_group(self):
        split = self.split(0.5, 0.5)
        full = LabeledSplit(
            labels=split.labels,
            predictions=split.predictions,
            slices=np.ones((split.n, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        with pytest.raises(EmptyGroup):
            check_degradation(full)


class TestRunSetting:
    def test_identity_sdm_upper_bound(self):
        setting = make_synthetic_setting(
            "rare", 0.1, n=600, d=4, seed=1,
            model=natural_model(seed=1),
        )
        truth = setting.test_split.slices[:, 0].astype(float)
        identity = SliceScores(scores=truth[:, None], method="identity")
        precisions, best = score_setting(identity, setting.test_split, k=10)
        assert precisions == (1.0,)
        assert best == (0,)

    def test_random_scores_near_prevalence(self):
        setting = make_synthetic_setting(
            "correlation", 0.6, n=1000, d=4, seed=2,
            model=natural_model(seed=2),
        )
        split = setting.test_split
        prevalence = split.slices[:, 0].mean()
        rng = derive_rng(3, "null")
        values = [
            score_setting(
                SliceScores(scores=rng.random((split.n, 1)), method="null"),
                split, k=10,
            )[0][0]
            for _ in range(1000)
        ]
        band = 3 * np.sqrt(prevalence * (1 - prevalence) / 10) / np.sqrt(1000)
        assert abs(np.mean(values) - prevalence) <= 3 * band + 0.01

    def test_planted_recovery_through_harness(self):
        setting = planted_setting(
            2000, 16, seed=3, model=natural_model(seed=3)
        )
        result = run_setting(
            setting, "domino", FitConfig(seed=3), k=10, setting_id="planted-3"
        )
        assert result.precisions[0] == 1.0
        assert result.degraded is True
        assert result.success_at_beta is True
        assert result.method == "domino"

    def test_scores_come_from_validation_fit_only(self):
        setting = planted_setting(
            800, 8, seed=4, model=natural_model(seed=4)
        )
        cfg = FitConfig(k_bar=8, k_hat=3, seed=4)
        via_harness = run_setting(setting, "domino", cfg, k=10)
        sdm = MixtureSDM(cfg).fit(setting.valid_emb, setting.valid_split)
        scores = sdm.transform(setting.test_emb, setting.test_split)
        manual, _ = score_setting(scores, setting.test_split, k=10)
        assert via_harness.precisions == manual


def make_result(setting_id, method="domino", slice_type="rare", alpha=0.1,
                precision=0.5, model_kind="synthetic", degraded=True):
    return SettingResult(
        setting_id=setting_id,
        method=method,
        slice_type=slice_type,
        alpha=alpha,
        model_kind=model_kind,
        precisions=(precision,),
        best_slices=(0,),
        degraded=degraded,
        success_at_beta=precision > 0.5,
    )


class TestAggregate:
    def test_single_result_degenerate_ci(self):
        reports = aggregate([make_result("a", precision=0.7)])
        assert len(reports) == 1
        rep = reports[0]
        assert rep.mean_precision == pytest.approx(0.7)
        assert rep.ci_low == pytest.approx(0.7)
        assert rep.ci_high == pytest.approx(0.7)

    def test_constant_sample_zero_width(self):
        results = [make_result(str(i), precision=0.4) for i in range(20)]
        rep = aggregate(results)[0]
        assert rep.ci_low == rep.ci_high == pytest.approx(0.4)

    def test_shared_index_bootstrap_oracle(self):
        rng = np.random.default_rng(8)
        values = rng.random(200)
        results = [
            make_result(f"s{i:03d}", precision=float(v)) for i, v in enumerate(values)
        ]
        rep = aggregate(results, seed=4)[0]

        # oracle: same resample indices from the same named stream, quantiles
        # computed by hand with linear interpolation
        oracle_rng = derive_rng(4, "bootstrap", "domino", "rare")
        idx = oracle_rng.integers(0, 200, size=(1000, 200))
        means = np.sort(values[idx].mean(axis=1))

        def quantile(sorted_vals, q):
            pos = q * (len(sorted_vals) - 1)
            lo = int(np.floor(pos))
            hi = int(np.ceil(pos))
            frac = pos - lo
            return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac

        assert rep.ci_low == pytest.approx(quantile(means, 0.025), abs=1e-12)
        assert rep.ci_high == pytest.approx(quantile(means, 0.975), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        results = [
            make_result(f"s{i}", precision=float(rng.random())) for i in range(30)
        ]
        rep_a = aggregate(results, seed=1)
        shuffled = list(results)
        rng.shuffle(shuffled)
        rep_b = aggregate(shuffled, seed=1)
        assert rep_a == rep_b

    def test_exclusion_of_undegraded_trained_settings(self):
        results = [
            make_result("a", model_kind="trained_ingested", degraded=False, precision=1.0),
            make_result("b", model_kind="trained_ingested", degraded=True, precision=0.5),
            make_result("c", model_kind="synthetic", degraded=False, precision=0.5),
        ]
        assert is_excluded(results[0]) and not is_excluded(results[1])
        rep = aggregate(results)[0]
        assert rep.n_settings == 2
        assert rep.n_excluded == 1
        assert rep.mean_precision == pytest.approx(0.5)

    def test_per_alpha_breakdown(self):
        results = [
            make_result("a", alpha=0.2, precision=0.2),
            make_result("b", alpha=0.2, precision=0.4),
            make_result("c", alpha=0.6, precision=1.0),
        ]
        rep = aggregate(results)[0]
        assert rep.per_alpha == (
            (0.2, pytest.approx(0.3), 2),
            (0.6, pytest.approx(1.0), 1),
        )


class TestReportDocuments:
    def test_document_is_sorted_and_complete(self):
        results = [
            make_result("b", method="confusion"),
            make_result("a", method="domino"),
        ]
        reports = aggregate(results)
        doc = report_document(results, reports, errors=[ErrorRow("z", "domino", "missing")])
        assert [r["setting_id"] for r in doc["results"]] == ["a", "b"]
        assert "wall_time" not in doc["results"][0]
        assert doc["errors"] == [{"setting_id": "z", "method": "domino", "error": "missing"}]
        assert {a["method"] for a in doc["aggregates"]} == {"domino", "confusion"}

    def test_read_back_without_the_cli(self):
        results = [
            make_result("b", method="confusion", model_kind="trained_ingested", degraded=False),
            make_result("a", alpha=0.05, precision=0.9),
        ]
        errors = [ErrorRow("z", "domino", "missing")]
        config = {"k": 5, "seed": 3, "beta": 0.5}
        doc = report_document(results, aggregate(results), errors=errors, config=config)
        assert read_report_document(doc) == (results[::-1], errors, config)

    @pytest.mark.parametrize(
        "change, message",
        [({"precisions": ()}, "precisions must be non-empty"),
         ({"precisions": (0.5, 1.5)}, "precisions must be non-empty and lie in [0, 1]"),
         ({"precisions": (-0.1,)}, "precisions must be non-empty and lie in [0, 1]"),
         ({"precisions": (float("nan"),)}, "precisions must be non-empty and lie in [0, 1]"),
         ({"alpha": float("nan")}, "alpha must be a finite number, got nan"),
         ({"slice_type": "rarest"}, "slice_type must be one of rare, correlation, noisy_label"),
         ({"model_kind": "trained"}, "model_kind must be one of trained_ingested, synthetic")],
        ids=["precisions-empty", "precision-above-one", "precision-negative", "precision-nan",
             "alpha-nan", "slice-type", "model-kind"],
    )
    def test_setting_result_rejects_out_of_range_fields(self, change, message):
        fields = {**dataclasses.asdict(make_result("a")), **change}
        with pytest.raises(ValueError, match=re.escape(message)):
            SettingResult(**fields)

    def test_markdown_table(self):
        reports = aggregate([make_result("a", precision=0.25)])
        text = report_markdown(reports)
        assert "| domino | rare | 0.2500" in text
