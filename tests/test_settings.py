"""Setting generation: correlation counts, subsampling, synthetic models."""

import re

import click
import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st
from scipy import integrate, special

from slicekit import (
    BaseTable,
    EmbeddingMatrix,
    LabeledSplit,
    SyntheticModelSpec,
    build_correlation_setting,
    build_noisy_setting,
    build_rare_setting,
    correlation_counts,
    make_synthetic_setting,
    solve_beta,
    synth_predictions,
)
from slicekit.errors import (
    AlphaOutOfRange,
    InfeasibleCounts,
    InsufficientBase,
    NoConvergence,
    NotBinary,
    RowCountMismatch,
)
from slicekit.cli import build_config
from slicekit.settings import GenConfig, SynthConfig, apply_ingested_predictions

from planted import NATURAL_RATES, gaussian_split, natural_model, planted_setting


def materialize(counts):
    """Binary arrays realizing the cell counts, for the Pearson oracle."""
    n11, n10, n01, n00 = counts
    y = np.concatenate([np.ones(n11 + n10), np.zeros(n01 + n00)])
    c = np.concatenate([np.ones(n11), np.zeros(n10), np.ones(n01), np.zeros(n00)])
    return y, c


def implied_correlation(counts):
    """Closed-form phi coefficient of binary arrays with these cell counts."""
    n11, n10, n01, n00 = counts
    n = n11 + n10 + n01 + n00
    ny1, nc1 = n11 + n10, n11 + n01
    return (n * n11 - ny1 * nc1) / (np.sqrt(ny1 * (n - ny1)) * np.sqrt(nc1 * (n - nc1)))


class TestCorrelationCounts:
    def test_independence_balanced(self):
        assert correlation_counts(0.0, 0.5, 0.5, 100) == (25, 25, 25, 25)

    def test_strong_correlation_cells_and_pearson(self):
        counts = correlation_counts(0.8, 0.5, 0.5, 1000)
        assert counts == (450, 50, 50, 450)
        y, c = materialize(counts)
        r = np.corrcoef(y, c)[0, 1]
        assert abs(r - 0.8) <= 1e-12

    def test_infeasible_cell(self):
        with pytest.raises(InfeasibleCounts):
            correlation_counts(0.8, 0.05, 0.9, 100)

    def test_precondition_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            correlation_counts(1.0, 0.5, 0.5, 100)

    @hsettings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(-0.9, 0.9),
        mu_a=st.floats(0.1, 0.9),
        mu_b=st.floats(0.1, 0.9),
        n=st.integers(20, 5000),
    )
    def test_materialized_equals_implied(self, alpha, mu_a, mu_b, n):
        try:
            counts = correlation_counts(alpha, mu_a, mu_b, n)
        except InfeasibleCounts:
            return
        y, c = materialize(counts)
        if y.std() == 0 or c.std() == 0:
            return
        r = np.corrcoef(y, c)[0, 1]
        assert abs(r - implied_correlation(counts)) <= 1e-12

    @hsettings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(-0.9, 0.9),
        mu_a=st.floats(0.1, 0.9),
        mu_b=st.floats(0.1, 0.9),
        n=st.integers(20, 5000),
    )
    def test_marginal_identities(self, alpha, mu_a, mu_b, n):
        try:
            counts = correlation_counts(alpha, mu_a, mu_b, n)
        except InfeasibleCounts:
            return
        n11, n10, n01, n00 = counts
        assert n11 + n10 == int(np.floor(mu_a * n + 0.5))
        assert n11 + n01 == int(np.floor(mu_b * n + 0.5))
        assert n11 + n10 + n01 + n00 == n

    def test_rounding_error_bound_at_balanced_marginals(self):
        # At mu_a = mu_b = 0.5 the rounding perturbation is bounded by 2/n.
        for alpha in np.linspace(-0.8, 0.8, 17):
            for n in (100, 500, 2000):
                counts = correlation_counts(float(alpha), 0.5, 0.5, n)
                assert abs(implied_correlation(counts) - alpha) <= 2.0 / n + 1e-12


def balanced_base(n_base, seed=0):
    """Base table with all four (y, c) cells equally populated."""
    y = (np.arange(n_base) % 2 == 1).astype(int)
    c = ((np.arange(n_base) // 2) % 2 == 1).astype(int)
    table = BaseTable(
        names=("target", "tube"),
        values=np.column_stack([y, c]),
        target="target",
        attribute="tube",
    )
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(rng.standard_normal((n_base, 6)))
    return table, emb


class TestCorrelationSetting:
    def test_empirical_correlation_near_target(self):
        base, emb = balanced_base(10_000)
        setting = build_correlation_setting(base, emb, 0.6, 0.5, 0.5, 2000, seed=3)
        split = setting.valid_split
        y = split.labels
        c = np.bitwise_xor(y, split.slices[:, 0])  # slice = 1[c != y]
        r = np.corrcoef(y, c)[0, 1]
        assert abs(r - 0.6) <= 0.02

    def test_independence_prevalence(self):
        base, emb = balanced_base(10_000)
        setting = build_correlation_setting(base, emb, 0.0, 0.5, 0.5, 2000, seed=4)
        prevalence = np.concatenate(
            [setting.valid_split.slices[:, 0], setting.test_split.slices[:, 0]]
        ).mean()
        # mu_a (1 - mu_b) + mu_b (1 - mu_a) = 0.5; counts are deterministic
        assert abs(prevalence - 0.5) <= 0.05

    def test_determinism(self):
        base, emb = balanced_base(4000)
        a = build_correlation_setting(base, emb, 0.4, 0.5, 0.5, 800, seed=11)
        b = build_correlation_setting(base, emb, 0.4, 0.5, 0.5, 800, seed=11)
        assert np.array_equal(a.valid_emb.values, b.valid_emb.values)
        assert np.array_equal(a.test_split.labels, b.test_split.labels)

    def test_insufficient_base(self):
        base, emb = balanced_base(100)
        with pytest.raises(InsufficientBase):
            build_correlation_setting(base, emb, 0.6, 0.5, 0.5, 90, seed=0)


def subclass_base(n_base, attr_rate=0.2, seed=0):
    """Base whose attribute marks a subclass of the positive class."""
    rng = np.random.default_rng(seed)
    y = (np.arange(n_base) % 2 == 1).astype(int)
    c = np.zeros(n_base, dtype=int)
    pos = np.flatnonzero(y == 1)
    c[rng.choice(pos, size=int(attr_rate * pos.size), replace=False)] = 1
    table = BaseTable(
        names=("target", "sub"),
        values=np.column_stack([y, c]),
        target="target",
        attribute="sub",
    )
    emb = EmbeddingMatrix(rng.standard_normal((n_base, 5)))
    return table, emb


class TestRareSetting:
    def test_slice_count_matches_alpha(self):
        base, emb = subclass_base(20_000)
        setting = build_rare_setting(base, emb, 0.05, 2000, seed=1)
        slices = np.concatenate(
            [setting.valid_split.slices[:, 0], setting.test_split.slices[:, 0]]
        )
        labels = np.concatenate(
            [setting.valid_split.labels, setting.test_split.labels]
        )
        assert slices.sum() == 50  # alpha * n_pos with n_pos = 1000
        assert (slices[labels == 0] == 0).all()

    def test_alpha_out_of_range(self):
        base, emb = subclass_base(2000)
        with pytest.raises(AlphaOutOfRange):
            build_rare_setting(base, emb, 0.5, 500, seed=0)

    def test_determinism(self):
        base, emb = subclass_base(5000)
        a = build_rare_setting(base, emb, 0.1, 800, seed=2)
        b = build_rare_setting(base, emb, 0.1, 800, seed=2)
        assert np.array_equal(a.valid_emb.values, b.valid_emb.values)


class TestNoisySetting:
    def test_flip_count_binomial_band(self):
        base, emb = subclass_base(40_000, attr_rate=0.4)
        setting = build_noisy_setting(base, emb, 0.3, 10_000, seed=6)
        n_slice = int(
            setting.valid_split.slices[:, 0].sum() + setting.test_split.slices[:, 0].sum()
        )
        flipped = setting.provenance["n_flipped"]
        center = 0.3 * n_slice
        band = 3 * np.sqrt(n_slice * 0.3 * 0.7)
        assert abs(flipped - center) <= band

    def test_non_slice_rows_never_flipped(self):
        base, emb = subclass_base(10_000)
        setting = build_noisy_setting(base, emb, 0.3, 2000, seed=7)
        audit = setting.provenance["original_labels"]
        flipped = 0
        for part, split in (
            ("valid", setting.valid_split),
            ("test", setting.test_split),
        ):
            original = np.asarray(audit[part])
            changed = original != split.labels
            assert (split.slices[changed, 0] == 1).all()
            flipped += int(changed.sum())
        assert flipped == setting.provenance["n_flipped"]

    def test_alpha_out_of_range(self):
        base, emb = subclass_base(2000)
        with pytest.raises(AlphaOutOfRange):
            build_noisy_setting(base, emb, 0.5, 500, seed=0)

    def test_near_zero_alpha_rarely_flips(self):
        # Bernoulli limit: at alpha = 0.0101 the expected flip count over the
        # slice is about 0.01 * slice size; a 3-sigma binomial band keeps it
        # in the single digits for a few hundred slice members.
        base, emb = subclass_base(20_000)
        setting = build_noisy_setting(base, emb, 0.0101, 4000, seed=11)
        n_slice = int(
            setting.valid_split.slices[:, 0].sum()
            + setting.test_split.slices[:, 0].sum()
        )
        bound = 0.0101 * n_slice + 3 * np.sqrt(n_slice * 0.0101 * (1 - 0.0101))
        assert setting.provenance["n_flipped"] <= bound


class TestSolveBeta:
    def test_symmetric_rate(self):
        a, b = solve_beta(0.5, 5.0)
        assert a == pytest.approx(2.5, abs=1e-12)
        assert b == pytest.approx(2.5, abs=1e-12)

    def test_rate_against_quadrature_oracle(self):
        a, b = solve_beta(0.75, 5.0)
        norm = special.gamma(a) * special.gamma(b) / special.gamma(a + b)
        density = lambda x: x ** (a - 1) * (1 - x) ** (b - 1) / norm
        survival, _ = integrate.quad(density, 0.5, 1.0)
        assert abs(survival - 0.75) <= 1e-6
        assert a + b == pytest.approx(5.0)

    def test_extreme_rate_clamped(self):
        a, b = solve_beta(0.9999, 5.0)
        survival = 1.0 - special.betainc(a, b, 0.5)
        assert abs(survival - 0.999) <= 1e-6

    def test_solutions_are_cached_and_failures_are_not(self, monkeypatch):
        solve_beta.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(special, "betainc", lambda a, b, x: np.nan)
            with pytest.raises(NoConvergence):
                solve_beta(0.6, 7.0)
        first = solve_beta(0.6, 7.0)
        assert solve_beta(0.6, 7.0) is first
        assert solve_beta.cache_info().hits == 1
        assert 1.0 - special.betainc(*first, 0.5) == pytest.approx(0.6, abs=1e-6)

    @hsettings(max_examples=30, deadline=None)
    @given(rate=st.floats(0.01, 0.99), kappa=st.floats(0.5, 30.0))
    def test_solution_hits_rate(self, rate, kappa):
        a, b = solve_beta(rate, kappa)
        survival = 1.0 - special.betainc(a, b, 0.5)
        assert abs(survival - rate) <= 1e-6
        assert a + b == pytest.approx(kappa)


def four_cell_split(m_per_cell, seed=0):
    """Split with m examples in every (label, slice) cell."""
    labels = np.tile([1, 1, 0, 0], m_per_cell)
    slices = np.tile([1, 0, 1, 0], m_per_cell)
    return LabeledSplit(
        labels=labels,
        predictions=labels.copy(),
        slices=slices[:, None],
        slice_names=("planted",),
        num_classes=2,
    )


class TestSynthPredictions:
    @pytest.mark.parametrize(
        "rates, message",
        [({"sens_in": 7.5}, "sens_in must be a number in [0, 1], got 7.5"),
         ({"spec_out": -2}, "spec_out must be a number in [0, 1], got -2.0"),
         ({"spec_in": 1.0000001}, "spec_in must be a number in [0, 1], got 1.0000001"),
         ({"sens_out": -1e-9}, "sens_out must be a number in [0, 1], got -1e-09")],
        ids=["above", "below", "just-above", "just-below"],
    )
    def test_rates_outside_the_unit_interval_rejected(self, rates, message):
        # they were clamped to 0.999 and 0.001, so such a config generated silently
        model = {**NATURAL_RATES, **rates}
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticModelSpec(**model)
        synth = {"alphas": [0.05], "slice_types": ["rare"], "model": model}
        gen = {"slice_type": "rare", "alpha": 0.05, "target": "t", "attribute": "a", "n": 100,
               "model": model}
        for cls, values, label in ((SynthConfig, synth, "synth"), (GenConfig, gen, "gen")):
            with pytest.raises(click.UsageError, match=re.escape(f"bad {label} configuration: {message}")):
                build_config(cls, values, label)

    def test_rates_of_zero_and_one_are_clamped(self):
        spec = SyntheticModelSpec(sens_in=0, spec_in=1, sens_out=1.0, spec_out=0.0)
        assert (spec.sens_in, spec.spec_in, spec.sens_out, spec.spec_out) == (0.001, 0.999, 0.999, 0.001)

    def test_out_of_slice_specificity_band(self):
        # 20000 out-of-slice negatives at spec_out = 0.75
        labels = np.zeros(20_000, dtype=int)
        split = LabeledSplit(
            labels=labels,
            predictions=labels.copy(),
            slices=np.zeros((20_000, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        out = synth_predictions(split, natural_model(seed=5))
        specificity = (out.predictions == 0).mean()
        assert 0.72 <= specificity <= 0.78

    def test_rates_per_cell(self):
        split = four_cell_split(5000)
        out = synth_predictions(split, natural_model(seed=9))
        y, s, yh = out.labels, out.slices[:, 0], out.predictions
        sens_in = yh[(y == 1) & (s == 1)].mean()
        spec_out = (yh[(y == 0) & (s == 0)] == 0).mean()
        band = 3 * np.sqrt(0.4 * 0.6 / 5000)
        assert abs(sens_in - 0.4) <= band
        band = 3 * np.sqrt(0.75 * 0.25 / 5000)
        assert abs(spec_out - 0.75) <= band

    def test_probs_consistent_with_predictions(self):
        split = four_cell_split(100)
        out = synth_predictions(split, natural_model(seed=3))
        assert np.array_equal(out.predictions, np.argmax(out.prediction_probs, axis=1))

    def test_not_binary(self):
        split = LabeledSplit(
            labels=[0, 1, 2],
            predictions=[0, 1, 2],
            slices=[[1], [0], [0]],
            slice_names=("s",),
            num_classes=3,
        )
        with pytest.raises(NotBinary):
            synth_predictions(split, natural_model())


class TestSynthEmbeddings:
    def draw(self, offset_norm, seed, d=8):
        offset = np.zeros(d)
        offset[1] = offset_norm
        groups = ((0, 0, 400), (1, 0, 400), (1, 1, 400))
        return gaussian_split(np.zeros((2, d)), offset, 1.0, groups, seed)

    def test_zero_offset_identical_distributions(self):
        emb, split = self.draw(0.0, seed=1)
        s = split.slices[:, 0] == 1
        in_class1 = split.labels == 1
        mean_gap = np.abs(
            emb.values[s & in_class1].mean(axis=0)
            - emb.values[~s & in_class1].mean(axis=0)
        ).max()
        assert mean_gap < 0.2  # both groups share N(mean_1, I)

    def test_four_sigma_offset_bayes_separation(self):
        # Optimal threshold on the offset axis separates slice members with
        # accuracy Phi(2) ~ 0.977 in the closed-form Gaussian overlap oracle.
        emb, split = self.draw(4.0, seed=2)
        in_class1 = split.labels == 1
        s = split.slices[in_class1, 0]
        x = emb.values[in_class1, 1]
        predicted = (x > 2.0).astype(int)
        accuracy = (predicted == s).mean()
        assert accuracy >= 0.97

    def test_determinism(self):
        a, _ = self.draw(4.0, seed=3)
        b, _ = self.draw(4.0, seed=3)
        assert np.array_equal(a.values, b.values)


class TestSynthConfigGrid:
    """A grid's rules hold for every caller of ``SynthConfig``, not only ``slicekit synth``."""

    @pytest.mark.parametrize(
        "grid",
        [{"seeds": 0}, {"seeds": []}, {"alphas": {"rare": []}}, {"slice_types": []}],
        ids=["no-replicates", "no-replicate-ids", "no-alphas", "no-slice-types"],
    )
    def test_empty_grid_raises(self, grid):
        with pytest.raises(ValueError, match="^synth grid is empty$"):
            SynthConfig(**{"alphas": [0.05], "slice_types": ["rare"], "model": natural_model(),
                           **grid})

    @pytest.mark.parametrize(
        "grid",
        [{"alphas": [0.05, 0.05]}, {"seeds": [0, 0]}, {"alphas": [0.05, 0.05000001]}],
        ids=["alphas", "seeds", "alphas-equal-under-g"],
    )
    def test_repeated_setting_id_raises(self, grid):
        with pytest.raises(ValueError, match="^synth grid repeats setting ids: rare_a0.05_r0$"):
            SynthConfig(**{"alphas": [0.05], "slice_types": ["rare"], "model": natural_model(),
                           **grid})


class TestApplyIngestedPredictions:
    """Ingested predictions hold one row per base-table row, for every caller."""

    @pytest.fixture()
    def setting(self):
        # a synthetic setting at n=200 is subsampled from a 1,000-row base
        return make_synthetic_setting("rare", 0.1, n=200, d=4, seed=0)

    def test_one_row_per_base_row_is_applied(self, setting):
        predictions = np.arange(1000) % 2
        ingested = apply_ingested_predictions(setting, predictions, n_base=1000)
        rows = setting.provenance["base_rows"]["valid"]
        assert np.array_equal(ingested.valid_split.predictions, predictions[rows])
        assert ingested.model_kind == "trained_ingested"

    def test_another_row_count_raises_even_if_it_covers_the_sampled_rows(self, setting):
        rows = setting.provenance["base_rows"]
        covering = max(rows["valid"] + rows["test"]) + 1
        assert covering < 1000
        for count in (covering, 1007):
            with pytest.raises(RowCountMismatch, match=f"^predictions have {count} rows, base table has 1000$"):
                apply_ingested_predictions(setting, np.zeros(count, dtype=int), n_base=1000)


class TestSyntheticSettingPipeline:
    @pytest.mark.parametrize(
        "size, message",
        [({"d": 1}, "d must be at least 2, got 1"),
         ({"sigma": 0.0}, "sigma must be positive, got 0.0"),
         ({"sigma": -1.0}, "sigma must be positive, got -1.0")],
        ids=["d-1", "sigma-0", "sigma-negative"],
    )
    def test_unusable_base_size_raises(self, size, message):
        # d=1 leaves no dimension 1 for the slice offset; sigma=0 zeroes every embedding
        with pytest.raises(ValueError, match=message):
            make_synthetic_setting("rare", 0.1, **{"n": 100, "d": 4, "seed": 0, **size})

    def test_setting_is_degraded_with_natural_rates(self):
        setting = make_synthetic_setting(
            "rare", 0.1, n=2000, d=8, seed=0,
            model=natural_model(seed=0),
        )
        split = setting.test_split
        correct = split.predictions == split.labels
        s = split.slices[:, 0] == 1
        assert correct[~s].mean() - correct[s].mean() > 0.1

    def test_planted_setting_slice_spans_classes(self):
        setting = planted_setting(1000, 8, seed=0, slice_frac=0.2)
        split = setting.valid_split
        s = split.slices[:, 0] == 1
        assert 0 < split.labels[s].mean() < 1  # both classes in the slice

    def test_generators_are_pure(self):
        a = make_synthetic_setting(
            "noisy_label", 0.2, n=400, d=4, seed=12,
            model=natural_model(seed=1),
        )
        b = make_synthetic_setting(
            "noisy_label", 0.2, n=400, d=4, seed=12,
            model=natural_model(seed=1),
        )
        assert np.array_equal(a.valid_split.predictions, b.valid_split.predictions)
        assert np.array_equal(a.test_emb.values, b.test_emb.values)
