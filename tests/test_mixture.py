"""Error-aware mixture model: reduction, init, EM steps, selection, scoring."""

from dataclasses import fields

import numpy as np
import pytest

from slicekit import (
    EmbeddingMatrix,
    FitConfig,
    LabeledSplit,
    MixtureParams,
    Responsibilities,
    e_step,
    fit,
    init_confusion,
    m_step,
    make_synthetic_setting,
    reduce_dim,
    score,
    select_slices,
)
from slicekit.errors import DimensionMismatch, RowCountMismatch, TooFewSlices
from slicekit.settings import synth_predictions

from planted import gaussian_split, natural_model, planted_setting


def simple_split(labels, predictions, num_classes=2):
    labels = np.asarray(labels)
    return LabeledSplit(
        labels=labels,
        predictions=np.asarray(predictions),
        slices=np.zeros((labels.shape[0], 1), dtype=int),
        slice_names=("s",),
        num_classes=num_classes,
    )


def soft_split(labels, probs):
    """A binary split whose predictions are the argmax of ``probs``."""
    probs = np.asarray(probs, float)
    return LabeledSplit(
        labels=np.asarray(labels),
        predictions=probs.argmax(axis=1),
        slices=np.zeros((probs.shape[0], 1), dtype=int),
        slice_names=("s",),
        num_classes=probs.shape[1],
        prediction_probs=probs,
    )


def random_instance(seed, n=60, d=3, num_classes=2):
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(rng.standard_normal((n, d)))
    labels = rng.integers(num_classes, size=n)
    preds = rng.integers(num_classes, size=n)
    return emb, simple_split(labels, preds, num_classes)


class TestConfigDefaults:
    def test_fit_config_defaults(self):
        cfg = FitConfig()
        assert cfg.k_bar == 25
        assert cfg.k_hat == 5
        assert cfg.gamma == 10.0
        assert cfg.init_noise == 1e-3
        assert cfg.pca_threshold == 256
        assert cfg.pca_dim == 128
        assert cfg.max_iter == 100
        assert cfg.tol == 1e-3
        assert cfg.cov_floor == 1e-6

    def test_k_hat_bounded_by_k_bar(self):
        with pytest.raises(ValueError):
            FitConfig(k_bar=4, k_hat=5)


class TestReduceDim:
    def test_identity_below_threshold(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(rng.standard_normal((50, 128)))
        train, record = reduce_dim(emb, FitConfig())
        assert record.basis is None
        assert train is emb and record.apply(emb) is emb

    def test_projection_reconstruction_error_matches_eigenvalues(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((1000, 512)) * rng.uniform(0.5, 3.0, size=512)
        emb = EmbeddingMatrix(values)
        train, record = reduce_dim(emb, FitConfig())
        assert record.output_dim == 128
        centered = values - values.mean(axis=0)
        recon = train.values @ record.basis
        residual = float(((centered - recon) ** 2).sum())
        # independent oracle: eigendecomposition of the scatter matrix
        eigvals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
        discarded = float(eigvals[128:].sum())
        assert residual == pytest.approx(discarded, rel=1e-8)

    def test_rank_deficient_uses_fewer_directions(self):
        rng = np.random.default_rng(2)
        emb = EmbeddingMatrix(rng.standard_normal((40, 300)))
        _, record = reduce_dim(emb, FitConfig())
        assert record.output_dim == 39

    def test_projection_reuse_deterministic(self):
        rng = np.random.default_rng(3)
        train = EmbeddingMatrix(rng.standard_normal((200, 400)))
        other = EmbeddingMatrix(rng.standard_normal((50, 400)))
        reduced, record1 = reduce_dim(train, FitConfig())
        _, record2 = reduce_dim(train, FitConfig())
        assert np.array_equal(record1.apply(other).values, record2.apply(other).values)
        assert np.array_equal(record1.apply(train).values, reduced.values)
        assert np.array_equal(record1.basis, record2.basis)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        a = EmbeddingMatrix(rng.standard_normal((10, 8)))
        b = EmbeddingMatrix(rng.standard_normal((10, 9)))
        _, record = reduce_dim(a, FitConfig())
        with pytest.raises(DimensionMismatch):
            record.apply(b)


class TestInitConfusion:
    def test_noise_free_binary_four_components(self):
        split = simple_split([0, 0, 1, 1], [0, 1, 0, 1])
        emb = EmbeddingMatrix(np.zeros((4, 1)))
        q = init_confusion(split, FitConfig(k_bar=4, k_hat=4, init_noise=0.0), emb)
        expected = np.zeros((4, 4))
        for i, (y, yh) in enumerate(zip(split.labels, split.predictions)):
            expected[i, y * 2 + yh] = 1.0
        assert np.array_equal(q.q, expected)

    def test_round_robin_floor(self):
        cfg = FitConfig(k_bar=25)
        cells = np.arange(cfg.k_bar) % 4
        counts = np.bincount(cells)
        assert counts.min() >= 25 // 4

    def test_row_sums_over_seeds(self):
        for seed in range(100):
            emb, split = random_instance(seed, n=30)
            q = init_confusion(split, FitConfig(k_bar=8, seed=seed), emb)
            assert np.abs(q.q.sum(axis=1) - 1.0).max() <= 1e-12

    def test_too_few_slices(self):
        split = simple_split([0, 1], [0, 1])
        with pytest.raises(TooFewSlices):
            init_confusion(split, FitConfig(k_bar=3, k_hat=2), EmbeddingMatrix(np.zeros((2, 1))))

    def test_soft_seed_is_label_times_prediction_probability(self):
        split = soft_split([0, 0, 1], [[0.7, 0.3], [0.2, 0.8], [0.55, 0.45]])
        emb = EmbeddingMatrix(np.zeros((3, 1)))
        q = init_confusion(split, FitConfig(k_bar=4, k_hat=4, init_noise=0.0), emb)
        expected = np.zeros((3, 4))
        for i, y in enumerate(split.labels):
            expected[i, 2 * y:2 * y + 2] = split.prediction_probs[i]
        assert np.array_equal(q.q, expected)

    def test_soft_mass_goes_to_the_nearest_center(self):
        # Cell (0, 0) has two components (0 and 4) and hard members in two
        # clusters, at x = -10 and x = +10. The two examples predicted 1 sit
        # at +10: their 0.4 mass in cell (0, 0) goes to the component that
        # took the +10 cluster, and none to the other.
        x = np.array([-10.0] * 10 + [10.0] * 10 + [10.0, 10.0])
        emb = EmbeddingMatrix(np.column_stack([x, np.zeros(22)]))
        p0 = np.array([0.9] * 20 + [0.4, 0.4])
        split = soft_split(np.zeros(22, dtype=int), np.column_stack([p0, 1.0 - p0]))
        q = init_confusion(split, FitConfig(k_bar=8, k_hat=2, init_noise=0.0), emb).q
        plus, minus = (0, 4) if q[10, 0] > 0 else (4, 0)
        assert np.all(q[:10, minus] > 0) and np.all(q[:10, plus] == 0)
        assert np.all(q[10:, plus] > 0) and np.all(q[10:, minus] == 0)
        # cell (0, 1) has too few hard members to split: both its components
        # (1 and 5) get an example's whole mass there
        assert np.array_equal(q[20:, 1], q[20:, 5])
        assert q[20, plus] / q[20, 1] == pytest.approx(0.4 / 0.6, rel=1e-12)

    def test_refinement_keeps_cell_structure(self):
        emb, split = random_instance(11, n=200)
        q = init_confusion(split, FitConfig(k_bar=8, seed=0), emb)
        cells = split.labels * 2 + split.predictions
        comp_cell = np.arange(8) % 4
        # nearly all responsibility mass of every example sits in its own cell
        for i in range(split.n):
            own = comp_cell == cells[i]
            assert q.q[i, own].sum() > 0.99


def hand_params(weights, means, variances, label_probs, pred_probs):
    return MixtureParams(
        weights=np.asarray(weights, float),
        means=np.asarray(means, float),
        variances=np.asarray(variances, float),
        label_probs=np.asarray(label_probs, float),
        pred_probs=np.asarray(pred_probs, float),
    )


class TestEStep:
    @pytest.mark.parametrize(
        "label_probs, pred_probs",
        [([0.6, 0.4], [0.3, 0.7]), ([0.5, 0.2, 0.3], [0.1, 0.6, 0.3])],
        ids=["2-classes", "3-classes"],
    )
    def test_single_component_degenerate(self, label_probs, pred_probs):
        emb, split = random_instance(5, n=40, d=2, num_classes=len(label_probs))
        params = hand_params([1.0], [[0.0, 0.0]], [[1.0, 1.0]], [label_probs], [pred_probs])
        gamma = 2.5
        q, ll = e_step(emb, split, params, gamma)
        assert np.all(q.q == 1.0)
        z = emb.values
        log_norm = -0.5 * (2 * np.log(2 * np.pi)) - 0.5 * (z**2).sum(axis=1)
        expected = log_norm + gamma * (
            np.log(params.label_probs[0])[split.labels]
            + np.log(params.pred_probs[0])[split.predictions]
        )
        assert ll == pytest.approx(float(expected.sum()), rel=1e-12)

    def test_gamma_zero_matches_plain_gmm_posterior(self):
        emb, split = random_instance(6, n=80, d=3)
        rng = np.random.default_rng(7)
        k = 4
        means = rng.standard_normal((k, 3))
        variances = rng.uniform(0.5, 2.0, size=(k, 3))
        weights = rng.dirichlet(np.ones(k))
        params = hand_params(
            weights, means, variances,
            np.full((k, 2), 0.5), np.full((k, 2), 0.5),
        )
        q, _ = e_step(emb, split, params, gamma=0.0)

        # independent plain-GMM posterior oracle
        z = emb.values
        log_pdf = np.empty((80, k))
        for j in range(k):
            diff = (z - means[j]) ** 2 / variances[j]
            log_pdf[:, j] = (
                np.log(weights[j])
                - 0.5 * (3 * np.log(2 * np.pi) + np.log(variances[j]).sum())
                - 0.5 * diff.sum(axis=1)
            )
        posterior = np.exp(log_pdf - log_pdf.max(axis=1, keepdims=True))
        posterior /= posterior.sum(axis=1, keepdims=True)
        assert np.abs(q.q - posterior).max() <= 1e-10

    def test_underflow_detected(self):
        from slicekit.errors import NumericalUnderflow

        emb = EmbeddingMatrix(np.array([[0.0]]))
        split = simple_split([1], [1])
        params = hand_params(
            [1.0], [[0.0]], [[1.0]], [[1.0, 0.0]], [[0.5, 0.5]]
        )
        # the single example's label has probability 0 under the only component
        with pytest.raises(NumericalUnderflow):
            e_step(emb, split, params, gamma=1.0)

    def test_zero_categorical_entry_leaves_only_its_component_out(self):
        # component 0 gives label 1 probability 0: example 1 must get exactly
        # zero responsibility there, with no 0 * log 0 turning the row NaN
        emb = EmbeddingMatrix(np.zeros((2, 1)))
        split = simple_split([0, 1], [0, 1])
        params = hand_params(
            [0.5, 0.5], [[0.0], [0.0]], [[1.0], [1.0]],
            [[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]],
        )
        q, ll = e_step(emb, split, params, gamma=1.0)
        assert q.q.tolist() == [[0.6666666666666665, 0.3333333333333334], [0.0, 1.0]]
        assert ll == -4.898147861100908
        # the oracle: log(N(0) * (0.5 * 0.5 + 0.5 * 0.25)) + log(N(0) * 0.5 * 0.25)
        assert ll == pytest.approx(-np.log(2 * np.pi) + np.log(0.375 * 0.125), rel=1e-15)

    def test_zero_prediction_weight_meets_zero_entry(self):
        # component 0 gives prediction class 1 probability 0. Example 0 puts
        # weight 0 on class 1, so 0 * log 0 counts as 0 and the row stays
        # finite (a RuntimeWarning would fail the suite); example 1 puts
        # weight 0.3 there, so only component 0 loses it.
        emb = EmbeddingMatrix(np.zeros((2, 1)))
        split = soft_split([0, 0], [[1.0, 0.0], [0.7, 0.3]])
        params = hand_params(
            [0.5, 0.5], [[0.0], [0.0]], [[1.0], [1.0]],
            [[0.5, 0.5], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]],
        )
        q, ll = e_step(emb, split, params, gamma=1.0)
        assert q.q[0] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert q.q[1].tolist() == [0.0, 1.0]
        # the oracle: log(N(0) * 0.25 * (1 + 0.5)) + log(N(0) * 0.25 * 0.5)
        assert ll == pytest.approx(-np.log(2 * np.pi) + np.log(0.375 * 0.125), rel=1e-12)

    def test_hand_computed_two_by_two(self):
        emb = EmbeddingMatrix(np.array([[0.0], [1.0]]))
        split = simple_split([0, 1], [1, 0])
        params = hand_params(
            [0.5, 0.5],
            [[0.0], [1.0]],
            [[1.0], [1.0]],
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.5, 0.5], [0.9, 0.1]],
        )
        gamma = 1.0
        q, _ = e_step(emb, split, params, gamma)
        # raw joint for example 0 (z=0, y=0, yhat=1):
        #   comp 0: 0.5 * N(0;0,1) * 0.8 * 0.5
        #   comp 1: 0.5 * N(0;1,1) * 0.3 * 0.1
        pdf_same = np.exp(-0.0) / np.sqrt(2 * np.pi)
        pdf_unit = np.exp(-0.5) / np.sqrt(2 * np.pi)
        row0 = np.array([0.5 * pdf_same * 0.8 * 0.5, 0.5 * pdf_unit * 0.3 * 0.1])
        # example 1 (z=1, y=1, yhat=0):
        row1 = np.array([0.5 * pdf_unit * 0.2 * 0.5, 0.5 * pdf_same * 0.7 * 0.9])
        expected = np.vstack([row0 / row0.sum(), row1 / row1.sum()])
        assert np.abs(q.q - expected).max() <= 1e-12


class TestMStep:
    def test_hard_assignment_cluster_means(self):
        values = np.array([[0.0], [0.2], [10.0], [10.4]])
        emb = EmbeddingMatrix(values)
        split = simple_split([0, 0, 1, 1], [0, 0, 1, 1])
        q = Responsibilities(
            np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
        )
        params = m_step(emb, split, q, FitConfig(k_bar=4, k_hat=2))
        assert params.means[0, 0] == pytest.approx(0.1)
        assert params.means[1, 0] == pytest.approx(10.2)

    def test_uniform_responsibilities_give_global_stats(self):
        emb, split = random_instance(9, n=50, d=2)
        q = Responsibilities(np.full((50, 5), 0.2))
        params = m_step(emb, split, q, FitConfig(k_bar=5, k_hat=2))
        global_mean = emb.values.mean(axis=0)
        freq = np.bincount(split.labels, minlength=2) / 50
        for j in range(5):
            assert np.abs(params.means[j] - global_mean).max() <= 1e-12
            assert np.abs(params.label_probs[j] - freq).max() <= 1e-7

    def test_weighted_moments_match_two_pass_oracle(self):
        rng = np.random.default_rng(10)
        emb, split = random_instance(10, n=120, d=4)
        raw = rng.random((120, 6)) + 1e-3
        q = Responsibilities(raw / raw.sum(axis=1, keepdims=True))
        params = m_step(emb, split, q, FitConfig(k_bar=6, k_hat=2))
        for j in range(6):
            w = q.q[:, j]
            mean = (w[:, None] * emb.values).sum(axis=0) / w.sum()
            var = (w[:, None] * (emb.values - mean) ** 2).sum(axis=0) / w.sum()
            assert np.abs(params.means[j] - mean).max() <= 1e-9
            assert np.abs(params.variances[j] - np.maximum(var, 1e-6)).max() <= 1e-9

    def test_empty_component_rescued(self):
        emb, split = random_instance(12, n=30, d=2)
        q_raw = np.zeros((30, 5))
        q_raw[:, 0] = 1.0  # components 1..4 carry no mass
        params = m_step(emb, split, Responsibilities(q_raw), FitConfig(k_bar=5, k_hat=2))
        assert params.weights.sum() == pytest.approx(1.0)
        assert (params.weights[1:] > 0).all()
        assert np.isfinite(params.means).all()


def planted_single_class_slice(n, d, seed, offset_norm=4.0):
    """Slice inside class 1 only, as one displaced Gaussian cluster."""
    means = np.zeros((2, d))
    means[1, 0] = 4.0
    offset = np.zeros(d)
    offset[1] = offset_norm
    n_pos = n // 2
    n_slice = n_pos // 5
    groups = ((0, 0, n - n_pos), (1, 0, n_pos - n_slice), (1, 1, n_slice))
    emb, split = gaussian_split(means, offset, 1.0, groups, seed)
    split = synth_predictions(
        split, natural_model(seed=seed)
    )
    return emb, split


class TestBoundaryValidation:
    """The EM loop skips the checks; what fit returns and the public steps do not."""

    def test_fit_returns_validated_read_only_results(self, monkeypatch):
        validated = []
        for cls in (MixtureParams, Responsibilities):
            original = cls.__post_init__

            def spy(self, original=original):
                original(self)
                validated.append(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        emb, split = random_instance(3, n=150, d=3)
        params, diag = fit(emb, split, FitConfig(k_bar=8, k_hat=3, seed=0, max_iter=30))
        assert diag.n_iter > 3
        assert any(v is params for v in validated)
        assert any(v is diag.responsibilities for v in validated)
        # the init, the returned params and the returned responsibilities
        assert len(validated) == 3
        for f in fields(MixtureParams):
            assert not getattr(params, f.name).flags.writeable
        assert not diag.responsibilities.q.flags.writeable

    def test_e_step_checks_its_inputs(self):
        emb, split = random_instance(4, n=40, d=2)
        params = hand_params(
            [1.0], [[0.0, 0.0]], [[1.0, 1.0]], [[0.6, 0.4]], [[0.3, 0.7]]
        )
        wide, _ = random_instance(4, n=40, d=3)
        short, _ = random_instance(4, n=39, d=2)
        three_class = simple_split(split.labels, split.predictions, num_classes=3)
        with pytest.raises(DimensionMismatch):
            e_step(wide, split, params, 1.0)
        with pytest.raises(RowCountMismatch):
            e_step(short, split, params, 1.0)
        with pytest.raises(DimensionMismatch):
            e_step(emb, three_class, params, 1.0)
        q, _ = e_step(emb, split, params, 1.0)
        assert not q.q.flags.writeable

    def test_m_step_checks_its_inputs(self):
        emb, split = random_instance(5, n=40, d=2)
        short, short_split = random_instance(5, n=39, d=2)
        q = Responsibilities(np.full((40, 4), 0.25))
        cfg = FitConfig(k_bar=4, k_hat=2)
        with pytest.raises(RowCountMismatch):
            m_step(short, split, q, cfg)
        with pytest.raises(RowCountMismatch):
            m_step(short, short_split, q, cfg)
        params = m_step(emb, split, q, cfg)
        assert not params.means.flags.writeable


class TestFit:
    def test_log_likelihood_monotone(self):
        for seed in range(10):
            emb, split = random_instance(seed, n=120, d=4)
            cfg = FitConfig(k_bar=8, k_hat=3, seed=seed, max_iter=40)
            _, diag = fit(emb, split, cfg)
            lls = diag.log_likelihoods
            assert all(b - a >= -1e-8 for a, b in zip(lls, lls[1:]))

    def test_gamma_zero_recovers_planted_centers(self):
        rng = np.random.default_rng(21)
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        values = np.concatenate(
            [c + 0.5 * rng.standard_normal((80, 2)) for c in centers]
        )
        labels = np.concatenate([np.zeros(80), np.ones(80), np.ones(80)]).astype(int)
        emb = EmbeddingMatrix(values)
        split = simple_split(labels, labels.copy())
        cfg = FitConfig(
            k_bar=4, k_hat=3, gamma=0.0, init_noise=0.0, seed=0, max_iter=80
        )
        params, _ = fit(emb, split, cfg)
        for c in centers:
            closest = np.abs(params.means - c).sum(axis=1).min()
            assert closest <= 0.1 * 0.5 * 10  # within 0.1 sigma per-dim slack

    def test_planted_slice_high_responsibility(self):
        # At moderate gamma one component absorbs the whole displaced cluster;
        # at large gamma the confusion cells split slice members between the
        # false-negative and true-positive components, capping the mean.
        for seed in (0, 4):
            emb, split = planted_single_class_slice(1200, 8, seed=seed)
            cfg = FitConfig(k_bar=5, k_hat=3, gamma=0.5, seed=seed)
            params, diag = fit(emb, split, cfg)
            member_resp = diag.responsibilities.q[split.slices[:, 0] == 1]
            assert member_resp.mean(axis=0).max() > 0.9

    def test_three_class_fit(self):
        # generators are binary-only, but the mixture itself is class-generic
        emb, split = random_instance(77, n=200, d=4, num_classes=3)
        cfg = FitConfig(k_bar=9, k_hat=4, seed=1, max_iter=20)
        params, diag = fit(emb, split, cfg)
        assert params.label_probs.shape == (9, 3)
        lls = diag.log_likelihoods
        assert all(b - a >= -1e-8 for a, b in zip(lls, lls[1:]))
        assert len(select_slices(params, 4)) == 4

    def test_one_hot_probabilities_fit_like_hard_predictions(self):
        emb, split = random_instance(12, n=150, d=3)
        one_hot = soft_split(split.labels, np.eye(2)[split.predictions])
        cfg = FitConfig(k_bar=8, k_hat=2, seed=4)
        params_hard, diag_hard = fit(emb, split, cfg)
        params_soft, diag_soft = fit(emb, one_hot, cfg)
        assert diag_hard.log_likelihoods == diag_soft.log_likelihoods
        for f in fields(MixtureParams):
            assert np.array_equal(getattr(params_hard, f.name), getattr(params_soft, f.name))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stops_at_the_first_small_mean_change(self, seed):
        emb, split = random_instance(seed, n=240, d=6)
        cfg = FitConfig(k_bar=8, k_hat=3, seed=seed)
        _, diag = fit(emb, split, cfg)
        changes = np.abs(np.diff(diag.log_likelihoods)) / emb.n
        assert diag.converged and diag.n_iter < cfg.max_iter
        assert diag.n_iter == len(diag.log_likelihoods)
        assert changes[-1] < cfg.tol
        assert np.all(changes[:-1] >= cfg.tol)

    def test_determinism_bit_identical(self):
        emb, split = random_instance(33, n=100, d=3)
        cfg = FitConfig(k_bar=6, k_hat=2, seed=5, max_iter=30)
        params_a, diag_a = fit(emb, split, cfg)
        params_b, diag_b = fit(emb, split, cfg)
        assert diag_a.log_likelihoods == diag_b.log_likelihoods
        assert np.array_equal(params_a.means, params_b.means)
        assert np.array_equal(diag_a.responsibilities.q, diag_b.responsibilities.q)

    def test_scale_robustness(self):
        emb, split = random_instance(44, n=150, d=4)
        scale = 37.0
        cfg = FitConfig(k_bar=6, k_hat=2, seed=3, max_iter=25, tol=1e-12)
        cfg_scaled = FitConfig(
            k_bar=6, k_hat=2, seed=3, max_iter=25, tol=1e-12,
            cov_floor=1e-6 * scale**2,
        )
        _, diag = fit(emb, split, cfg)
        _, diag_scaled = fit(
            EmbeddingMatrix(emb.values * scale), split, cfg_scaled
        )
        assert np.abs(diag.responsibilities.q - diag_scaled.responsibilities.q).max() <= 1e-6

    def test_gamma_zero_equivalence_full_em(self):
        # fitted (weights, means, variances) match an independently coded
        # plain-GMM EM run from the identical initialization
        emb, split = random_instance(55, n=200, d=3)
        iterations = 20
        cfg = FitConfig(
            k_bar=6, k_hat=2, gamma=0.0, seed=9,
            max_iter=iterations, tol=1e-300,
        )
        params, diag = fit(emb, split, cfg)

        q0 = init_confusion(split, cfg, emb).q.copy()
        w, mu, var = plain_gmm(emb.values, q0, iterations, cfg.cov_floor)
        assert np.abs(params.weights - w).max() <= 1e-6
        assert np.abs(params.means - mu).max() <= 1e-6
        assert np.abs(params.variances - var).max() <= 1e-6


def plain_gmm(values, q, iterations, cov_floor):
    """Independent textbook diagonal-covariance GMM EM."""
    n, d = values.shape
    for step in range(iterations):
        mass = q.sum(axis=0)
        w = mass / n
        mu = (q.T @ values) / mass[:, None]
        var = (q.T @ values**2) / mass[:, None] - mu**2
        var = np.maximum(var, cov_floor)
        if step == iterations - 1:
            break
        log_pdf = (
            np.log(w)[None, :]
            - 0.5 * (d * np.log(2 * np.pi) + np.log(var).sum(axis=1))[None, :]
            - 0.5
            * (
                (values**2) @ (1 / var).T
                - 2 * values @ (mu / var).T
                + ((mu**2) / var).sum(axis=1)[None, :]
            )
        )
        q = np.exp(log_pdf - log_pdf.max(axis=1, keepdims=True))
        q /= q.sum(axis=1, keepdims=True)
    return w, mu, var


class TestSelection:
    def test_soft_predictions_leave_no_near_tie_at_the_top(self):
        # With hard predictions the pure error-cell components all sat within
        # 1e-6 of the top divergence (12 of 25 here), so the selected slices
        # were picked on rounding.
        setting = make_synthetic_setting(
            "rare", 0.1, n=2000, d=32, seed=0,
            model=natural_model(seed=0),
        )
        params, _ = fit(setting.valid_emb, setting.valid_split, FitConfig(seed=0))
        divergence = np.abs(params.pred_probs - params.label_probs).sum(axis=1)
        assert (divergence >= divergence.max() - 1e-6).sum() <= 1

    def test_total_variation_extremes(self):
        params = hand_params(
            [0.5, 0.5],
            [[0.0], [0.0]],
            [[1.0], [1.0]],
            [[1.0, 0.0], [0.5, 0.5]],
            [[0.0, 1.0], [0.5, 0.5]],
        )
        order = select_slices(params, 2)
        assert list(order) == [0, 1]
        divergence = np.abs(params.pred_probs - params.label_probs).sum(axis=1)
        assert divergence[0] == pytest.approx(2.0)
        assert divergence[1] == pytest.approx(0.0)

    def test_brute_force_order(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            k, c = 25, 3
            label_probs = rng.dirichlet(np.ones(c), size=k)
            pred_probs = rng.dirichlet(np.ones(c), size=k)
            params = hand_params(
                np.full(k, 1 / k), np.zeros((k, 1)), np.ones((k, 1)),
                label_probs, pred_probs,
            )
            got = list(select_slices(params, k))
            scores = np.abs(pred_probs - label_probs).sum(axis=1)
            expected = sorted(range(k), key=lambda j: (-scores[j], j))
            assert got == expected


class TestScore:
    def test_idempotent_on_validation(self):
        setting = planted_setting(
            800, 8, seed=3, model=natural_model(seed=3)
        )
        cfg = FitConfig(k_bar=8, k_hat=3, seed=1)
        params, diag = fit(setting.valid_emb, setting.valid_split, cfg)
        selected = select_slices(params, cfg.k_hat)
        scores = score(
            setting.valid_emb, setting.valid_split, params, selected,
            diag.projection, cfg.gamma,
        )
        assert np.abs(scores.scores - diag.responsibilities.q[:, selected]).max() <= 1e-9

    def test_posterior_rows_sum_to_one(self):
        emb, split = random_instance(3, n=50, d=2)
        cfg = FitConfig(k_bar=5, k_hat=5, seed=2, max_iter=10)
        params, diag = fit(emb, split, cfg)
        full = score(
            emb, split, params, np.arange(5), diag.projection, cfg.gamma
        )
        assert np.abs(full.scores.sum(axis=1) - 1.0).max() <= 1e-9

    def test_planted_top10_mostly_slice(self):
        setting = planted_setting(
            2000, 16, seed=8, model=natural_model(seed=8)
        )
        cfg = FitConfig(seed=8)
        params, diag = fit(setting.valid_emb, setting.valid_split, cfg)
        selected = select_slices(params, cfg.k_hat)
        scores = score(
            setting.test_emb, setting.test_split, params, selected,
            diag.projection, cfg.gamma,
        )
        best = 0
        for v in range(scores.k_hat):
            top = np.argsort(-scores.scores[:, v], kind="stable")[:10]
            best = max(best, int(setting.test_split.slices[top, 0].sum()))
        assert best >= 9

