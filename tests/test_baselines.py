"""Baseline slice discovery methods."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from slicekit import (
    EmbeddingMatrix,
    GeorgeConfig,
    LabeledSplit,
    MultiaccuracyConfig,
    SpotlightConfig,
    SyntheticModelSpec,
    make_synthetic_setting,
)
from slicekit.baselines import (
    ConfusionSDM,
    GeorgeSDM,
    MultiaccuracySDM,
    SpotlightSDM,
    example_losses,
)
from slicekit import clustering
from slicekit.clustering import kmeans, kmeans_pp_init, pca_basis, sq_distances, update_centers
from slicekit.errors import DegenerateLoss, ProbOnBoundary, SchemaError, TooFewPoints
from slicekit.seeding import derive_rng

import kmeans_oracle
from planted import natural_model


def split_with_probs(labels, prob_one, slices=None):
    labels = np.asarray(labels)
    prob_one = np.asarray(prob_one, dtype=float)
    probs = np.column_stack([1 - prob_one, prob_one])
    if slices is None:
        slices = np.zeros((labels.shape[0], 1), dtype=int)
    return LabeledSplit(
        labels=labels,
        predictions=(prob_one > 0.5).astype(int),
        slices=slices,
        slice_names=("s",),
        num_classes=2,
        prediction_probs=probs,
    )


class ThreePassSpotlight(SpotlightSDM):
    """The ascent as first written: it weighs the data three times per step.

    Kept as the reference that the one-evaluation ascent must reproduce bit
    for bit.
    """

    @staticmethod
    def _objective(values, losses, multiplier, mu, log_sigma, min_mass, barrier_weight):
        sigma_sq = math.exp(2.0 * log_sigma)
        r = ((values - mu) ** 2).sum(axis=1)
        w = np.exp(-r / (2.0 * sigma_sq)) * multiplier
        total = w.sum()
        if total <= 0:
            return -np.inf
        mean_loss = float((w * losses).sum() / total)
        deficit = max(0.0, min_mass - total)
        return mean_loss - barrier_weight * (deficit / min_mass) ** 2

    def _ascend(self, values, losses, multiplier, min_mass):
        cfg = self.cfg
        eff_loss = multiplier * losses + 1e-12
        mu = (eff_loss @ values) / eff_loss.sum()
        center = values.mean(axis=0)
        log_sigma = 0.5 * math.log(((values - center) ** 2).sum(axis=1).mean() + 1e-12)
        t_lo, t_hi = log_sigma - 10.0, log_sigma + 10.0
        trace = []

        for step in range(cfg.steps):
            barrier = float(2.0 ** (step // 100))
            sigma_sq = math.exp(2.0 * log_sigma)
            diff = values - mu
            r = (diff**2).sum(axis=1)
            w = np.exp(-r / (2.0 * sigma_sq)) * multiplier
            total = w.sum()
            if total <= 0:
                break
            mean_loss = (w * losses).sum() / total

            dl_dw = (losses - mean_loss) / total
            deficit = max(0.0, min_mass - total)
            dpen_dw = -2.0 * barrier * deficit / min_mass**2
            coeff = w * (dl_dw - dpen_dw)
            grad_mu = (coeff[None, :] @ diff)[0] / sigma_sq
            grad_t = float((coeff * r).sum() / sigma_sq)

            new_mu = mu + cfg.learning_rate * grad_mu
            new_t = min(max(log_sigma + cfg.learning_rate * grad_t, t_lo), t_hi)
            before = self._objective(
                values, losses, multiplier, mu, log_sigma, min_mass, barrier
            )
            after = self._objective(
                values, losses, multiplier, new_mu, new_t, min_mass, barrier
            )
            accepted = after >= before
            trace.append((float(mean_loss), deficit > 0.0, accepted))
            if accepted:
                mu, log_sigma = new_mu, new_t
        self.trace.append(trace)
        return mu, log_sigma


class TestConfusionSDM:
    def test_binary_partition(self):
        split = LabeledSplit(
            labels=[0, 0, 1, 1],
            predictions=[0, 1, 0, 1],
            slices=[[0], [0], [0], [0]],
            slice_names=("s",),
            num_classes=2,
        )
        scores = ConfusionSDM().fit(None, split).transform(None, split)
        assert scores.k_hat == 4
        assert np.array_equal(scores.scores.sum(axis=1), np.ones(4))
        assert np.array_equal(np.diag(scores.scores[:, [0, 1, 2, 3]]), np.ones(4))

    def test_every_example_in_exactly_one_cell(self):
        rng = np.random.default_rng(0)
        split = LabeledSplit(
            labels=rng.integers(2, size=100),
            predictions=rng.integers(2, size=100),
            slices=np.zeros((100, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        scores = ConfusionSDM().fit(None, split).transform(None, split)
        assert (scores.scores.sum(axis=1) == 1).all()
        assert set(np.unique(scores.scores)) <= {0.0, 1.0}

    def test_error_cells_enriched_on_correlation_setting(self):
        rates = dict(sens_in=0.4, spec_in=0.4, sens_out=0.75, spec_out=0.75)
        setting = make_synthetic_setting(
            "correlation", 0.6, n=4000, d=4, seed=5,
            model=SyntheticModelSpec(seed=5, **rates),
        )
        split = setting.test_split
        scores = ConfusionSDM().fit(None, split).transform(None, split)
        s = split.slices[:, 0]
        prevalence = s.mean()

        # exact conditional-probability oracle from the four beta rates:
        # P(S | FP) = (1-spec_in) P01 / ((1-spec_in) P01 + (1-spec_out) P00)
        p01 = ((split.labels == 0) & (s == 1)).mean()
        p00 = ((split.labels == 0) & (s == 0)).mean()
        expected = 0.6 * p01 / (0.6 * p01 + 0.25 * p00)
        lift = expected / prevalence
        assert lift > 1.5

        fp_col = 0 * 2 + 1  # cell (y=0, yhat=1)
        members = scores.scores[:, fp_col] == 1
        observed = s[members].mean()
        band = 3 * np.sqrt(expected * (1 - expected) / members.sum())
        assert observed >= prevalence * lift - band


class TestSpotlight:
    def test_defaults_match_stated_budget(self):
        cfg = SpotlightConfig()
        assert cfg.min_mass_fraction == 0.02
        assert cfg.learning_rate == 1e-3
        assert cfg.steps == 1000

    def test_degenerate_loss_flagged_uniform(self):
        rng = np.random.default_rng(1)
        emb = EmbeddingMatrix(rng.standard_normal((100, 3)))
        split = LabeledSplit(
            labels=np.zeros(100, dtype=int),
            predictions=np.zeros(100, dtype=int),
            slices=np.zeros((100, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        with pytest.warns(DegenerateLoss):
            model = SpotlightSDM(SpotlightConfig(steps=5)).fit(emb, split)
        assert np.all(model.transform(emb, split).scores == 0.5)

    def test_refit_after_degenerate_losses_clears_the_flag(self):
        rng = np.random.default_rng(1)
        emb = EmbeddingMatrix(rng.standard_normal((100, 3)))
        flat = LabeledSplit(
            labels=np.zeros(100, dtype=int),
            predictions=np.zeros(100, dtype=int),
            slices=np.zeros((100, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        model = SpotlightSDM(SpotlightConfig(steps=5, num_spotlights=2))
        with pytest.warns(DegenerateLoss):
            model.fit(emb, flat)
        varied = split_with_probs(rng.integers(2, size=100), rng.uniform(0.05, 0.95, size=100))
        model.fit(emb, varied)
        assert not model.degenerate
        assert len(model.spotlights) == 2 and len(model.trace) == 2
        assert not np.all(model.transform(emb, varied).scores == 0.5)
        with pytest.warns(DegenerateLoss):
            model.fit(emb, flat)
        assert model.degenerate and model.spotlights == [] and model.trace == []

    def test_finds_planted_error_cluster(self):
        # two 2-d blobs; all errors concentrated in blob B
        hits = 0
        total = 100
        for seed in range(total):
            rng = np.random.default_rng(seed)
            blob_a = rng.standard_normal((150, 2))
            blob_b = rng.standard_normal((150, 2)) + [8.0, 0.0]
            emb = EmbeddingMatrix(np.concatenate([blob_a, blob_b]))
            labels = np.zeros(300, dtype=int)
            preds = np.concatenate([np.zeros(150), np.ones(150)]).astype(int)
            split = LabeledSplit(
                labels=labels,
                predictions=preds,
                slices=np.zeros((300, 1), dtype=int),
                slice_names=("s",),
                num_classes=2,
            )
            cfg = SpotlightConfig(steps=300, learning_rate=5e-2, num_spotlights=1, seed=seed)
            model = SpotlightSDM(cfg).fit(emb, split)
            mu, _ = model.spotlights[0]
            if np.linalg.norm(mu - np.array([8.0, 0.0])) <= 0.5:
                hits += 1
        assert hits >= 0.9 * total

    def test_objective_monotone_on_accepted_steps(self):
        rng = np.random.default_rng(2)
        emb = EmbeddingMatrix(rng.standard_normal((200, 3)))
        prob_one = rng.uniform(0.05, 0.95, size=200)
        split = split_with_probs(rng.integers(2, size=200), prob_one)
        cfg = SpotlightConfig(steps=200, learning_rate=1e-2, num_spotlights=2, seed=0)
        model = SpotlightSDM(cfg).fit(emb, split)
        for trace in model.trace:
            for (loss, barrier_active, accepted), (next_loss, _, _) in zip(
                trace, trace[1:]
            ):
                if accepted and not barrier_active:
                    assert next_loss >= loss - 1e-12

    @pytest.mark.parametrize("with_probs", [True, False])
    def test_one_evaluation_ascent_matches_three_pass_reference(self, with_probs):
        rng = np.random.default_rng(11)
        emb = EmbeddingMatrix(rng.standard_normal((150, 4)))
        labels = rng.integers(2, size=150)
        if with_probs:
            split = split_with_probs(labels, rng.uniform(0.05, 0.95, size=150))
        else:
            split = LabeledSplit(
                labels=labels, predictions=rng.integers(2, size=150),
                slices=np.zeros((150, 1), dtype=int), slice_names=("s",), num_classes=2,
            )
        rejected = barrier_active = doubled = 0
        for min_mass_fraction, learning_rate in [(0.02, 1e-3), (0.9, 5e-2), (0.3, 1.0)]:
            cfg = SpotlightConfig(
                min_mass_fraction=min_mass_fraction, steps=250,
                learning_rate=learning_rate, num_spotlights=3, seed=0,
            )
            fast = SpotlightSDM(cfg).fit(emb, split)
            reference = ThreePassSpotlight(cfg).fit(emb, split)
            assert len(fast.spotlights) == len(reference.spotlights) == 3
            for (mu, log_sigma), (ref_mu, ref_log_sigma) in zip(
                fast.spotlights, reference.spotlights
            ):
                assert np.array_equal(mu, ref_mu) and log_sigma == ref_log_sigma
            assert fast.trace == reference.trace
            assert np.array_equal(
                fast.transform(emb, split).scores, reference.transform(emb, split).scores
            )
            steps = [step for trace in fast.trace for step in trace]
            rejected += sum(not accepted for _, _, accepted in steps)
            barrier_active += sum(active for _, active, _ in steps)
            doubled += sum(len(trace) > 100 for trace in fast.trace)
        # the inputs exercise every branch the cached evaluation must honour
        assert rejected > 0 and barrier_active > 0 and doubled > 0

    def test_objective_uses_cross_entropy_when_probs_present(self):
        split = split_with_probs([0, 1], [0.2, 0.9])
        losses = example_losses(split)
        assert losses[0] == pytest.approx(-np.log(0.8))
        assert losses[1] == pytest.approx(-np.log(0.9))

    def test_zero_one_losses_without_probs(self):
        split = LabeledSplit(
            labels=[0, 1],
            predictions=[1, 1],
            slices=[[0], [0]],
            slice_names=("s",),
            num_classes=2,
        )
        assert np.array_equal(example_losses(split), [1.0, 0.0])


class TestMultiaccuracy:
    def test_config_defaults(self):
        cfg = MultiaccuracyConfig()
        assert cfg.eta == 0.1
        assert cfg.fit_fraction == 0.7
        assert cfg.ridge_lambda == 1.0

    def test_target_formula(self):
        # partial derivative of the cross entropy loss w.r.t. the prediction
        assert 1.0 / (1.0 - 0.5 - 0.0) == pytest.approx(2.0)
        assert 1.0 / (1.0 - 0.5 - 1.0) == pytest.approx(-2.0)
        split = split_with_probs([0, 1], [0.5, 0.5])
        emb = EmbeddingMatrix(np.eye(2))
        cfg = MultiaccuracyConfig(rounds=1, fit_fraction=0.99, ridge_lambda=1e-12, seed=0)
        model = MultiaccuracySDM(cfg).fit(emb, split)
        # with identity embeddings the ridge solution reproduces the targets
        recovered = np.eye(2) @ model.coefs[0]
        assert sorted(np.round(recovered, 6)) == [-2.0, 2.0]

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingMatrix(rng.standard_normal((200, 8)))
        prob_one = rng.uniform(0.05, 0.95, size=200)
        split = split_with_probs(rng.integers(2, size=200), prob_one)
        cfg = MultiaccuracyConfig(rounds=1, seed=7)
        model = MultiaccuracySDM(cfg).fit(emb, split)

        # oracle: rebuild the same fit subset and solve the normal equations
        h = np.clip(prob_one, 1e-6, 1 - 1e-6)
        y = split.labels.astype(float)
        fit_idx = derive_rng(7, "multiacc", 0).permutation(200)[: int(round(0.7 * 200))]
        target = 1.0 / (1.0 - h[fit_idx] - y[fit_idx])
        x = emb.values[fit_idx]
        expected = np.linalg.inv(x.T @ x + np.eye(8)) @ (x.T @ target)
        assert np.abs(model.coefs[0] - expected).max() <= 1e-8

    def test_boundary_probabilities_clamped_with_warning(self):
        emb = EmbeddingMatrix(np.ones((4, 2)))
        labels = np.array([0, 0, 1, 1])
        probs = np.array([[1.0, 0.0], [0.4, 0.6], [0.3, 0.7], [0.0, 1.0]])
        split = LabeledSplit(
            labels=labels,
            predictions=np.argmax(probs, axis=1),
            slices=np.zeros((4, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
            prediction_probs=probs,
        )
        with pytest.warns(ProbOnBoundary):
            MultiaccuracySDM(MultiaccuracyConfig(rounds=1)).fit(emb, split)

    def test_requires_probabilities(self):
        emb = EmbeddingMatrix(np.ones((2, 2)))
        split = LabeledSplit(
            labels=[0, 1], predictions=[0, 1], slices=[[0], [0]],
            slice_names=("s",), num_classes=2,
        )
        with pytest.raises(SchemaError, match="requires prediction probabilities"):
            MultiaccuracySDM().fit(emb, split)

    def test_heldout_residual_correlation_nonnegative(self):
        # planted linear structure: residual direction is linear in z
        rng = np.random.default_rng(9)
        z = rng.standard_normal((400, 4))
        signal = z @ np.array([1.0, -0.5, 0.0, 0.0])
        prob_one = np.clip(0.5 + 0.3 * np.tanh(signal), 0.05, 0.95)
        labels = np.zeros(400, dtype=int)
        split = split_with_probs(labels, prob_one)
        cfg = MultiaccuracyConfig(rounds=1, seed=1)
        model = MultiaccuracySDM(cfg).fit(EmbeddingMatrix(z), split)
        fit_idx = derive_rng(1, "multiacc", 0).permutation(400)[:280]
        rest = np.setdiff1d(np.arange(400), fit_idx)
        f = z @ model.coefs[0]
        h = np.clip(prob_one, 1e-6, 1 - 1e-6)
        target = 1.0 / (1.0 - h - labels)
        corr = np.corrcoef(f[rest], target[rest])[0, 1]
        assert corr >= 0.0


class TestGeorge:
    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(4)
        blob_a = rng.standard_normal((60, 3))
        blob_b = rng.standard_normal((60, 3)) + [10.0, 0.0, 0.0]
        emb = EmbeddingMatrix(np.concatenate([blob_a, blob_b]))
        split = LabeledSplit(
            labels=np.zeros(120, dtype=int),
            predictions=np.zeros(120, dtype=int),
            slices=np.zeros((120, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        cfg = GeorgeConfig(clusters_per_class=2, seed=0)
        model = GeorgeSDM(cfg)
        # class 1 empty: the one-class variant needs per-class counts >= k
        with pytest.raises(TooFewPoints):
            model.fit(emb, split)
        split1 = LabeledSplit(
            labels=np.tile([0, 1], 60),
            predictions=np.zeros(120, dtype=int),
            slices=np.zeros((120, 1), dtype=int),
            slice_names=("s",),
            num_classes=2,
        )
        # interleave blobs so each class holds both blobs
        scores = GeorgeSDM(cfg).fit(emb, split1).transform(emb, split1)
        assert scores.method == "george-pca"
        assert scores.k_hat == 4
        for c in (0, 1):
            members = split1.labels == c
            blob_id = (np.arange(120) >= 60).astype(int)[members]
            cols = scores.scores[members][:, c * 2 : (c + 1) * 2]
            assigned = cols.argmax(axis=1)
            # every cluster is pure in blob membership
            agreement = max(
                (assigned == blob_id).mean(), (assigned != blob_id).mean()
            )
            assert agreement == 1.0

    def test_kmeans_matches_exhaustive_search_on_small_instance(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        values = np.concatenate(
            [c + 0.3 * rng.standard_normal((3, 2)) for c in centers]
        )
        _, _, inertia = kmeans(values, 3, derive_rng(0, "test"), restarts=10)
        best = np.inf
        for assign in itertools.product(range(3), repeat=9):
            assign = np.asarray(assign)
            if len(set(assign.tolist())) < 3:
                continue
            total = 0.0
            for j in range(3):
                members = values[assign == j]
                total += ((members - members.mean(axis=0)) ** 2).sum()
            best = min(best, total)
        assert inertia <= best + 1e-6

    def test_kmeans_inertia_never_increases(self):
        values = np.random.default_rng(6).standard_normal((80, 2))
        prev = np.inf
        for max_iter in range(1, 21):
            _, _, inertia = kmeans(
                values, 4, derive_rng(3, "lloyd"), restarts=1, max_iter=max_iter
            )
            assert inertia <= prev + 1e-9
            prev = inertia

    @pytest.mark.parametrize("d", [2, 3, 32])
    def test_center_update_equals_per_cluster_mean(self, d):
        rng = np.random.default_rng(d)
        values = rng.standard_normal((500, d)) * 7.0 + 3.0
        k = 9
        dist = sq_distances(values, values[:k])
        for assign in (dist.argmin(axis=1), rng.integers(0, k - 1, size=500)):
            # the second assignment leaves cluster k - 1 empty
            reference = np.empty((k, d))
            for j in range(k):
                members = assign == j
                if members.any():
                    reference[j] = values[members].mean(axis=0)
                else:
                    reference[j] = values[dist.min(axis=1).argmax()]
            assert np.array_equal(update_centers(values, assign, dist), reference)

    @pytest.mark.parametrize("d", [2, 32])
    def test_blas_distances_match_broadcast(self, d):
        rng = np.random.default_rng(40 + d)
        values = rng.standard_normal((400, d)) * 3.0
        centers = rng.standard_normal((13, d)) * 3.0
        reference = ((values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        dist = sq_distances(values, centers)
        np.testing.assert_allclose(dist, reference, rtol=1e-9)
        assert np.array_equal(dist.argmin(axis=1), reference.argmin(axis=1))
        norms = (values**2).sum(axis=1)
        assert np.array_equal(sq_distances(values, centers, norms), dist)

    @pytest.mark.parametrize(
        "shape, via_qr",
        [((5000, 512), True), ((1000, 32), True), ((400, 8), True), ((900, 512), False)],
        ids=["5000x512", "1000x32", "400x8", "900x512-direct"],
    )
    def test_pca_basis_matches_direct_svd(self, shape, via_qr, monkeypatch):
        values = np.random.default_rng(shape[0] + shape[1]).standard_normal(shape) * 2.0 + 1.0
        centered = values - values.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        reference = vt[:128]
        anchors = np.abs(reference).argmax(axis=1)
        reference = reference * np.sign(reference[np.arange(reference.shape[0]), anchors])[:, None]
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(1) or qr(*a, **kw))
        mean, basis = pca_basis(values, 128)
        assert bool(qr_calls) == via_qr
        assert np.array_equal(mean, values.mean(axis=0))
        assert np.array_equal(basis, reference)

    def test_transform_assigns_new_points(self):
        setting = make_synthetic_setting(
            "rare", 0.1, n=400, d=4, seed=2,
            model=natural_model(seed=2),
        )
        cfg = GeorgeConfig(clusters_per_class=3, seed=1)
        model = GeorgeSDM(cfg).fit(setting.valid_emb, setting.valid_split)
        scores = model.transform(setting.test_emb, setting.test_split)
        assert scores.k_hat == 6
        assert (scores.scores.sum(axis=1) == 1).all()


@st.composite
def kmeans_cases(draw):
    """(values, k, max_iter, restarts, seed) for the k-means oracle test.

    Values are normal at a drawn scale, small integers (tied distances), all
    one row (every seeding draw after the first takes the ``total <= 0``
    branch), or copies of fewer distinct rows than clusters (coinciding
    centers, so a cluster empties), in C or Fortran order.
    """
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 128]))
    k = draw(st.integers(1, 14))
    n = draw(st.integers(k, 150))
    kind = draw(st.sampled_from(["normal", "integer", "identical", "few-distinct"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "normal":
        values = rng.standard_normal((n, d)) * 10.0 ** draw(st.integers(-3, 3))
    elif kind == "integer":
        values = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "identical":
        values = np.repeat(rng.standard_normal((1, d)), n, axis=0)
    else:
        distinct = rng.standard_normal((max(1, k // 2), d))
        values = distinct[rng.integers(distinct.shape[0], size=n)]
    if draw(st.booleans()):
        values = np.asfortranarray(values)
    return values, k, draw(st.integers(1, 30)), draw(st.integers(1, 3)), draw(st.integers(0, 2**32))


class TestKmeansKernel:
    @hsettings(max_examples=300, deadline=None, derandomize=True)
    @given(case=kmeans_cases())
    def test_kmeans_matches_oracle_bit_for_bit(self, case):
        values, k, max_iter, restarts, seed = case
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        centers, assign, inertia = kmeans(values, k, rng, restarts=restarts, max_iter=max_iter)
        expected = kmeans_oracle.kmeans(values, k, oracle_rng, restarts=restarts, max_iter=max_iter)
        assert centers.tobytes() == expected[0].tobytes()
        assert np.array_equal(assign, expected[1])
        assert np.float64(inertia).tobytes() == np.float64(expected[2]).tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

        seeded = kmeans_pp_init(values, k, np.random.default_rng(seed))
        assert seeded.tobytes() == kmeans_oracle.kmeans_pp_init(
            values, k, np.random.default_rng(seed)
        ).tobytes()
        dist = sq_distances(values, seeded)
        assert dist.tobytes() == kmeans_oracle.sq_distances(values, seeded).tobytes()
        some = np.random.default_rng(seed).integers(0, k, size=values.shape[0])
        assert update_centers(values, some, dist).tobytes() == kmeans_oracle.update_centers(
            values, some, dist
        ).tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n", [1, 7, 60, 2500])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 128])
    def test_seeding_distances_match_numpy_row_sums(self, d, n, order):
        # short rows are added column by column; the bits must be numpy's own
        rng = np.random.default_rng(1000 * d + n)
        values = np.asarray(rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, (n, d)), order=order)
        scratch, out = np.empty_like(values), np.empty(n)
        for center in values[:3]:
            direct = ((values - center) ** 2).sum(axis=1)
            got = clustering._row_sq_distances(values, center, scratch, out)
            assert got.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("d", [2, 32])
    def test_few_distinct_rows_empty_a_cluster(self, monkeypatch, d):
        # the oracle test's "few-distinct" values do reach the re-seeding branch
        emptied = []
        update = clustering.update_centers

        def recording(values, assign, dist):
            emptied.append(np.bincount(assign, minlength=dist.shape[1]).min() == 0)
            return update(values, assign, dist)

        monkeypatch.setattr(clustering, "update_centers", recording)
        distinct = np.random.default_rng(d).standard_normal((3, d))
        values = distinct[np.arange(40) % 3]
        kmeans(values, 6, np.random.default_rng(0), restarts=2)
        assert any(emptied)

    @pytest.mark.parametrize(
        "k, restarts, message",
        [(0, 10, "at least 1 cluster, got k=0"), (-2, 10, "at least 1 cluster, got k=-2"),
         (3, 0, "at least 1 restart, got restarts=0")],
    )
    def test_no_clusters_or_restarts_raise(self, k, restarts, message):
        values = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match=message):
            kmeans(values, k, np.random.default_rng(0), restarts=restarts)

    def test_overflowing_seeding_distances_raise(self):
        # as numpy's choice did on the NaN probabilities, not a NaN inertia
        values = np.random.default_rng(0).standard_normal((50, 3)) * 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="squared distances sum to"):
                kmeans(values, 3, np.random.default_rng(0))


class TestSharedContract:
    def test_all_methods_emit_valid_scores(self):
        setting = make_synthetic_setting(
            "correlation", 0.6, n=600, d=6, seed=3,
            model=natural_model(seed=3),
        )
        emb, split = setting.valid_emb, setting.valid_split
        models = [
            ConfusionSDM(),
            SpotlightSDM(SpotlightConfig(steps=50, num_spotlights=2, seed=0)),
            MultiaccuracySDM(MultiaccuracyConfig(rounds=2, seed=0)),
            GeorgeSDM(GeorgeConfig(clusters_per_class=3, seed=0)),
        ]
        outputs = [model.fit(emb, split).transform(emb, split) for model in models]
        for scores in outputs:
            assert np.isfinite(scores.scores).all()
            assert scores.scores.min() >= 0.0 and scores.scores.max() <= 1.0
            assert scores.n == split.n
