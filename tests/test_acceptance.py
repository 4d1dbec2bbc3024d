"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from slicekit import (
    FitConfig,
    MixtureParams,
    MixtureSDM,
    SyntheticModelSpec,
    correlation_counts,
    fit,
    init_confusion,
    make_synthetic_setting,
    precision_at_k,
    run_setting,
    select_slices,
)
from slicekit.cli import main as cli_main
from slicekit.describe import (
    PhraseCorpus,
    class_prototype,
    dominant_class,
    rank_phrases,
    slice_prototype,
)
from slicekit.data import EmbeddingMatrix
from slicekit.errors import InfeasibleCounts
from slicekit.seeding import derive_rng

from planted import planted_setting
from test_mixture import plain_gmm

NATURAL = dict(sens_in=0.4, spec_in=0.4, sens_out=0.75, spec_out=0.75)


def report(line):
    print(f"\n{line}")


def random_fit_instance(seed, n=240, d=6, num_classes=2):
    rng = np.random.default_rng(seed)
    emb = EmbeddingMatrix(rng.standard_normal((n, d)))
    labels = rng.integers(num_classes, size=n)
    preds = rng.integers(num_classes, size=n)
    from slicekit import LabeledSplit

    split = LabeledSplit(
        labels=labels,
        predictions=preds,
        slices=rng.integers(2, size=(n, 1)),
        slice_names=("s",),
        num_classes=num_classes,
    )
    return emb, split


def test_criterion_1_em_correctness():
    """Monotone log-likelihood, simplex rows, gamma-0 plain-GMM equivalence."""
    start = time.perf_counter()

    # 50 seeded fits: non-decreasing log-likelihood (tol 1e-8), simplex rows
    for seed in range(50):
        emb, split = random_fit_instance(seed)
        cfg = FitConfig(k_bar=8, k_hat=3, seed=seed, max_iter=30)
        _, diag = fit(emb, split, cfg)
        lls = diag.log_likelihoods
        assert all(b - a >= -1e-8 for a, b in zip(lls, lls[1:])), f"seed {seed}"
        q = diag.responsibilities.q
        assert np.abs(q.sum(axis=1) - 1.0).max() <= 1e-9
        assert q.min() >= 0.0 and q.max() <= 1.0

    # gamma = 0 equivalence with an independently coded plain-GMM EM
    for seed in (0, 1, 2, 3, 4):
        emb, split = random_fit_instance(seed + 500, n=300, d=4)
        iterations = 25
        cfg = FitConfig(
            k_bar=6, k_hat=2, gamma=0.0, seed=seed,
            max_iter=iterations, rel_tol=1e-300,
        )
        params, diag = fit(emb, split, cfg)
        assert diag.n_iter == iterations
        q0 = init_confusion(split, cfg, emb).q.copy()
        w, mu, var = plain_gmm(emb.values, q0, iterations, cfg.cov_floor)
        assert np.abs(params.weights - w).max() <= 1e-6
        assert np.abs(params.means - mu).max() <= 1e-6
        assert np.abs(params.variances - var).max() <= 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"CRITERION 1 (EM correctness suite, {elapsed:.1f}s): PASS")


def _planted_best_precision(seed, offset_sigmas, rates):
    setting = planted_setting(
        4000, 32, seed,
        slice_frac=0.2,
        offset_sigmas=offset_sigmas,
        model=SyntheticModelSpec(seed=seed, **rates),
    )
    sdm = MixtureSDM(FitConfig(seed=seed)).fit(setting.valid_emb, setting.valid_split)
    scores = sdm.transform(setting.test_emb, setting.test_split)
    truth = setting.test_split.slices[:, 0]
    best = max(
        precision_at_k(scores.scores[:, v], truth, 10) for v in range(scores.k_hat)
    )
    return best, setting


def test_criterion_2_planted_slice_recovery():
    """4-sigma planted slices recovered perfectly; offset-0 control at chance."""
    start = time.perf_counter()

    n_seeds = 100
    perfect = 0
    for seed in range(n_seeds):
        best, _ = _planted_best_precision(seed, offset_sigmas=4.0, rates=NATURAL)
        perfect += best == 1.0
    assert perfect >= 95, f"only {perfect}/100 seeds reached precision 1.0"

    # Unlearnable control: offset 0 and rates equal in/out of the slice, so
    # neither embeddings nor predictions carry slice information.
    uniform = dict(sens_in=0.75, spec_in=0.75, sens_out=0.75, spec_out=0.75)
    control = []
    prevalences = []
    for seed in range(n_seeds):
        best, setting = _planted_best_precision(seed, offset_sigmas=0.0, rates=uniform)
        control.append(best)
        prevalences.append(float(setting.test_split.slices[:, 0].mean()))
    mean_precision = float(np.mean(control))

    # Monte-Carlo null oracle: a random score column's top-10 composition is
    # hypergeometric in the slice prevalence; the evaluated statistic takes
    # the max over k_hat = 5 independent columns and averages over settings.
    n_test = 2000
    good = int(round(np.mean(prevalences) * n_test))
    rng = derive_rng(2024, "null-oracle")
    draws = rng.hypergeometric(good, n_test - good, 10, size=(1000, n_seeds, 5))
    null_means = draws.max(axis=2).mean(axis=1) / 10.0
    center, sigma = float(null_means.mean()), float(null_means.std())
    assert abs(mean_precision - center) <= 3 * sigma, (
        f"control mean {mean_precision:.4f} outside {center:.4f} +- 3*{sigma:.4f}"
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        f"CRITERION 2 (planted-slice recovery, {perfect}/100 perfect, "
        f"control {mean_precision:.3f} vs null {center:.3f}+-{sigma:.3f}, "
        f"{elapsed:.0f}s): PASS"
    )


def test_criterion_3_correlation_generator():
    """Materialized correlation within 0.02 of alpha; infeasible rejected."""
    start = time.perf_counter()
    for alpha in (0.2, 0.4, 0.6, 0.8):
        setting = make_synthetic_setting(
            "correlation", alpha, n=2000, d=4, seed=int(alpha * 10)
        )
        y = np.concatenate([setting.valid_split.labels, setting.test_split.labels])
        s = np.concatenate(
            [setting.valid_split.slices[:, 0], setting.test_split.slices[:, 0]]
        )
        c = np.bitwise_xor(y, s)  # slice = 1[c != y]
        r = np.corrcoef(y, c)[0, 1]
        assert abs(r - alpha) <= 0.02, f"alpha={alpha}: r={r:.4f}"

    with pytest.raises(InfeasibleCounts):
        correlation_counts(0.8, 0.05, 0.9, 100)
    with pytest.raises(InfeasibleCounts):
        make_synthetic_setting("correlation", 0.7, n=2000, d=4, seed=0, mu_a=0.1, mu_b=0.9)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"CRITERION 3 (correlation generator, {elapsed:.1f}s): PASS")


def test_criterion_4_synthetic_model_calibration():
    """Per-cell empirical rates within 3*sqrt(p(1-p)/m) for m=5000, 20 seeds."""
    from slicekit import LabeledSplit
    from slicekit.settings import synth_predictions

    start = time.perf_counter()
    m = 5000
    labels = np.tile([1, 1, 0, 0], m)
    slices = np.tile([1, 0, 1, 0], m)
    base_split = LabeledSplit(
        labels=labels,
        predictions=labels.copy(),
        slices=slices[:, None],
        slice_names=("planted",),
        num_classes=2,
    )
    targets = {
        (1, 1): NATURAL["sens_in"],
        (1, 0): NATURAL["sens_out"],
        (0, 1): NATURAL["spec_in"],
        (0, 0): NATURAL["spec_out"],
    }
    for seed in range(20):
        out = synth_predictions(base_split, SyntheticModelSpec(seed=seed, **NATURAL))
        for (y, s), p in targets.items():
            cell = (out.labels == y) & (out.slices[:, 0] == s)
            agree = out.predictions[cell] == y
            rate = agree.mean()
            band = 3 * np.sqrt(p * (1 - p) / m)
            assert abs(rate - p) <= band, f"seed {seed} cell ({y},{s}): {rate:.4f}"

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"CRITERION 4 (synthetic model calibration, {elapsed:.1f}s): PASS")


def test_criterion_5_baseline_sanity_ordering():
    """Confusion beats the null on correlation slices; domino beats confusion on rare."""
    start = time.perf_counter()

    # (a) planted correlation settings with a strongly degraded model
    strong = dict(sens_in=0.1, spec_in=0.1, sens_out=0.95, spec_out=0.95)
    confusion_values = []
    prevalences = []
    for seed in range(50):
        setting = make_synthetic_setting(
            "correlation", 0.6, n=2000, d=32, seed=seed,
            model=SyntheticModelSpec(seed=seed, **strong),
        )
        result = run_setting(setting, "confusion", k=10, setting_id=str(seed))
        confusion_values.append(result.precision)
        prevalences.append(float(setting.test_split.slices[:, 0].mean()))
    confusion_mean = float(np.mean(confusion_values))

    n_test = 1000
    good = int(round(np.mean(prevalences) * n_test))
    rng = derive_rng(55, "null-oracle")
    draws = rng.hypergeometric(good, n_test - good, 10, size=(4000, 4))
    null_mean = float(draws.max(axis=1).mean() / 10.0)
    assert confusion_mean >= null_mean + 0.3, (
        f"confusion {confusion_mean:.3f} vs null {null_mean:.3f}"
    )

    # (b) planted rare settings: domino strictly above confusion over 50 seeds
    domino_values = []
    confusion_rare = []
    for seed in range(50):
        setting = make_synthetic_setting(
            "rare", 0.1, n=2000, d=32, seed=seed,
            model=SyntheticModelSpec(seed=seed, **NATURAL),
        )
        domino_values.append(
            run_setting(setting, "domino", FitConfig(seed=seed), setting_id=str(seed)).precision
        )
        confusion_rare.append(
            run_setting(setting, "confusion", setting_id=str(seed)).precision
        )
    domino_mean = float(np.mean(domino_values))
    confusion_rare_mean = float(np.mean(confusion_rare))
    assert domino_mean > confusion_rare_mean

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        f"CRITERION 5 (baseline ordering: confusion {confusion_mean:.3f} >= "
        f"null {null_mean:.3f}+0.3 on correlation; domino {domino_mean:.3f} > "
        f"confusion {confusion_rare_mean:.3f} on rare, {elapsed:.0f}s): PASS"
    )


def test_criterion_6_description_ranking():
    """Aligned phrase ranked first in >= 95/100 seeds."""
    start = time.perf_counter()
    d = 16
    n_phrases = 1000
    hits = 0
    for seed in range(100):
        setting = planted_setting(
            1200, d, seed,
            slice_frac=0.2,
            model=SyntheticModelSpec(seed=seed, **NATURAL),
        )
        cfg = FitConfig(seed=seed)
        params, diag = fit(setting.valid_emb, setting.valid_split, cfg)
        selected = select_slices(params, cfg.k_hat)
        # describe the discovered slice that best matches the ground truth,
        # i.e. the best-matching column of the evaluation's max step
        truth = setting.valid_split.slices[:, 0]
        per_column = [
            precision_at_k(diag.responsibilities.q[:, j], truth, 10)
            for j in selected
        ]
        matched = selected[int(np.argmax(per_column))]
        weights = diag.responsibilities.q[:, matched]

        # corpus: phrase 0 embeds the slice offset direction, 999 distractors
        # lie in its orthogonal complement
        offset_dir = np.zeros(d)
        offset_dir[1] = 1.0
        rng = derive_rng(seed, "corpus")
        vectors = [offset_dir]
        for _ in range(n_phrases - 1):
            v = rng.standard_normal(d)
            v -= (v @ offset_dir) * offset_dir
            vectors.append(v / np.linalg.norm(v))
        corpus = PhraseCorpus(
            phrases=tuple(
                "a photo of planted" if i == 0 else f"distractor {i}"
                for i in range(n_phrases)
            ),
            embeddings=EmbeddingMatrix(np.asarray(vectors)),
        )
        proto = slice_prototype(setting.valid_emb, weights)
        cls = dominant_class(setting.valid_split, weights)
        ranked = rank_phrases(
            proto, class_prototype(setting.valid_emb, setting.valid_split, cls),
            corpus, top=10,
        )
        phrases = [p for p, _ in ranked]
        if phrases[0] == "a photo of planted":
            hits += 1
    assert hits >= 95, f"aligned phrase first in only {hits}/100 seeds"

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(f"CRITERION 6 (description ranking, {hits}/100 first, {elapsed:.0f}s): PASS")


def test_criterion_7_selection_rule_exact():
    """select_slices ordering equals brute-force sorting on 1000 random draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        k = int(rng.integers(2, 30))
        c = int(rng.integers(2, 6))
        label_probs = rng.dirichlet(np.ones(c), size=k)
        pred_probs = rng.dirichlet(np.ones(c), size=k)
        params = MixtureParams(
            weights=np.full(k, 1.0 / k),
            means=np.zeros((k, 2)),
            variances=np.ones((k, 2)),
            label_probs=label_probs,
            pred_probs=pred_probs,
        )
        k_hat = int(rng.integers(1, k + 1))
        got = list(select_slices(params, k_hat))
        scores = np.abs(pred_probs - label_probs).sum(axis=1)
        expected = sorted(range(k), key=lambda j: (-scores[j], j))[:k_hat]
        assert got == expected, f"trial {trial}"

    elapsed = time.perf_counter() - start
    report(f"CRITERION 7 (selection rule brute-force match, {elapsed:.1f}s): PASS")


def test_criterion_8_pipeline_determinism(tmp_path):
    """synth + eval at --jobs 1 and --jobs 8 emit byte-identical reports."""
    start = time.perf_counter()
    config = {
        "slice_types": ["rare", "correlation", "noisy_label"],
        "alphas": {
            "rare": [0.05, 0.1],
            "correlation": [0.4, 0.6],
            "noisy_label": [0.1, 0.2],
        },
        "seeds": 5,
        "n": 240,
        "d": 8,
        "seed": 99,
        "model": {"kind": "synthetic", **NATURAL, "kappa": 5.0},
    }
    cfg_path = tmp_path / "synth.json"
    cfg_path.write_text(json.dumps(config))
    runner = CliRunner()
    grid = tmp_path / "grid"
    result = runner.invoke(
        cli_main, ["synth", "--config", str(cfg_path), "--out", str(grid)]
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((grid / "manifest.json").read_text())
    assert len(manifest["settings"]) == 30

    outputs = {}
    for jobs in (1, 8):
        out = tmp_path / f"report_jobs{jobs}"
        result = runner.invoke(cli_main, [
            "eval", "--manifest", str(grid / "manifest.json"),
            "--methods", "domino,confusion",
            "--out", str(out), "--jobs", str(jobs), "--seed", "3",
        ])
        assert result.exit_code == 0, result.output
        outputs[jobs] = {
            "json": (out / "report.json").read_bytes(),
            "md": (out / "report.md").read_bytes(),
        }
    assert outputs[1]["json"] == outputs[8]["json"]
    assert outputs[1]["md"] == outputs[8]["md"]
    doc = json.loads(outputs[1]["json"])
    assert len(doc["results"]) == 60

    elapsed = time.perf_counter() - start
    report(f"CRITERION 8 (pipeline determinism across --jobs, {elapsed:.0f}s): PASS")
