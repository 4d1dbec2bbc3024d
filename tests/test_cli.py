"""Command-line interface: synth, gen, run, eval, describe, report."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import slicekit
from slicekit import EmbeddingMatrix, FitConfig, MixtureSDM
from slicekit.cli import main
from slicekit.evaluate import METHODS, make_sdm
from slicekit.fileio import load_scores, load_setting, save_embeddings


def test_importing_the_cli_leaves_scipy_unloaded():
    # Only the synthetic model's beta solve needs scipy, and it is slow to import.
    src = Path(slicekit.__file__).parents[1]
    code = "import sys, slicekit.cli; assert 'scipy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.fixture()
def runner():
    return CliRunner()


def synth_config(tmp_path, **overrides):
    cfg = {
        "slice_types": ["rare", "correlation", "noisy_label"],
        "alphas": {"rare": [0.05], "correlation": [0.4], "noisy_label": [0.1]},
        "seeds": 2,
        "n": 160,
        "d": 6,
        "seed": 7,
        "model": {
            "kind": "synthetic",
            "sens_in": 0.4, "spec_in": 0.4,
            "sens_out": 0.75, "spec_out": 0.75,
            "kappa": 5.0,
        },
    }
    cfg.update(overrides)
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(cfg))
    return path


def synth_grid(runner, tmp_path, **overrides):
    """The directory of a successful ``synth`` run over a one-type rare grid."""
    cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "alphas": {"rare": [0.1]}, **overrides})
    grid = tmp_path / "grid"
    result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
    assert result.exit_code == 0, result.output
    return grid


class TestSynth:
    def test_grid_produces_directories_and_manifest(self, runner, tmp_path):
        cfg = synth_config(
            tmp_path,
            slice_types=["rare"],
            alphas={"rare": [0.02, 0.05, 0.08]},
            seeds=5,
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["settings"]) == 15
        dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(dirs) == 15
        loaded = load_setting(out / manifest["settings"][0]["path"])
        assert loaded.slice_type == "rare"

    def test_rerun_byte_identical(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.05]}, seeds=1)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 0, result.output
        rel = "rare_a0.05_r0/setting.json"
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

    def test_invalid_alpha_exit_two(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.5]})
        result = runner.invoke(
            main, ["synth", "--config", str(cfg), "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2
        assert "rare" in result.output and "0.5" in result.output

    @pytest.mark.parametrize(
        "change",
        [{"n": "many"}, {"sigma": [1]}, {"alphas": {"rare": ["high"]}}, {"seeds": ["a"]},
         {"model": {"kind": "synthetic", "sens_in": "high", "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75}},
         {"n": -5}, {"n": 0}, {"n": 3}, {"d": 0}, {"d": 1}, {"sigma": -1}, {"sigma": 0},
         {"mu_a": 2}, {"mu_b": 0}],
    )
    def test_non_numeric_config_exit_two(self, runner, tmp_path, change):
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "alphas": {"rare": [0.05]}, **change})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad synth configuration" in result.output
        assert not out.exists()

    def test_unknown_slice_type_exit_two(self, runner, tmp_path):
        # in slice_types, and as an alphas key
        for overrides, name in (
            ({"slice_types": ["rare", "tiny"], "alphas": [0.05]}, "tiny"),
            ({"alphas": {"rare": [0.05], "corelation": [0.4]}}, "corelation"),
        ):
            cfg = synth_config(tmp_path, **overrides)
            out = tmp_path / "x"
            result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
            assert result.exit_code == 2
            assert f"unknown slice type '{name}'" in result.output
            assert not out.exists()

    def test_slice_type_without_alphas_exit_two(self, runner, tmp_path):
        cfg = synth_config(
            tmp_path, slice_types=["rare", "correlation"], alphas={"rare": [0.05]},
            seeds=1, n=200, d=4,
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "alphas gives no list for slice type 'correlation'" in result.output
        assert not out.exists()

    def test_generation_failure_removes_partial_outputs(self, runner, tmp_path):
        # rare settings generate fine; the correlation grid point is
        # infeasible at these marginals, so the whole run must roll back
        cfg = synth_config(
            tmp_path,
            slice_types=["rare", "correlation"],
            alphas={"rare": [0.1], "correlation": [0.8]},
            seeds=1,
            mu_a=0.05,
            mu_b=0.9,
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1
        assert not (out / "manifest.json").exists()
        assert [p for p in out.iterdir() if p.is_dir()] == []

    def test_generation_failure_leaves_no_config(self, runner, tmp_path):
        # four rows cannot hold a subclass-C slice, so generation fails
        cfg = synth_config(
            tmp_path, slice_types=["noisy_label"], alphas={"noisy_label": [0.1]},
            seeds=1, n=4, d=2,
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "generation failed" in result.output
        assert not (out / "synth_config.json").exists()

    @pytest.mark.parametrize(
        "overrides, repeated",
        [
            ({"alphas": [0.05, 0.05]}, "rare_a0.05_r0"),
            ({"seeds": [0, 0]}, "rare_a0.05_r0"),
            ({"alphas": [0.05, 0.05000001]}, "rare_a0.05_r0"),  # equal under {alpha:g}
        ],
    )
    def test_repeated_setting_id_exit_two(self, runner, tmp_path, overrides, repeated):
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "seeds": 1, **overrides})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"repeats setting ids: {repeated}" in result.output
        assert not out.exists()


def write_base(tmp_path, n_base, d, seed):
    """base.csv with a target and a ``tube`` attribute, and its embeddings."""
    y = (np.arange(n_base) % 2).astype(int)
    c = ((np.arange(n_base) // 2) % 2).astype(int)
    base = tmp_path / "base.csv"
    base.write_text(
        "id,target,tube\n"
        + "".join(f"{i},{y[i]},{c[i]}\n" for i in range(n_base))
    )
    emb_path = tmp_path / "base.emb"
    rng = np.random.default_rng(seed)
    save_embeddings(EmbeddingMatrix(rng.standard_normal((n_base, d))), emb_path)
    return base, emb_path, c


def run_gen(runner, tmp_path, base, emb_path, cfg):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(cfg))
    return runner.invoke(main, [
        "gen", "--base", str(base), "--embeddings", str(emb_path),
        "--config", str(path), "--out", str(tmp_path / "setting"),
    ])


class TestGen:
    def test_generate_from_base_table(self, runner, tmp_path):
        base, emb_path, _ = write_base(tmp_path, 2000, 5, seed=0)
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "slice_type": "correlation",
            "alpha": 0.4,
            "target": "target",
            "attribute": "tube",
            "n": 400,
            "mu_a": 0.5,
            "mu_b": 0.5,
            "seed": 3,
            "model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                      "sens_out": 0.75, "spec_out": 0.75},
        }))
        out = tmp_path / "setting"
        result = runner.invoke(main, [
            "gen", "--base", str(base), "--embeddings", str(emb_path),
            "--config", str(cfg), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        setting = load_setting(out)
        assert setting.slice_type == "correlation"
        assert setting.model_kind == "synthetic"

    def test_base_embeddings_are_not_held_in_float64(self, runner, tmp_path):
        # gen keeps the base payload in float32 and upcasts only the rows a
        # setting takes, so it never holds the whole base as float64
        n_base, d = 16000, 256
        base, emb_path, _ = write_base(tmp_path, n_base, d, seed=4)
        tracemalloc.start()
        try:
            result = run_gen(runner, tmp_path, base, emb_path, {
                "slice_type": "correlation", "alpha": 0.4, "target": "target",
                "attribute": "tube", "n": 2000, "seed": 1,
            })
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 8 * n_base * d, f"peak {peak / (8 * n_base * d):.2f} x the base in float64"

    def test_ingested_predictions(self, runner, tmp_path):
        n_base = 1200
        base, emb_path, c = write_base(tmp_path, n_base, 4, seed=1)
        # a model that predicts the correlate: wrong exactly on the slice
        preds_path = tmp_path / "preds.csv"
        preds_path.write_text(
            "id,y_hat\n" + "".join(f"{i},{c[i]}\n" for i in range(n_base))
        )
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({
            "slice_type": "correlation",
            "alpha": 0.5,
            "target": "target",
            "attribute": "tube",
            "n": 400,
            "seed": 2,
            "model": {"kind": "ingested", "predictions": str(preds_path)},
        }))
        out = tmp_path / "setting"
        result = runner.invoke(main, [
            "gen", "--base", str(base), "--embeddings", str(emb_path),
            "--config", str(cfg), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        setting = load_setting(out)
        assert setting.model_kind == "trained_ingested"
        # predicting the correlate means every slice member is misclassified
        split = setting.test_split
        wrong = split.predictions != split.labels
        assert np.array_equal(wrong.astype(int), split.slices[:, 0])

    def test_probabilities_not_summing_to_one_exit_one(self, runner, tmp_path):
        base, emb_path, _ = write_base(tmp_path, 1200, 4, seed=1)
        preds = tmp_path / "preds.csv"
        preds.write_text("id,y_hat,p_0,p_1\n" + "".join(f"{i},0,0.9,0.3\n" for i in range(1200)))
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
            "n": 400, "model": {"kind": "ingested", "predictions": str(preds)},
        })
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "ingested predictions for the valid split" in result.output
        assert "sum to 1" in result.output

    @pytest.mark.parametrize("model", [{}, {"predictions": ""}, {"predictions": 5}])
    def test_ingested_model_needs_a_predictions_path(self, runner, tmp_path, model):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
            "n": 100, "model": {"kind": "ingested", **model},
        })
        assert result.exit_code == 2, result.output
        assert "needs a 'predictions' path" in result.output

    @pytest.mark.parametrize(
        "change",
        [{"n": "many"}, {"alpha": "high"}, {"seed": "x"},
         {"model": {"kind": "synthetic", "sens_in": "high", "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75}},
         {"model": "synthetic"},
         {"n": -4}, {"n": 0}, {"n": 3}, {"mu_a": 2}, {"mu_b": 1.0},
         {"slice_type": "correlation", "alpha": 0.4, "mu_a": 2},
         {"slice_type": "correlation", "alpha": 1.5},
         {"slice_type": "correlation", "alpha": 0.9},
         {"slice_type": "correlation", "alpha": -0.5},
         {"alpha": 0.5}],
    )
    def test_non_numeric_config_exit_two(self, runner, tmp_path, change):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target",
               "attribute": "tube", "n": 100, **change}
        result = run_gen(runner, tmp_path, base, emb_path, cfg)
        assert result.exit_code == 2, result.output
        assert "bad gen configuration" in result.output


class TestRun:
    @pytest.fixture()
    def setting_dir(self, runner, tmp_path):
        return synth_grid(runner, tmp_path, seeds=1, n=400, d=6) / "rare_a0.1_r0"

    def test_k_below_one_exit_two(self, runner, setting_dir, tmp_path):
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--k", "0", "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "--k" in result.output
        assert not out.exists()

    def test_unknown_method_exit_two(self, runner, setting_dir):
        result = runner.invoke(main, ["run", "--setting", str(setting_dir), "--method", "nope"])
        assert result.exit_code == 2
        assert "domino" in result.output and "confusion" in result.output

    def test_confusion_runs_and_prints_precision(self, runner, setting_dir, tmp_path):
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert "precision@10" in result.output
        scores = load_scores(out)
        assert scores.method == "confusion"
        assert scores.k_hat == 4

    def test_inline_descriptions_on_validation_scores(self, runner, setting_dir, tmp_path):
        rng = np.random.default_rng(5)
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("".join(f"phrase {i}\n" for i in range(12)))
        emb_path = tmp_path / "phrases.emb"
        save_embeddings(EmbeddingMatrix(rng.standard_normal((12, 6))), emb_path)
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--score-split", "valid", "--out", str(out),
            "--phrases", str(phrases), "--phrase-embeddings", str(emb_path),
            "--top", "4",
        ])
        assert result.exit_code == 0, result.output
        scores = load_scores(out)
        assert scores.slice_descriptions is not None
        assert all(len(d) == 4 for d in scores.slice_descriptions)

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_exit_two(self, runner, setting_dir, tmp_path, top):
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("phrase\n")
        emb_path = tmp_path / "phrases.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 6))), emb_path)
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--score-split", "valid", "--out", str(out),
            "--phrases", str(phrases), "--phrase-embeddings", str(emb_path),
            "--top", top,
        ])
        assert result.exit_code == 2
        assert "--top" in result.output
        assert not out.exists()

    def test_descriptions_require_validation_split(self, runner, setting_dir, tmp_path):
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("phrase\n")
        emb_path = tmp_path / "phrases.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 6))), emb_path)
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--phrases", str(phrases), "--phrase-embeddings", str(emb_path),
        ])
        assert result.exit_code == 2
        assert "valid" in result.output

    @pytest.mark.parametrize(
        "method, flag, value",
        [("george", "--max-iter", "1"), ("domino", "--steps", "0"), ("confusion", "--gamma", "1")],
    )
    def test_flag_of_another_method_exit_two(self, runner, setting_dir, method, flag, value):
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", method, flag, value,
        ])
        assert result.exit_code == 2, result.output
        assert f"{flag} not accepted by --method {method}" in result.output

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--k-hat", "0", "k_hat must lie in [1, k_bar=25], got 0"),
         ("--k-hat", "-1", "k_hat must lie in [1, k_bar=25], got -1"),
         ("--gamma", "nan", "gamma must be finite and non-negative, got nan"),
         ("--gamma", "inf", "gamma must be finite and non-negative, got inf"),
         ("--pca-dim", "0", "pca_dim must be at least 1"),
         ("--init-noise", "nan", "init_noise must be finite and non-negative, got nan"),
         ("--init-noise", "inf", "init_noise must be finite and non-negative, got inf"),
         ("--init-noise", "-1", "init_noise must be finite and non-negative, got -1.0"),
         ("--cov-floor", "inf", "cov_floor must be finite and positive, got inf"),
         ("--cov-floor", "nan", "cov_floor must be finite and positive, got nan"),
         ("--rel-tol", "inf", "rel_tol must be finite and positive, got inf"),
         ("--rel-tol", "nan", "rel_tol must be finite and positive, got nan")],
        ids=["k-hat-zero", "k-hat-negative", "gamma-nan", "gamma-inf", "pca-dim-zero",
             "init-noise-nan", "init-noise-inf", "init-noise-negative", "cov-floor-inf",
             "cov-floor-nan", "rel-tol-inf", "rel-tol-nan"],
    )
    def test_bad_domino_flag_exit_two(self, runner, setting_dir, tmp_path, flag, value, message):
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "domino", flag, value,
            "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"bad domino configuration: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, flag, value, message",
        [("domino", "--k-bar", "2000", "need at least k_bar=2000 examples"),
         ("spotlight", "--min-mass-fraction", "0.0005",
          "min_mass_fraction admits no examples at this n")],
    )
    def test_fit_precondition_exit_one(self, runner, setting_dir, method, flag, value, message):
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", method, flag, value,
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    def test_multiacc_without_probabilities_exit_one(self, runner, tmp_path):
        base, emb_path, c = write_base(tmp_path, 1200, 4, seed=1)
        preds = tmp_path / "preds.csv"
        preds.write_text("id,y_hat\n" + "".join(f"{i},{c[i]}\n" for i in range(1200)))
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
            "n": 400, "model": {"kind": "ingested", "predictions": str(preds)},
        })
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "run", "--setting", str(tmp_path / "setting"), "--method", "multiacc",
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "multiaccuracy requires prediction probabilities" in result.output

    def test_domino_flags_reproduce_library_fit(self, runner, setting_dir, tmp_path):
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "domino",
            "--gamma", "10", "--kbar", "25", "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        cli_scores = load_scores(out)

        setting = load_setting(setting_dir)
        sdm = MixtureSDM(FitConfig(gamma=10, k_bar=25, seed=5))
        sdm.fit(setting.valid_emb, setting.valid_split)
        lib_scores = sdm.transform(setting.test_emb, setting.test_split)
        assert np.array_equal(cli_scores.scores, lib_scores.scores)


class TestEval:
    def test_settings_times_methods_rows(self, runner, tmp_path):
        grid = synth_grid(runner, tmp_path, alphas={"rare": [0.05, 0.1]}, seeds=2, n=200, d=4)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"),
            "--methods", "confusion,george", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["results"]) == 8  # 4 settings x 2 methods
        assert (out / "report.md").exists()

    def test_missing_setting_recorded_not_fatal(self, runner, tmp_path):
        grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
        manifest = json.loads((grid / "manifest.json").read_text())
        manifest["settings"].append({"id": "ghost", "path": "ghost"})
        (grid / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"),
            "--methods", "confusion", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["errors"]) == 1
        assert doc["errors"][0]["setting_id"] == "ghost"
        assert len(doc["results"]) == 1

    def test_unknown_method_exit_two(self, runner, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"settings": [{"id": "a", "path": "a"}]}))
        result = runner.invoke(main, [
            "eval", "--manifest", str(manifest), "--methods", "wat",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "method, section, message",
        [
            ("domino", {"bogus": 1}, "bogus"),
            ("domino", {"k_hat": 0}, "k_hat must lie in [1, k_bar=25]"),
            ("domino", {"pca_dim": 0}, "pca_dim must be at least 1"),
            ("george", {"restarts": 0}, "restarts must be at least 1"),
            ("george", {"reduce_dim": 0}, "reduce_dim must be at least 1"),
            ("george", {"clusters_per_class": -1}, "clusters_per_class must be None or"),
            ("george", {"clusters_per_class": 0}, "clusters_per_class must be None or"),
            ("spotlight", {"num_spotlights": 0, "steps": 5}, "num_spotlights must be"),
            ("domino", {"init_noise": float("nan")}, "init_noise must be finite and non-negative"),
            ("domino", {"cov_floor": float("inf")}, "cov_floor must be finite and positive"),
            ("spotlight", {"learning_rate": float("nan")}, "learning_rate must be finite and positive"),
            ("spotlight", {"learning_rate": -1}, "learning_rate must be finite and positive"),
            ("spotlight", {"learning_rate": float("inf")}, "learning_rate must be finite and positive"),
            ("multiacc", {"ridge_lambda": float("nan")}, "ridge_lambda must be finite and positive"),
            ("multiacc", {"ridge_lambda": -1e9}, "ridge_lambda must be finite and positive"),
            ("multiacc", {"eta": float("inf")}, "eta must be finite and positive"),
            ("multiacc", {"eta": float("nan")}, "eta must be finite and positive"),
        ],
        ids=["domino-bogus", "domino-k-hat", "domino-pca-dim", "george-restarts", "george-reduce-dim",
             "george-clusters-negative", "george-clusters-zero", "spotlight-num-spotlights",
             "domino-init-noise-nan", "domino-cov-floor-inf", "spotlight-learning-rate-nan",
             "spotlight-learning-rate-negative", "spotlight-learning-rate-inf",
             "multiacc-ridge-lambda-nan", "multiacc-ridge-lambda-negative", "multiacc-eta-inf",
             "multiacc-eta-nan"],
    )
    def test_bad_config_section_exit_two(self, runner, tmp_path, method, section, message):
        grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {method: section}}))
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"), "--methods", method,
            "--config", str(method_cfg), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    @pytest.fixture()
    def two_settings(self, runner, tmp_path):
        return synth_grid(runner, tmp_path, seeds=2, n=200, d=4) / "manifest.json"

    @pytest.mark.parametrize(
        "options, message",
        [
            (["--methods", "confusion,confusion"], "--methods names confusion more than once"),
            (["--methods", "confusion", "--k", "0"], "--k"),
            (["--methods", "confusion", "--jobs", "0"], "--jobs"),
            (["--methods", "confusion", "--beta", "nan"], "nan is not a finite number in [0, 1)"),
            (["--methods", "confusion", "--beta", "inf"], "--beta"),
            (["--methods", "confusion", "--beta", "1"], "--beta"),
            (["--methods", "confusion", "--beta", "7"], "--beta"),
            (["--methods", "confusion", "--beta", "-0.1"], "--beta"),
        ],
    )
    def test_usage_errors_write_no_report(self, runner, two_settings, tmp_path,
                                            options, message):
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(two_settings), "--out", str(out), *options,
        ])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not out.exists()

    def test_repeated_manifest_id_exit_two(self, runner, two_settings, tmp_path):
        settings = json.loads(two_settings.read_text())["settings"]
        out = tmp_path / "report"
        # the same entry twice, then one directory under a second id
        for repeat, message in (
            (settings[0], "ids more than once: rare_a0.1_r0"),
            ({"id": "again", "path": settings[0]["path"]}, "directories more than once"),
        ):
            two_settings.write_text(json.dumps({"settings": [*settings, repeat]}))
            result = runner.invoke(main, [
                "eval", "--manifest", str(two_settings), "--methods", "confusion",
                "--out", str(out),
            ])
            assert result.exit_code == 2, result.output
            assert message in result.output
            assert not out.exists()

    def test_manifest_must_be_an_object(self, runner, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"id": "a", "path": "a"}]))
        result = runner.invoke(main, [
            "eval", "--manifest", str(manifest), "--methods", "confusion",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)

    def test_all_settings_failing_exits_one(self, runner, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"settings": [{"id": "ghost", "path": "ghost"}]}))
        result = runner.invoke(main, [
            "eval", "--manifest", str(manifest), "--methods", "confusion",
            "--out", str(tmp_path / "o"),
        ])
        assert result.exit_code == 1

    def test_all_five_methods_run(self, runner, tmp_path):
        grid = synth_grid(
            runner, tmp_path, slice_types=["correlation"], alphas={"correlation": [0.6]},
            seeds=1, n=300, d=6,
        )
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({
            "methods": {
                "spotlight": {"steps": 40, "num_spotlights": 2},
                "george": {"clusters_per_class": 3},
                "multiacc": {"rounds": 2},
                "domino": {"k_bar": 8, "k_hat": 3},
            }
        }))
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"),
            "--methods", "domino,confusion,spotlight,multiacc,george",
            "--config", str(method_cfg), "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "report.json").read_text())
        assert len(doc["results"]) == 5
        assert not doc["errors"]
        methods = {r["method"] for r in doc["results"]}
        assert methods == {"domino", "confusion", "spotlight", "multiacc", "george-pca"}


class TestDescribeCommand:
    @pytest.fixture()
    def describe_args(self, runner, tmp_path):
        setting_dir = synth_grid(runner, tmp_path, seeds=1, n=300, d=6) / "rare_a0.1_r0"

        scores_path = tmp_path / "valid_scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "confusion",
            "--score-split", "valid", "--out", str(scores_path),
        ])
        assert result.exit_code == 0, result.output

        rng = np.random.default_rng(1)
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("".join(f"phrase {i}\n" for i in range(20)))
        emb_path = tmp_path / "phrases.emb"
        save_embeddings(EmbeddingMatrix(rng.standard_normal((20, 6))), emb_path)
        return [
            "describe", "--setting", str(setting_dir),
            "--scores", str(scores_path),
            "--phrases", str(phrases), "--phrase-embeddings", str(emb_path),
        ]

    def test_describe_appends_phrases(self, runner, describe_args, tmp_path):
        out = tmp_path / "described.json"
        result = runner.invoke(main, [*describe_args, "--out", str(out), "--top", "3"])
        assert result.exit_code == 0, result.output
        described = load_scores(out)
        assert described.slice_descriptions is not None
        assert len(described.slice_descriptions) == described.k_hat
        assert len(described.slice_descriptions[0]) == 3

    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_top_below_one_exit_two(self, runner, describe_args, tmp_path, top):
        out = tmp_path / "described.json"
        result = runner.invoke(main, [*describe_args, "--out", str(out), "--top", top])
        assert result.exit_code == 2
        assert "--top" in result.output
        assert not out.exists()


# One well-formed report.json result row.
ROW = {"setting_id": "a", "method": "confusion", "slice_type": "rare", "alpha": 0.1,
       "model_kind": "synthetic", "precisions": [0.1], "best_slices": [0],
       "degraded": True, "success_at_beta": False, "excluded": False}


class TestReportCommand:
    def test_reaggregation_round_trip(self, runner, tmp_path):
        grid = synth_grid(runner, tmp_path, seeds=2, n=200, d=4)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"),
            "--methods", "confusion", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        again = tmp_path / "again"
        result = runner.invoke(main, [
            "report", "--results", str(out / "report.json"), "--out", str(again),
        ])
        assert result.exit_code == 0, result.output
        a = json.loads((out / "report.json").read_text())
        b = json.loads((again / "report.json").read_text())
        assert a["results"] == b["results"]
        assert a["aggregates"] == b["aggregates"]

    def test_report_takes_k_and_seed_from_the_document(self, runner, tmp_path):
        # six settings whose precisions differ, so the bootstrap CIs depend on the seed
        grid = synth_grid(runner, tmp_path, alphas={"rare": [0.05, 0.1]}, seeds=3, n=200, d=4)
        out, again = tmp_path / "report", tmp_path / "again"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"), "--methods", "confusion",
            "--seed", "3", "--k", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["report", "--results", str(out / "report.json"), "--out", str(again)])
        assert result.exit_code == 0, result.output
        assert "mean p@5" in (again / "report.md").read_text()
        for name in ("report.json", "report.md"):
            assert (again / name).read_bytes() == (out / name).read_bytes()

    def test_report_has_no_k_or_seed_option(self, runner, tmp_path):
        for option in ("--k", "--seed"):
            result = runner.invoke(main, ["report", option, "5", "--results", "x", "--out", "y"])
            assert result.exit_code == 2
            assert "No such option" in result.output and option in result.output

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"results": [{"setting_id": "a"}]}, "bad report document: KeyError: 'config'"),
            ({"config": {"k": 10, "seed": 0}, "results": [{"setting_id": "a"}]},
             "bad report document: KeyError: 'precisions'"),
            ({"config": {"seed": 0}, "results": []}, "bad report document: KeyError: 'k'"),
            ({"config": {"k": "five", "seed": 0}, "results": []}, "bad report document: ValueError"),
            ({"config": {"k": 10, "seed": 0}, "results": []}, "no results"),
            ({"config": {"k": 10, "seed": 0}, "results": [ROW, {**ROW, "setting_id": "b"}, ROW]},
             "rows repeat setting/method pairs: a [confusion]"),
            # a trained-model row read as degraded would be counted, not excluded
            ({"config": {"k": 10, "seed": 0},
              "results": [{**ROW, "model_kind": "trained_ingested", "degraded": "false"}]},
             "bad report document: ValueError: degraded must be true or false, got 'false'"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "success_at_beta": 1}]},
             "bad report document: ValueError: success_at_beta must be true or false, got 1"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "best_slices": [1.9]}]},
             "bad report document: ValueError: best_slices must be a list of integers, got [1.9]"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "best_slices": [True]}]},
             "bad report document: ValueError: best_slices must be a list of integers"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "precisions": [True, "0.5"]}]},
             "bad report document: ValueError: precisions must be a non-empty list of numbers "
             "in [0, 1], got [True, '0.5']"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "alpha": "0.1"}]},
             "bad report document: ValueError: alpha must be a finite number, got '0.1'"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "alpha": float("nan")}]},
             "bad report document: ValueError: alpha must be a finite number, got nan"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "slice_type": "rarest"}]},
             "bad report document: ValueError: slice_type must be one of rare, correlation, "
             "noisy_label, got 'rarest'"),
            # an unknown model kind would never be excluded
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "model_kind": "trained"}]},
             "bad report document: ValueError: model_kind must be one of trained_ingested, "
             "synthetic, got 'trained'"),
        ],
    )
    def test_malformed_document_exit_two(self, runner, tmp_path, doc, message):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        result = runner.invoke(main, ["report", "--results", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output
        assert not out.exists()


# ``slicekit run --help`` as the hand-written flag table printed it; the flags
# generated from the method registry must keep these names, types and order.
RUN_HELP = """\
Usage: slicekit run [OPTIONS]

  Fit one method on a setting and write its scores document.

Options:
  --setting PATH              [required]
  --method TEXT               [required]
  --out PATH
  --config PATH
  --score-split [test|valid]  [default: test]
  --k INTEGER RANGE           [default: 10; x>=1]
  --seed INTEGER              [default: 0]
  --phrases PATH
  --phrase-embeddings PATH
  --top INTEGER RANGE         [default: 10; x>=1]
  --k-bar, --kbar INTEGER
  --k-hat, --khat INTEGER
  --gamma FLOAT
  --max-iter INTEGER
  --rel-tol FLOAT
  --init-noise FLOAT
  --pca-threshold INTEGER
  --pca-dim INTEGER
  --cov-floor FLOAT
  --min-mass-fraction FLOAT
  --steps INTEGER
  --learning-rate FLOAT
  --num-spotlights INTEGER
  --eta FLOAT
  --rounds INTEGER
  --fit-fraction FLOAT
  --ridge-lambda FLOAT
  --help                      Show this message and exit.
"""


class TestRegistry:
    @pytest.fixture()
    def grid(self, runner, tmp_path):
        return synth_grid(runner, tmp_path, seeds=1, n=200, d=4)

    def test_run_help_is_unchanged(self, runner):
        result = runner.invoke(main, ["run", "--help"], prog_name="slicekit", terminal_width=80)
        assert result.exit_code == 0
        assert result.output == RUN_HELP

    def test_registry_order(self):
        assert list(METHODS) == ["domino", "confusion", "spotlight", "multiacc", "george"]

    @pytest.mark.parametrize("method", list(METHODS))
    def test_default_config_fits_tiny_setting(self, grid, method):
        setting = load_setting(grid / "rare_a0.1_r0")
        sdm = make_sdm(method).fit(setting.valid_emb, setting.valid_split)
        scores = sdm.transform(setting.test_emb, setting.test_split)
        assert scores.n == setting.test_emb.n

    def test_run_and_eval_accept_exactly_the_registry(self, runner, grid, tmp_path):
        fast = tmp_path / "fast.json"
        fast.write_text(json.dumps({"methods": {"spotlight": {"steps": 20}}}))
        for method in METHODS:
            result = runner.invoke(main, [
                "run", "--setting", str(grid / "rare_a0.1_r0"), "--method", method,
                "--config", str(fast),
            ])
            assert result.exit_code == 0, (method, result.output)
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"), "--methods", ",".join(METHODS),
            "--config", str(fast), "--out", str(tmp_path / "report"),
        ])
        assert result.exit_code == 0, result.output
        for command in (["run", "--setting", str(grid / "rare_a0.1_r0"), "--method"],
                        ["eval", "--manifest", str(grid / "manifest.json"),
                         "--out", str(tmp_path / "o"), "--methods"]):
            result = runner.invoke(main, command + ["george-pca"])
            assert result.exit_code == 2
            assert f"valid methods: {', '.join(METHODS)}" in result.output
