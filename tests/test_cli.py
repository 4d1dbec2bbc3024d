"""Command-line interface: synth, gen, run, eval, describe, report."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from slicekit import EmbeddingMatrix, FitConfig, MixtureSDM
from slicekit.cli import main
from slicekit.evaluate import METHODS, make_sdm
from slicekit.fileio import load_scores, load_setting, save_embeddings


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


class TestGen:
    def test_generate_from_base_table(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        n_base = 2000
        y = (np.arange(n_base) % 2).astype(int)
        c = ((np.arange(n_base) // 2) % 2).astype(int)
        base = tmp_path / "base.csv"
        base.write_text(
            "id,target,tube\n"
            + "".join(f"{i},{y[i]},{c[i]}\n" for i in range(n_base))
        )
        emb_path = tmp_path / "base.emb"
        save_embeddings(EmbeddingMatrix(rng.standard_normal((n_base, 5))), emb_path)
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

    def test_ingested_predictions(self, runner, tmp_path):
        rng = np.random.default_rng(1)
        n_base = 1200
        y = (np.arange(n_base) % 2).astype(int)
        c = ((np.arange(n_base) // 2) % 2).astype(int)
        base = tmp_path / "base.csv"
        base.write_text(
            "id,target,tube\n"
            + "".join(f"{i},{y[i]},{c[i]}\n" for i in range(n_base))
        )
        emb_path = tmp_path / "base.emb"
        save_embeddings(EmbeddingMatrix(rng.standard_normal((n_base, 4))), emb_path)
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


class TestRun:
    @pytest.fixture()
    def setting_dir(self, runner, tmp_path):
        cfg = synth_config(
            tmp_path, slice_types=["rare"], alphas={"rare": [0.1]},
            seeds=1, n=400, d=6,
        )
        out = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out / "rare_a0.1_r0"

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
        cfg = synth_config(
            tmp_path, slice_types=["rare"], alphas={"rare": [0.05, 0.1]},
            seeds=2, n=200, d=4,
        )
        grid = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
        assert result.exit_code == 0, result.output
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
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.1]}, seeds=1, n=200, d=4)
        grid = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
        assert result.exit_code == 0, result.output
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

    def test_bad_config_section_exit_two(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.1]}, seeds=1, n=200, d=4)
        grid = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
        assert result.exit_code == 0, result.output
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {"domino": {"bogus": 1}}}))
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"), "--methods", "domino",
            "--config", str(method_cfg), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert "bogus" in result.output
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
        cfg = synth_config(
            tmp_path, slice_types=["correlation"], alphas={"correlation": [0.6]},
            seeds=1, n=300, d=6,
        )
        grid = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
        assert result.exit_code == 0, result.output
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
    def test_describe_appends_phrases(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.1]}, seeds=1, n=300, d=6)
        grid = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
        assert result.exit_code == 0, result.output
        setting_dir = grid / "rare_a0.1_r0"

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

        out = tmp_path / "described.json"
        result = runner.invoke(main, [
            "describe", "--setting", str(setting_dir),
            "--scores", str(scores_path),
            "--phrases", str(phrases), "--phrase-embeddings", str(emb_path),
            "--out", str(out), "--top", "3",
        ])
        assert result.exit_code == 0, result.output
        described = load_scores(out)
        assert described.slice_descriptions is not None
        assert len(described.slice_descriptions) == described.k_hat
        assert len(described.slice_descriptions[0]) == 3


class TestReportCommand:
    def test_reaggregation_round_trip(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.1]}, seeds=2, n=200, d=4)
        grid = tmp_path / "grid"
        runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(grid)])
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
  --k INTEGER                 [default: 10]
  --seed INTEGER              [default: 0]
  --phrases PATH
  --phrase-embeddings PATH
  --synonyms PATH
  --top INTEGER               [default: 10]
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
        cfg = synth_config(
            tmp_path, slice_types=["rare"], alphas={"rare": [0.1]}, seeds=1, n=200, d=4,
        )
        out = tmp_path / "grid"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        return out

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
