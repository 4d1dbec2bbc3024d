"""Command-line interface: synth, gen, run, eval, describe, report."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import slicekit
from slicekit import EmbeddingMatrix, FitConfig, MixtureSDM
from slicekit import evaluate
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
         {"mu_a": 2}, {"mu_b": 0},
         {"model": {"kind": "synthetic", "sens_in": float("nan"), "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75}},
         {"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75, "kappa": float("inf")}},
         # float() takes numeric strings and booleans; a JSON number field takes neither
         {"sigma": "2"}, {"sigma": True}, {"offset_sigmas": "4"},
         {"alphas": {"rare": ["0.05"]}},
         {"model": {"kind": "synthetic", "sens_in": "0.4", "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75}},
         {"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": True,
                    "sens_out": 0.75, "spec_out": 0.75}},
         {"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75, "kappa": True}},
         # a base numpy cannot hold as one array; never a size it could try to allocate
         {"n": 10**30}, {"d": 10**30},
         # rates outside [0, 1] are not clamped into it
         {"model": {"kind": "synthetic", "sens_in": 7.5, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": -2}}],
    )
    def test_non_numeric_config_exit_two(self, runner, tmp_path, change):
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "alphas": {"rare": [0.05]}, **change})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad synth configuration" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"n": 400.9}, "n must be an integer, got 400.9"),
         ({"d": 4.7}, "d must be an integer, got 4.7"),
         ({"seed": 7.5}, "seed must be an integer, got 7.5"),
         ({"seed": True}, "seed must be an integer, got True"),
         ({"seeds": 2.5}, "seeds must be an integer, got 2.5"),
         ({"seeds": [0, 1.5]}, "seeds[1] must be an integer, got 1.5"),
         ({"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75, "seed": 1.5}},
          "model seed must be an integer, got 1.5")],
        ids=["n", "d", "seed", "seed-true", "seeds", "seeds-entry", "model-seed"],
    )
    def test_fractional_integer_exit_two(self, runner, tmp_path, change, message):
        # int() would truncate these: n 400.9 and d 4.7 wrote n=400, d=4
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "alphas": {"rare": [0.05]}, **change})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"bad synth configuration: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, message",
        [({"sigmaa": 3}, "unknown synth parameters: sigmaa"),
         ({"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                     "sens_out": 0.75, "spec_out": 0.75, "kapa": 50.0}},
          "unknown model parameters: kapa")],
        ids=["top-level", "model"],
    )
    def test_unknown_key_exit_two(self, runner, tmp_path, change, message):
        # a misspelled optional field must not fall back to its default
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], "alphas": {"rare": [0.05]}, **change})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert f"bad synth configuration: {message}" in result.output
        assert not out.exists()

    def test_integer_too_large_for_a_number_field_exit_two(self, runner, tmp_path):
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [10**400]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad synth configuration: int too large to convert to float" in result.output
        assert not out.exists()

    def test_config_without_model_exit_two(self, runner, tmp_path):
        # without a model every prediction equals its label, and eval excludes every setting
        cfg = synth_config(tmp_path, slice_types=["rare"], alphas={"rare": [0.05]})
        doc = json.loads(cfg.read_text())
        del doc["model"]
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad synth configuration: model is required" in result.output
        assert not out.exists()

    def test_integer_and_float_numbers_give_identical_settings(self, runner, tmp_path):
        # a float field holds a float, so provenance records kappa 5 as 5.0
        trees = []
        for kappa in (5, 5.0):
            work = tmp_path / repr(kappa)
            work.mkdir()
            model = {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                     "sens_out": 0.75, "spec_out": 0.75, "kappa": kappa}
            grid = synth_grid(runner, work, seeds=1, n=100, d=4, model=model)
            trees.append({
                path.relative_to(grid): path.read_bytes() for path in grid.rglob("*")
                if path.is_file() and path.name != "synth_config.json"
            })
        assert len(trees[0]) > 1
        assert trees[0] == trees[1]

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

    @pytest.mark.parametrize("overrides", [{"seeds": 0}, {"alphas": {"rare": []}}])
    def test_empty_grid_exit_two(self, runner, tmp_path, overrides):
        cfg = synth_config(tmp_path, **{"slice_types": ["rare"], **overrides})
        out = tmp_path / "out"
        result = runner.invoke(main, ["synth", "--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert "bad synth configuration: synth grid is empty" in result.output
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


GEN_MODEL = {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75}


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
                "attribute": "tube", "n": 2000, "seed": 1, "model": GEN_MODEL,
            })
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 8 * n_base * d, f"peak {peak / (8 * n_base * d):.2f} x the base in float64"

    def test_only_the_sampled_rows_are_held(self, runner, tmp_path):
        # the payload streams through a buffer of whole rows, and only the
        # sampled rows are kept, so gen never holds the base's payload
        n_base, d = 8000, 512
        base, emb_path, _ = write_base(tmp_path, n_base, d, seed=5)
        tracemalloc.start()
        try:
            result = run_gen(runner, tmp_path, base, emb_path, {
                "slice_type": "rare", "alpha": 0.1, "target": "target",
                "attribute": "tube", "n": 400, "seed": 1, "model": GEN_MODEL,
            })
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == 0, result.output
        assert peak < 0.5 * 4 * n_base * d, f"peak {peak / (4 * n_base * d):.2f} x the payload"

    def test_nan_in_an_unsampled_row_fails(self, runner, tmp_path):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
               "n": 100, "seed": 2, "model": GEN_MODEL}
        assert run_gen(runner, tmp_path, base, emb_path, cfg).exit_code == 0
        rows = json.loads((tmp_path / "setting" / "setting.json").read_text())["provenance"]["base_rows"]
        unsampled = sorted(set(range(400)) - set(rows["valid"]) - set(rows["test"]))[0]
        payload = bytearray(emb_path.read_bytes())
        payload[20 + 4 * 3 * unsampled : 24 + 4 * 3 * unsampled] = np.float32(np.nan).tobytes()
        emb_path.write_bytes(bytes(payload))
        shutil.rmtree(tmp_path / "setting")
        result = run_gen(runner, tmp_path, base, emb_path, cfg)
        assert result.exit_code == 1, result.output
        assert f"{emb_path}: embedding payload contains NaN or Inf" in result.output
        assert not (tmp_path / "setting").exists()
        # with a second fault in the base table, that one is reported
        result = run_gen(runner, tmp_path, base, emb_path, {**cfg, "n": 1000})
        assert result.exit_code == 1, result.output
        assert "has 100 base rows, 450 requested" in result.output
        assert not (tmp_path / "setting").exists()

    def test_truncated_base_embeddings_fail(self, runner, tmp_path):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        emb_path.write_bytes(emb_path.read_bytes()[:-4])
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
            "n": 100, "model": GEN_MODEL,
        })
        assert result.exit_code == 1, result.output
        assert "4816 bytes, expected 4820" in result.output
        assert not (tmp_path / "setting").exists()

    @pytest.mark.parametrize("rows", [399, 401])
    def test_base_embeddings_of_another_row_count_fail(self, runner, tmp_path, rows):
        base, _, _ = write_base(tmp_path, 400, 3, seed=0)
        emb_path = tmp_path / "other.emb"
        save_embeddings(EmbeddingMatrix(np.ones((rows, 3))), emb_path)
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
            "n": 100, "model": GEN_MODEL,
        })
        assert result.exit_code == 1, result.output
        assert f"embeddings have {rows} rows, expected 400" in result.output
        assert not (tmp_path / "setting").exists()

    @pytest.mark.parametrize("longer", [False, True], ids=["short", "long"])
    def test_predictions_of_another_row_count_fail(self, runner, tmp_path, longer):
        # the short file covers every sampled row, yet the README asks for
        # one row per base-table row
        base, emb_path, _ = write_base(tmp_path, 1200, 4, seed=1)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube",
               "n": 40, "seed": 0}
        assert run_gen(runner, tmp_path, base, emb_path, {**cfg, "model": GEN_MODEL}).exit_code == 0
        sampled = json.loads((tmp_path / "setting" / "setting.json").read_text())["provenance"]["base_rows"]
        shutil.rmtree(tmp_path / "setting")
        rows = 1210 if longer else max(sampled["valid"] + sampled["test"]) + 1
        assert rows != 1200
        preds = tmp_path / "preds.csv"
        preds.write_text("id,y_hat\n" + "".join(f"{i},{i % 2}\n" for i in range(rows)))
        result = run_gen(runner, tmp_path, base, emb_path,
                         {**cfg, "model": {"kind": "ingested", "predictions": str(preds)}})
        assert result.exit_code == 1, result.output
        assert f"predictions have {rows} rows, base table has 1200" in result.output
        assert not (tmp_path / "setting").exists()

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
        assert "bad gen configuration: model predictions" in result.output

    def test_config_without_model_exit_two(self, runner, tmp_path):
        # without a model every prediction would equal its label, and eval would exclude the setting
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        result = run_gen(runner, tmp_path, base, emb_path, {
            "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "tube", "n": 100,
        })
        assert result.exit_code == 2, result.output
        assert "bad gen configuration: model is required" in result.output
        assert not (tmp_path / "setting").exists()

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
         {"alpha": 0.5},
         # float() takes numeric strings and booleans; a JSON number field takes neither
         {"slice_type": "correlation", "alpha": "0.6"}, {"mu_a": "0.5"},
         {"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                    "sens_out": "0.75", "spec_out": 0.75}},
         # rates outside [0, 1] are not clamped into it
         {"model": {"kind": "synthetic", "sens_in": 7.5, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": -2}}],
    )
    def test_non_numeric_config_exit_two(self, runner, tmp_path, change):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target",
               "attribute": "tube", "n": 100, "model": GEN_MODEL, **change}
        result = run_gen(runner, tmp_path, base, emb_path, cfg)
        assert result.exit_code == 2, result.output
        assert "bad gen configuration" in result.output


    @pytest.mark.parametrize(
        "change, message",
        [({"n": 100.5}, "n must be an integer, got 100.5"),
         ({"n": True}, "n must be an integer, got True"),
         ({"seed": 2.5}, "seed must be an integer, got 2.5"),
         ({"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                    "sens_out": 0.75, "spec_out": 0.75, "seed": 1.5}},
          "model seed must be an integer, got 1.5"),
         ({"model": {"kind": "foo"}}, "model kind must be 'synthetic' or 'ingested', got 'foo'"),
         ({"model": [1]}, "model must be an object, got [1]")],
        ids=["n", "n-true", "seed", "model-seed", "model-kind", "model-list"],
    )
    def test_fractional_integer_exit_two(self, runner, tmp_path, change, message):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target",
               "attribute": "tube", "n": 100, "model": GEN_MODEL, **change}
        result = run_gen(runner, tmp_path, base, emb_path, cfg)
        assert result.exit_code == 2, result.output
        assert f"bad gen configuration: {message}" in result.output


    @pytest.mark.parametrize(
        "change, message",
        [({"alpah": 0.2}, "unknown gen parameters: alpah"),
         ({"model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                     "sens_out": 0.75, "spec_out": 0.75, "kapa": 50.0}},
          "unknown model parameters: kapa"),
         ({"model": {"kind": "ingested", "predictions": "preds.csv", "sens_in": 0.4}},
          "unknown model parameters: sens_in")],
        ids=["top-level", "synthetic-model", "ingested-model"],
    )
    def test_unknown_key_exit_two(self, runner, tmp_path, change, message):
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = {"slice_type": "rare", "alpha": 0.1, "target": "target",
               "attribute": "tube", "n": 100, "model": GEN_MODEL, **change}
        result = run_gen(runner, tmp_path, base, emb_path, cfg)
        assert result.exit_code == 2, result.output
        assert f"bad gen configuration: {message}" in result.output
        assert not (tmp_path / "setting").exists()


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

    def test_run_has_no_description_options(self, runner):
        # descriptions come from `describe` on a `run --score-split valid` scores file,
        # and hyperparameters from --config
        for option in ("--phrases", "--phrase-embeddings", "--top",
                       "--gamma", "--kbar", "--k-bar", "--steps", "--eta"):
            result = runner.invoke(main, ["run", option, "3", "--setting", "x", "--method", "confusion"])
            assert result.exit_code == 2
            assert "No such option" in result.output and option in result.output

    @pytest.mark.parametrize(
        "field, value, message",
        [("k_hat", 0, "k_hat must lie in [1, k_bar=25], got 0"),
         ("k_hat", -1, "k_hat must lie in [1, k_bar=25], got -1"),
         ("gamma", float("nan"), "gamma must be finite and non-negative, got nan"),
         ("gamma", float("inf"), "gamma must be finite and non-negative, got inf"),
         ("pca_dim", 0, "pca_dim must be at least 1"),
         ("init_noise", float("nan"), "init_noise must be finite and non-negative, got nan"),
         ("init_noise", float("inf"), "init_noise must be finite and non-negative, got inf"),
         ("init_noise", -1, "init_noise must be finite and non-negative, got -1.0"),
         ("cov_floor", float("inf"), "cov_floor must be finite and positive, got inf"),
         ("cov_floor", float("nan"), "cov_floor must be finite and positive, got nan"),
         ("tol", float("inf"), "tol must be finite and positive, got inf"),
         ("tol", float("nan"), "tol must be finite and positive, got nan")],
        ids=["k-hat-zero", "k-hat-negative", "gamma-nan", "gamma-inf", "pca-dim-zero",
             "init-noise-nan", "init-noise-inf", "init-noise-negative", "cov-floor-inf",
             "cov-floor-nan", "tol-inf", "tol-nan"],
    )
    def test_bad_domino_flag_exit_two(self, runner, setting_dir, tmp_path, field, value, message):
        # the bad value reaches run through the domino section of --config
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {"domino": {field: value}}}))
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "domino",
            "--config", str(method_cfg), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"bad domino configuration: {message}" in result.output
        assert not out.exists()

    def test_fractional_config_integer_exit_two(self, runner, setting_dir, tmp_path):
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {"domino": {"k_bar": 25.5}}}))
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "domino",
            "--config", str(method_cfg), "--out", str(out),
        ])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "bad domino configuration: k_bar must be an integer, got 25.5" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, section, message",
        [("domino", {"k_bar": 2000}, "need at least k_bar=2000 examples"),
         ("spotlight", {"min_mass_fraction": 0.0005},
          "min_mass_fraction admits no examples at this n")],
        ids=["domino-k-bar", "spotlight-min-mass-fraction"],
    )
    def test_fit_precondition_exit_one(self, runner, setting_dir, tmp_path, method, section, message):
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {method: section}}))
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", method, "--config", str(method_cfg),
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
        method_cfg = tmp_path / "methods.json"
        method_cfg.write_text(json.dumps({"methods": {"domino": {"gamma": 10, "k_bar": 25}}}))
        out = tmp_path / "scores.json"
        result = runner.invoke(main, [
            "run", "--setting", str(setting_dir), "--method", "domino",
            "--config", str(method_cfg), "--seed", "5", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        cli_scores = load_scores(out)

        setting = load_setting(setting_dir)
        sdm = MixtureSDM(FitConfig(gamma=10, k_bar=25, seed=5))
        sdm.fit(setting.valid_emb, setting.valid_split)
        lib_scores = sdm.transform(setting.test_emb, setting.test_split)
        assert np.array_equal(cli_scores.scores, lib_scores.scores)


@pytest.mark.parametrize(
    "doc, message",
    [({"method": {"domino": {"k_bar": 3}}}, "unknown --config parameters: method"),
     ({"methods": {"domino": 5}}, "methods['domino'] must be an object, got 5"),
     ({"methods": [{"domino": {}}]}, "methods must be an object, got [{'domino': {}}]"),
     ({"methods": {"dominoo": {}}}, "unknown method 'dominoo'; valid methods: domino,")],
    ids=["top-level-key", "section-not-object", "methods-not-object", "unknown-method"],
)
@pytest.mark.parametrize("command", ["run", "eval"])
def test_bad_config_file_exit_two(runner, tmp_path, command, doc, message):
    grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
    method_cfg = tmp_path / "methods.json"
    method_cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    where = (["--setting", str(grid / "rare_a0.1_r0"), "--method", "domino"] if command == "run"
             else ["--manifest", str(grid / "manifest.json"), "--methods", "domino"])
    result = runner.invoke(main, [command, *where, "--config", str(method_cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"bad --config configuration: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command, method", [("run", "domino"), ("eval", "domino"), ("eval", "confusion")])
def test_seed_in_a_method_section_exit_two(runner, tmp_path, command, method):
    # a fit's seed comes only from --seed; eval derives each task's seed from it
    grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
    method_cfg = tmp_path / "methods.json"
    method_cfg.write_text(json.dumps({"methods": {method: {"seed": 3}}}))
    out = tmp_path / "out"
    where = (["--setting", str(grid / "rare_a0.1_r0"), "--method", method] if command == "run"
             else ["--manifest", str(grid / "manifest.json"), "--methods", method])
    result = runner.invoke(main, [command, *where, "--config", str(method_cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"bad {method} configuration: seed is set by --seed" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "section, message",
    [({"gammma": 10}, "gammma"), ({"gammma": 10, "seed": 4}, "seed is set by --seed")],
    ids=["misspelled-key", "seed"],
)
@pytest.mark.parametrize("command", ["run", "eval"])
def test_section_of_a_method_not_run_is_checked(runner, tmp_path, command, section, message):
    # confusion runs, yet a fault in the domino section still exits 2
    grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
    method_cfg = tmp_path / "methods.json"
    method_cfg.write_text(json.dumps({"methods": {"domino": section}}))
    out = tmp_path / "out"
    where = (["--setting", str(grid / "rare_a0.1_r0"), "--method", "confusion"] if command == "run"
             else ["--manifest", str(grid / "manifest.json"), "--methods", "confusion"])
    result = runner.invoke(main, [command, *where, "--config", str(method_cfg), "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "bad domino configuration" in result.output and message in result.output
    assert not out.exists()


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

    def test_out_holds_only_the_two_reports(self, runner, tmp_path):
        # the resolved options are report.json's ``config``; no other file repeats them
        grid = synth_grid(runner, tmp_path, seeds=1, n=200, d=4)
        out = tmp_path / "report"
        result = runner.invoke(main, [
            "eval", "--manifest", str(grid / "manifest.json"), "--methods", "confusion",
            "--out", str(out), "--k", "5",
        ])
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.md"]
        config = json.loads((out / "report.json").read_text())["config"]
        assert config == {"manifest": str(grid / "manifest.json"), "methods": ["confusion"], "seed": 0,
                          "k": 5, "beta": 0.5, "method_configs": {}}

    def test_out_that_cannot_be_made_fails_before_any_fit(self, runner, tmp_path, monkeypatch):
        manifest = synth_grid(runner, tmp_path, seeds=1, n=200, d=4) / "manifest.json"
        fits = []
        monkeypatch.setattr(evaluate, "run_setting", lambda *a, **k: fits.append(a))
        afile = tmp_path / "afile"
        afile.write_text("")
        result = runner.invoke(main, [
            "eval", "--manifest", str(manifest), "--methods", "confusion", "--out", str(afile),
        ])
        assert result.exit_code == 1, result.output
        assert "File exists" in result.output
        assert fits == []

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
            ("domino", {"k_hat": -1}, "k_hat must lie in [1, k_bar=25], got -1"),
            ("domino", {"gamma": float("nan")}, "gamma must be finite and non-negative, got nan"),
            ("domino", {"gamma": float("inf")}, "gamma must be finite and non-negative, got inf"),
            ("domino", {"pca_dim": 0}, "pca_dim must be at least 1"),
            ("george", {"restarts": 0}, "restarts must be at least 1"),
            ("george", {"reduce_dim": 0}, "reduce_dim must be at least 1"),
            ("george", {"clusters_per_class": -1}, "clusters_per_class must be None or"),
            ("george", {"clusters_per_class": 0}, "clusters_per_class must be None or"),
            ("spotlight", {"num_spotlights": 0, "steps": 5}, "num_spotlights must be"),
            ("domino", {"init_noise": float("nan")}, "init_noise must be finite and non-negative"),
            ("domino", {"init_noise": float("inf")}, "init_noise must be finite and non-negative, got inf"),
            ("domino", {"init_noise": -1}, "init_noise must be finite and non-negative, got -1.0"),
            ("domino", {"cov_floor": float("inf")}, "cov_floor must be finite and positive"),
            ("domino", {"cov_floor": float("nan")}, "cov_floor must be finite and positive, got nan"),
            ("domino", {"tol": float("inf")}, "tol must be finite and positive, got inf"),
            ("domino", {"tol": float("nan")}, "tol must be finite and positive, got nan"),
            ("spotlight", {"learning_rate": float("nan")}, "learning_rate must be finite and positive"),
            ("spotlight", {"learning_rate": -1}, "learning_rate must be finite and positive"),
            ("spotlight", {"learning_rate": float("inf")}, "learning_rate must be finite and positive"),
            ("multiacc", {"ridge_lambda": float("nan")}, "ridge_lambda must be finite and positive"),
            ("multiacc", {"ridge_lambda": -1e9}, "ridge_lambda must be finite and positive"),
            ("multiacc", {"eta": float("inf")}, "eta must be finite and positive"),
            ("multiacc", {"eta": float("nan")}, "eta must be finite and positive"),
            ("domino", {"k_bar": 25.5}, "k_bar must be an integer, got 25.5"),
            ("domino", {"max_iter": True}, "max_iter must be an integer, got True"),
            ("domino", {"gamma": True}, "gamma must be a number, got True"),
            ("george", {"reduce_dim": 2.5}, "reduce_dim must be an integer, got 2.5"),
            ("george", {"clusters_per_class": 2.5}, "clusters_per_class must be an integer"),
            ("george", {"max_iter": -3}, "max_iter must be at least 1"),
            ("spotlight", {"steps": 2.5}, "steps must be an integer, got 2.5"),
            ("multiacc", {"rounds": 1.5}, "rounds must be an integer, got 1.5"),
        ],
        ids=["domino-bogus", "domino-k-hat", "domino-k-hat-negative", "domino-gamma-nan",
             "domino-gamma-inf", "domino-pca-dim", "george-restarts", "george-reduce-dim",
             "george-clusters-negative", "george-clusters-zero", "spotlight-num-spotlights",
             "domino-init-noise-nan", "domino-init-noise-inf", "domino-init-noise-negative",
             "domino-cov-floor-inf", "domino-cov-floor-nan", "domino-tol-inf", "domino-tol-nan",
             "spotlight-learning-rate-nan",
             "spotlight-learning-rate-negative", "spotlight-learning-rate-inf",
             "multiacc-ridge-lambda-nan", "multiacc-ridge-lambda-negative", "multiacc-eta-inf",
             "multiacc-eta-nan", "domino-k-bar-fraction", "domino-max-iter-bool", "domino-gamma-bool",
             "george-reduce-dim-fraction", "george-clusters-fraction", "george-max-iter-negative",
             "spotlight-steps-fraction", "multiacc-rounds-fraction"],
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
             "bad report document: ValueError: results[0] method is required"),
            ({"config": {"seed": 0}, "results": []}, "bad report document: KeyError: 'k'"),
            ({"config": {"k": "five", "seed": 0}, "results": []},
             "bad report document: ValueError: k must be an integer, got 'five'"),
            ({"config": {"k": 10, "seed": 0}, "results": []}, "no results"),
            ({"config": {"k": 10, "seed": 0}, "results": [ROW, {**ROW, "setting_id": "b"}, ROW]},
             "rows repeat setting/method pairs: a [confusion]"),
            # a trained-model row read as degraded would be counted, not excluded
            ({"config": {"k": 10, "seed": 0},
              "results": [{**ROW, "model_kind": "trained_ingested", "degraded": "false"}]},
             "bad report document: ValueError: results[0] degraded must be true or false, got 'false'"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "success_at_beta": 1}]},
             "bad report document: ValueError: results[0] success_at_beta must be true or false, got 1"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "best_slices": [1.9]}]},
             "bad report document: ValueError: results[0] best_slices[0] must be an integer, got 1.9"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "best_slices": [True]}]},
             "bad report document: ValueError: results[0] best_slices[0] must be an integer, got True"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "precisions": [True, "0.5"]}]},
             "bad report document: ValueError: results[0] precisions[0] must be a number, got True"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "alpha": "0.1"}]},
             "bad report document: ValueError: results[0] alpha must be a number, got '0.1'"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "alpha": float("nan")}]},
             "bad report document: ValueError: results[0] alpha must be a finite number, got nan"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "slice_type": "rarest"}]},
             "bad report document: ValueError: results[0] slice_type must be one of rare, correlation, "
             "noisy_label, got 'rarest'"),
            # an unknown model kind would never be excluded
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "model_kind": "trained"}]},
             "bad report document: ValueError: results[0] model_kind must be one of trained_ingested, "
             "synthetic, got 'trained'"),
            ({"config": {"k": True, "seed": 0}, "results": [ROW]},
             "bad report document: ValueError: k must be an integer, got True"),
            ({"config": {"k": 10.7, "seed": 0}, "results": [ROW]},
             "bad report document: ValueError: k must be an integer, got 10.7"),
            ({"config": {"k": "10", "seed": 0}, "results": [ROW]},
             "bad report document: ValueError: k must be an integer, got '10'"),
            ({"config": {"k": 0, "seed": 0}, "results": [ROW]},
             "bad report document: ValueError: k must be at least 1, got 0"),
            ({"config": {"k": 10, "seed": 1.5}, "results": [ROW]},
             "bad report document: ValueError: seed must be an integer, got 1.5"),
            ({"config": [10, 0], "results": [ROW]},
             "bad report document: ValueError: config must be a JSON object, got [10, 0]"),
            ({"config": {"k": 10, "seed": 0}, "results": [None]},
             "bad report document: ValueError: results[0] must be an object, got None"),
            ({"config": {"k": 10, "seed": 0}, "results": [{**ROW, "precisions": []}]},
             "bad report document: ValueError: results[0] precisions must be non-empty and lie in [0, 1], got ()"),
            # an error row was written back with str() of its id, and with unknown keys
            ({"config": {"k": 10, "seed": 0}, "results": [ROW],
              "errors": [{"setting_id": 5, "method": "domino", "error": "missing"}]},
             "bad report document: ValueError: errors[0] setting_id must be a string, got 5"),
            ({"config": {"k": 10, "seed": 0}, "results": [ROW],
              "errors": [{"setting_id": "c", "method": "domino"}]},
             "bad report document: ValueError: errors[0] error is required"),
            ({"config": {"k": 10, "seed": 0}, "results": [ROW],
              "errors": [{"setting_id": "c", "method": "domino", "error": "missing", "at": 1}]},
             "bad report document: ValueError: unknown errors[0] parameters: at"),
            ({"config": {"k": 10, "seed": 0}, "results": [ROW], "errors": ["c: missing"]},
             "bad report document: ValueError: errors[0] must be an object, got 'c: missing'"),
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


# ``slicekit run --help``: hyperparameters come only from --config and a fit's
# seed only from --seed, so no option is generated from a config dataclass.
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
  --help                      Show this message and exit.
"""


def out_args(runner, tmp_path, command):
    """Arguments that run ``command`` to success, all but its --out."""
    if command == "synth":
        return ["synth", "--config", str(synth_config(tmp_path, slice_types=["rare"],
                                                      alphas={"rare": [0.05]}, seeds=1))]
    if command == "gen":
        base, emb_path, _ = write_base(tmp_path, 400, 3, seed=0)
        cfg = tmp_path / "gen.json"
        cfg.write_text(json.dumps({"slice_type": "rare", "alpha": 0.1, "target": "target",
                                   "attribute": "tube", "n": 100, "model": GEN_MODEL}))
        return ["gen", "--base", str(base), "--embeddings", str(emb_path), "--config", str(cfg)]
    evaluate = ["eval", "--manifest", str(synth_grid(runner, tmp_path, seeds=1, n=200, d=4) / "manifest.json"),
                "--methods", "confusion"]
    if command == "eval":
        return evaluate
    assert runner.invoke(main, evaluate + ["--out", str(tmp_path / "report")]).exit_code == 0
    return ["report", "--results", str(tmp_path / "report" / "report.json")]


@pytest.mark.parametrize("command", ["synth", "gen", "eval", "report"])
def test_out_that_cannot_be_made_exits_one_with_a_message(runner, tmp_path, command):
    # a raw FileExistsError escaped each of these, eval's after it had fitted every setting
    afile = tmp_path / "afile"
    afile.write_text("")
    result = runner.invoke(main, out_args(runner, tmp_path, command) + ["--out", str(afile)])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Error:" in result.output and "File exists" in result.output
    assert "Traceback" not in result.output
    assert afile.read_text() == ""


# Every option of every command. A new option, or one a change leaves behind,
# shows here first; ``synth`` and ``gen`` take their seed from the config only.
OPTIONS = {
    "synth": ["--config", "--out"],
    "gen": ["--base", "--embeddings", "--config", "--out"],
    "run": ["--setting", "--method", "--out", "--config", "--score-split", "--k", "--seed"],
    "eval": ["--manifest", "--methods", "--out", "--config", "--jobs", "--seed", "--k", "--beta"],
    "describe": ["--setting", "--scores", "--phrases", "--phrase-embeddings", "--out", "--top"],
    "report": ["--results", "--out"],
}


def test_each_command_has_exactly_its_options():
    options = {name: [opt for param in command.params for opt in param.opts]
               for name, command in main.commands.items()}
    assert options == OPTIONS
    assert sum(map(len, options.values())) == 29


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

    @pytest.mark.parametrize("method", list(METHODS))
    def test_each_method_names_its_frozen_config(self, method):
        config = METHODS[method].Config
        assert dataclasses.is_dataclass(config) and config.__dataclass_params__.frozen
        assert {f.name: f.default for f in dataclasses.fields(config)}["seed"] == 0
        cfg = dataclasses.replace(config(), seed=3)
        assert make_sdm(method, cfg).cfg is cfg
        assert make_sdm(method).cfg == config()

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
