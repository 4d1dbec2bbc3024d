"""Golden outputs: the exact bytes of fits, slice descriptions, settings and reports.

A change meant to leave results alone (a faster kernel, a leaner loop, a
smaller API) must keep these digests. A change that moves them on purpose must say why and
record the new values. The digests depend on the floating-point kernels of
the numpy/BLAS build as well as on slicekit (these were recorded with numpy
2.4.6 and scipy-openblas 0.3.31), so on a different build record them afresh
from an unchanged tree.
"""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import slicekit
from slicekit import (
    EmbeddingMatrix,
    FitConfig,
    GeorgeConfig,
    MixtureParams,
    MixtureSDM,
    PhraseCorpus,
    describe_slices,
    fit,
    make_synthetic_setting,
)
from slicekit.baselines import GeorgeSDM
from slicekit.cli import main
from slicekit.fileio import save_embeddings

from planted import natural_model


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


MIXTURE_DIGESTS = {
    "weights": "157f9fa460b27f45ad90b95ff61eb3d616a31fb80311351d84173ebd31f63d8d",
    "means": "b98396455bd723bca0698291897b81243dbbc094a3c5a710f8942f862a31ffe1",
    "variances": "682fc5a87de753f29887a34b0075339fc12725fdbbb52a736658e2f872d3fbda",
    "label_probs": "3435e983c45fc33d1359f07f3036a4f7cd96e0193feefc672f03751ba4457dae",
    "pred_probs": "bae99778fea7a9098dd34dac8235a2eb947e3eb68c3ca93af75364724360786a",
}

GEORGE_CENTER_DIGESTS = {
    0: "011fd44bf4ffdd08dd055801c9f8212a106ed68c924c58cc99469f3663999245",
    1: "b1643d4259a8c1dff04435bf567bf3d1d7c48e152e0eba7e145c154a99a14c62",
}


def golden_setting():
    return make_synthetic_setting(
        "rare", 0.1, n=400, d=8, seed=2,
        model=natural_model(seed=2),
    )


def test_fitted_bytes_are_pinned():
    setting = golden_setting()
    # 12 components over 4 confusion cells: the init runs k-means per cell
    params, diagnostics = fit(
        setting.valid_emb, setting.valid_split, FitConfig(k_bar=12, k_hat=3, seed=1)
    )
    assert {f.name: sha256(getattr(params, f.name)) for f in fields(MixtureParams)} == (
        MIXTURE_DIGESTS
    )
    assert (diagnostics.n_iter, diagnostics.converged) == (23, True)

    george = GeorgeSDM(GeorgeConfig(clusters_per_class=3, seed=1))
    george.fit(setting.valid_emb, setting.valid_split)
    centers = {c: sha256(by_class[2]) for c, by_class in george.by_class.items()}
    assert centers == GEORGE_CENTER_DIGESTS


HARD_PREDICTION_DIGESTS = {
    "weights": "5404f5b4bbc0213095a7b4671075a85b11a241e286cebfbbde17b78e8416bc97",
    "means": "0203f197fb651650c90f7bcd17520d541b248f05009c75a4b16197c99d7b70b3",
    "variances": "3cdf88b8e21e5d76f52b62c2ab9dba5b9b4281f7712ad8db1bd4cae745536314",
    "label_probs": "4b6f649d1517ad2f47d934068ac858971cf824da47a71ce15ab72b8b4507a989",
    "pred_probs": "2b6e64a51633be29698cf7dcc67754e160821567d269e741b7fc0ffafd08d4da",
    "log_likelihoods": "5de3aec447601027b7d3786a020d25de830fbae00ad17c61d1bca5eb3c66d832",
    "q": "8d6699d40fa413d6ce590bb411d368f318ae330aa565308ac817b924b352fbb3",
}


def test_hard_prediction_fit_is_pinned():
    # A split without probabilities enters EM as one-hot probabilities. These
    # digests were recorded when EM read hard predictions through a separate
    # lookup, so they pin that the one code path kept those bits. The tiny
    # tolerance runs every iteration under either stopping rule.
    setting = golden_setting()
    split = replace(setting.valid_split, prediction_probs=None)
    params, diagnostics = fit(
        setting.valid_emb, split, FitConfig(k_bar=12, k_hat=3, seed=1, max_iter=40, tol=1e-300)
    )
    digests = {f.name: sha256(getattr(params, f.name)) for f in fields(MixtureParams)}
    digests["log_likelihoods"] = sha256(np.array(diagnostics.log_likelihoods))
    digests["q"] = sha256(diagnostics.responsibilities.q)
    assert digests == HARD_PREDICTION_DIGESTS
    assert diagnostics.n_iter == 40


DESCRIPTIONS_DIGEST = "87cc5d342ff20919e21445e0a276c95687f074e15a877266267479ac66f5200d"


def test_descriptions_are_pinned():
    setting = golden_setting()
    emb, split = setting.valid_emb, setting.valid_split
    sdm = MixtureSDM(FitConfig(k_bar=12, k_hat=3, seed=1)).fit(emb, split)
    rng = np.random.default_rng(5)
    corpus = PhraseCorpus(
        phrases=tuple(f"phrase {i}" for i in range(300)),
        embeddings=EmbeddingMatrix(rng.standard_normal((300, emb.d))),
    )
    described = describe_slices(emb, split, sdm.transform(emb, split), corpus, top=8)
    text = json.dumps(described.slice_descriptions).encode()
    assert hashlib.sha256(text).hexdigest() == DESCRIPTIONS_DIGEST


def tree_sha256(root: Path) -> str:
    """sha256 over a directory's files: sorted relative paths, each with its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        digest.update(path.encode() + b"\0" + (root / path).read_bytes())
    return digest.hexdigest()


GRID_DIGEST = "0bfdba30d1c980635109b794a2fed9bf40ae9b2ab2708954a37a2cde69a10070"

REPORT_DIGESTS = {
    "report.json": "f6b06a0b93ba36c89f338ae29cc8ad2448fab217b187219e2ee2845e2c2d42cb",
    "report.md": "95893c7734ae1288f70e01744cc650a4f181631ccf6c38b09b8a72ea8698c90f",
}


def test_report_bytes_are_pinned(tmp_path, monkeypatch):
    # report.json records the manifest path as given, so the run uses a
    # relative one from the grid's parent directory.
    monkeypatch.chdir(tmp_path)
    Path("synth.json").write_text(json.dumps({
        "slice_types": ["rare", "correlation", "noisy_label"],
        "alphas": {"rare": [0.05], "correlation": [0.4], "noisy_label": [0.1]},
        "seeds": 2, "n": 400, "d": 6, "seed": 7,
        "model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                  "sens_out": 0.75, "spec_out": 0.75},
    }))
    runner = CliRunner()
    for args in (
        ["synth", "--config", "synth.json", "--out", "grid"],
        ["eval", "--manifest", "grid/manifest.json",
         "--methods", "domino,confusion,multiacc,george", "--out", "out"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert tree_sha256(tmp_path / "grid") == GRID_DIGEST
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in REPORT_DIGESTS
    }
    assert digests == REPORT_DIGESTS


SPOTLIGHT_DIGEST = "29f2fb4c7eb6b3eb7ac60c444dff992133b47359cfb488b6e5792671346ce587"


def test_spotlight_scores_are_pinned(tmp_path, monkeypatch):
    # The report pin above leaves Spotlight out, as too slow for a grid; this
    # pins its fitted scores on one small synth setting, as run writes them.
    monkeypatch.chdir(tmp_path)
    Path("synth.json").write_text(json.dumps({
        "slice_types": ["rare"], "alphas": {"rare": [0.1]}, "n": 400, "d": 8, "seed": 2,
        "model": {"sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75},
    }))
    runner = CliRunner()
    for args in (
        ["synth", "--config", "synth.json", "--out", "grid"],
        ["run", "--setting", "grid/rare_a0.1_r0", "--method", "spotlight", "--seed", "1",
         "--out", "scores.json"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    assert hashlib.sha256(Path("scores.json").read_bytes()).hexdigest() == SPOTLIGHT_DIGEST


GEN_DIGESTS = {
    "rare-synthetic": "3583e805ba7edbfe117370d28b137bf4abf3f8d190a409d933acbfa29f84152c",
    "rare-ingested": "a23e9fd81feb6832f771ca0999e055ae638b95add05f4d828a0cffcbd56dce1b",
    "correlation-synthetic": "6e28a4828fc50b4de45bd6002ca46b44b567df7b923fad93cbec38123115e643",
    "correlation-ingested": "6109965be9d6f5afa22ba5042d9f6b870ccf8476f6471d093284f8f00b902c08",
    "noisy_label-synthetic": "00b58618413c0a83ff77602b8186618998ec76dbf544a937b068496d28721728",
    "noisy_label-ingested": "b78f676127d1e213ed46a0c088d5025d184ae724612cb92b90748f6ce995db3b",
}


def test_gen_bytes_are_pinned(tmp_path, monkeypatch):
    # gen_config.json records the predictions path as given, so the paths
    # are relative to the working directory.
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(11)
    n_base = 2000
    y = rng.integers(0, 2, n_base)
    c = (rng.random(n_base) < np.where(y == 1, 0.45, 0.3)).astype(int)
    Path("base.csv").write_text(
        "id,target,tube\n" + "".join(f"{i},{y[i]},{c[i]}\n" for i in range(n_base))
    )
    save_embeddings(EmbeddingMatrix(rng.standard_normal((n_base, 4))), "base.emb")
    p1 = rng.random(n_base).round(4)
    Path("preds.csv").write_text("id,y_hat,p_0,p_1\n" + "".join(
        f"{i},{int(p > 0.5)},{1 - p:.4f},{p:.4f}\n" for i, p in enumerate(p1)
    ))
    models = {
        "synthetic": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
                      "sens_out": 0.75, "spec_out": 0.75, "seed": 4},
        "ingested": {"kind": "ingested", "predictions": "preds.csv"},
    }
    alphas = {"rare": 0.05, "correlation": 0.4, "noisy_label": 0.2}
    runner = CliRunner()
    digests = {}
    for slice_type, alpha in alphas.items():
        for name, model in models.items():
            out = f"{slice_type}-{name}"
            cfg = {"slice_type": slice_type, "alpha": alpha, "target": "target",
                   "attribute": "tube", "n": 300, "seed": 5, "model": model}
            Path("gen.json").write_text(json.dumps(cfg))
            result = runner.invoke(main, [
                "gen", "--base", "base.csv", "--embeddings", "base.emb",
                "--config", "gen.json", "--out", out,
            ])
            assert result.exit_code == 0, result.output
            digests[out] = tree_sha256(tmp_path / out)
    assert digests == GEN_DIGESTS


WIDE_DIGESTS = {
    "mixture": {
        "weights": "18b168261ef4788f151813fdfec6c41bb9597c0168920e7426313291d3f06c32",
        "means": "66563a0c6ebf6207f1be843123351d64993156e3ff7a833ef71bdd6af06a63ed",
        "variances": "84eb3213e40d16720ac3d782ae5ac1a0fd2698b54d83738807a631d00696a89e",
        "label_probs": "c0601a43846df1b092a83a466bc57cf8e3a4ea2eb47dcfe756dd0898743e1429",
        "pred_probs": "913cd3cb0fe9781a325fb95d3a15e317e8ce4371ec404d5e69bd8b7bd0105f60",
    },
    "n_iter": 36,
    "converged": True,
    # class -> [PCA basis, k-means centres]
    "george": {
        "0": [
            "1305348899db2d1ba235b647668a54a5a84c0caf45590150d96b55958d3282b8",
            "51402933e6ab4d10598ed5b29d6e052033a40adb2129b7aabc538076e495dabd",
        ],
        "1": [
            "9b7aebfc1b75463eb1a91578dc1b5588b85f1bc087059e8eeb6ef212eb96215a",
            "c3adbd54aeac197f50bf2dd9b03c1e9dd944946f33a2841bc1712efb28b986a1",
        ],
    },
}


def wide_fit_digests() -> dict:
    """Digests of a Domino and a GEORGE fit at d=300, where both run PCA.

    The 1,400 validation rows exceed pca_threshold's 256 columns, and each
    GEORGE class subset (about 700 rows) has n >= 2d, so both reductions
    take pca_basis's QR route.
    """
    setting = make_synthetic_setting(
        "rare", 0.1, n=2800, d=300, seed=3,
        model=natural_model(seed=3),
    )
    emb, split = setting.valid_emb, setting.valid_split
    assert min(np.bincount(split.labels)) >= 2 * emb.d
    params, diagnostics = fit(emb, split, FitConfig(k_bar=8, k_hat=3, seed=1))
    george = GeorgeSDM(GeorgeConfig(clusters_per_class=3, seed=1))
    george.fit(emb, split)
    return {
        "mixture": {f.name: sha256(getattr(params, f.name)) for f in fields(MixtureParams)},
        "n_iter": diagnostics.n_iter,
        "converged": diagnostics.converged,
        "george": {
            str(c): [sha256(basis), sha256(centers)]
            for c, (_, basis, centers) in george.by_class.items()
        },
    }


def test_wide_fitted_bytes_are_pinned():
    # OpenBLAS splits an SVD of this size across its threads, and the bits
    # follow the thread count, so the fit runs in a fresh interpreter with
    # one BLAS thread (as the benchmark runs it).
    paths = [str(Path(slicekit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONPATH": os.pathsep.join(p for p in paths if p),
    }
    run = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == WIDE_DIGESTS


if __name__ == "__main__":
    print(json.dumps(wide_fit_digests()))
