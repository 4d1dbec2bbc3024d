"""Golden fits: the exact bytes of a Domino and a GEORGE fit on one setting.

A change meant to leave results alone (a faster kernel, a leaner loop) must
keep these digests. A change that moves them on purpose must say why and
record the new values. The digests depend on the floating-point kernels of
the numpy/BLAS build as well as on slicekit, so on a different build record
them afresh from an unchanged tree.
"""

import hashlib
from dataclasses import fields

import numpy as np

from slicekit import (
    FitConfig,
    GeorgeConfig,
    MixtureParams,
    SyntheticModelSpec,
    fit,
    make_synthetic_setting,
)
from slicekit.baselines import GeorgeSDM


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


MIXTURE_DIGESTS = {
    "weights": "fbd225630a854763a408f439d06d60205061b974e40a2b8de0788afd40316e5e",
    "means": "26cbdeaa99376503466b0c068f8e8a429b7e61a6bc8a8333e05243624a930c5b",
    "variances": "07985232b9f9a80577aa125b22d0c40602747c3ebd489e6e0ab535d7fe655827",
    "label_probs": "8012a84ad87728864b91e797124d431a1661b60c763f03af5146d6ae01c02a6d",
    "pred_probs": "cfc8c8cfff568c8576c346f560e02758c7544816d8118cd5e76b5096332fe2c5",
}

GEORGE_CENTER_DIGESTS = {
    0: "011fd44bf4ffdd08dd055801c9f8212a106ed68c924c58cc99469f3663999245",
    1: "b1643d4259a8c1dff04435bf567bf3d1d7c48e152e0eba7e145c154a99a14c62",
}


def test_fitted_bytes_are_pinned():
    setting = make_synthetic_setting(
        "rare", 0.1, n=400, d=8, seed=2,
        model=SyntheticModelSpec.natural_defaults(seed=2),
    )
    # 12 components over 4 confusion cells: the init runs k-means per cell
    params, diagnostics = fit(
        setting.valid_emb, setting.valid_split, FitConfig(k_bar=12, k_hat=3, seed=1)
    )
    assert {f.name: sha256(getattr(params, f.name)) for f in fields(MixtureParams)} == (
        MIXTURE_DIGESTS
    )
    assert (diagnostics.n_iter, diagnostics.converged) == (54, True)

    george = GeorgeSDM(GeorgeConfig(clusters_per_class=3, seed=1))
    george.fit(setting.valid_emb, setting.valid_split)
    centers = {c: sha256(by_class[2]) for c, by_class in george.by_class.items()}
    assert centers == GEORGE_CENTER_DIGESTS
