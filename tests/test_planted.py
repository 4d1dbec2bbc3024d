"""Planted settings: test data, pinned bit for bit, and not part of slicekit.

Acceptance criteria 2 and 6 and several mixture tests draw their data from
``planted.py``. The sha256 digests below were recorded from the library
generator it replaced (``make_planted_setting`` and the displaced-cluster
layout), so that data is unchanged.
"""

import hashlib
import importlib

import numpy as np
import pytest

import slicekit
from slicekit import SyntheticModelSpec

from planted import NATURAL_RATES, planted_setting
from test_mixture import planted_single_class_slice


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def split_digests(emb, split) -> str:
    """sha256 prefixes of values, labels, predictions, probabilities and slices."""
    arrays = (emb.values, split.labels, split.predictions, split.prediction_probs, split.slices)
    return " ".join(sha256(a) for a in arrays)


CRITERION_2 = {
    "valid": "b9e37472f203a080 2707f704e73c04ef c73c7e203e6eee12 3624c640c2bf4375 b02c61e8306793c3",
    "test": "07737feb65abc7f6 e3a675348f67a7f9 1b93b0e40a21485a f78ca9516fd2db40 39f4fa9b303fc086",
}

CRITERION_6 = {
    "valid": "283223aa2926eb50 d213648cdff2c94b eacd8ab51ba1ea20 4999e6a45a2123b2 9e83d0a77d1db293",
    "test": "7381760f98577ed6 81dcfcd3dacd5b62 f57e3d18772406f9 b9b32e1256f0f49c f4dd92a2ae027e31",
}

SINGLE_CLASS = "f6b13dafa1491b0a ae10865504721fe2 baca449bd8ce86b9 4ff34303e71eea4a 05d35db712fbf012"


@pytest.mark.parametrize(
    "n, d, digests", [(4000, 32, CRITERION_2), (1200, 16, CRITERION_6)],
    ids=["criterion-2", "criterion-6"],
)
def test_planted_setting_bits(n, d, digests):
    setting = planted_setting(n, d, 0, slice_frac=0.2, model=SyntheticModelSpec(seed=0, **NATURAL_RATES))
    assert {
        "valid": split_digests(setting.valid_emb, setting.valid_split),
        "test": split_digests(setting.test_emb, setting.test_split),
    } == digests
    assert setting.provenance == dict(
        generator="planted", slice_frac=0.2, offset_sigmas=4.0, class_sep_sigmas=4.0,
        sigma=1.0, n=n, d=d, seed=0,
        model={"kind": "synthetic", **NATURAL_RATES, "kappa": 5.0, "seed": 0},
    )
    assert (setting.slice_type, setting.alpha, setting.model_kind, setting.seed) == (
        "rare", 0.2, "synthetic", 0,
    )
    assert setting.valid_split.slice_names == ("planted",)


def test_planted_setting_without_model_keeps_labels_as_predictions():
    bare = planted_setting(1200, 16, 0)
    for part in ("valid", "test"):
        emb, split = getattr(bare, f"{part}_emb"), getattr(bare, f"{part}_split")
        values, labels, _, _, slices = CRITERION_6[part].split()
        assert [sha256(a) for a in (emb.values, split.labels, split.slices)] == [values, labels, slices]
        assert np.array_equal(split.predictions, split.labels) and split.prediction_probs is None
    assert bare.model_kind == "trained_ingested" and "model" not in bare.provenance


def test_single_class_slice_bits():
    emb, split = planted_single_class_slice(1200, 8, seed=0)
    assert split_digests(emb, split) == SINGLE_CLASS
    assert (split.slice_names, split.num_classes) == (("planted",), 2)


def test_exports_resolve_and_the_planted_stack_is_gone():
    assert len(set(slicekit.__all__)) == len(slicekit.__all__)
    for name in slicekit.__all__:
        assert hasattr(slicekit, name), name
    removed = ("ClusterLayout", "synth_embeddings", "make_planted_setting", "DegenerateSpec")
    for module in ("slicekit", "slicekit.settings", "slicekit.errors"):
        for name in removed:
            assert not hasattr(importlib.import_module(module), name), (module, name)
    for module in ("slicekit", "slicekit.describe", "slicekit.mixture"):
        for name in ("SlicePrototype", "save_model", "load_model"):
            assert not hasattr(importlib.import_module(module), name), (module, name)
    for module in ("slicekit", "slicekit.settings", "slicekit.data"):
        for name in ("CellCounts", "alpha_in_range"):
            assert not hasattr(importlib.import_module(module), name), (module, name)
    assert slicekit.check_alpha is slicekit.data.check_alpha
