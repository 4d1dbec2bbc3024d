"""Planted-slice test data: Gaussian classes with a displaced slice subclass."""

import numpy as np

from slicekit.data import EmbeddingMatrix, LabeledSplit, SliceSetting
from slicekit.seeding import derive_rng
from slicekit.settings import SyntheticModelSpec, _round_half_up, apply_synthetic_model

# Threshold-crossing rates of a natural-image model: 0.4 inside the slice, 0.75 outside.
NATURAL_RATES = {"sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75}


def natural_model(seed=0):
    """The synthetic model with ``NATURAL_RATES``."""
    return SyntheticModelSpec(seed=seed, **NATURAL_RATES)


def gaussian_split(means, offset, sigma, groups, seed, name="planted"):
    """N(means[c] + s * offset, sigma^2 I) blocks per (c, s, count) group, shuffled."""
    rng = derive_rng(seed, "synth-embeddings")
    values = np.concatenate([
        means[c] + s * offset + sigma * rng.standard_normal((m, means.shape[1]))
        for c, s, m in groups
    ])
    order = rng.permutation(values.shape[0])
    classes, flags, counts = (np.array(col, dtype=np.int64) for col in zip(*groups))
    labels = np.repeat(classes, counts)[order]
    split = LabeledSplit(labels=labels, predictions=labels.copy(),
                         slices=np.repeat(flags, counts)[order, None],
                         slice_names=(name,), num_classes=max(2, means.shape[0]))
    return EmbeddingMatrix(values[order]), split


def planted_setting(n, d, seed, slice_frac=0.2, offset_sigmas=4.0, class_sep_sigmas=4.0,
                    sigma=1.0, model=None, slice_name="planted"):
    """Both splits hold two balanced classes; ``slice_frac`` of each is displaced.

    Slice membership is independent of the label, so at offset 0 the slice is
    invisible in every channel: a clean null control.
    """
    means = np.zeros((2, d))
    means[1, 0] = class_sep_sigmas * sigma
    offset = np.zeros(d)
    offset[1] = offset_sigmas * sigma

    def draw(tag, m):
        pos = m // 2
        s_pos, s_neg = _round_half_up(slice_frac * pos), _round_half_up(slice_frac * (m - pos))
        groups = ((0, 0, m - pos - s_neg), (0, 1, s_neg), (1, 0, pos - s_pos), (1, 1, s_pos))
        split_seed = derive_rng(seed, "planted", tag).integers(2**62)
        return gaussian_split(means, offset, sigma, groups, split_seed, slice_name)

    provenance = dict(generator="planted", slice_frac=slice_frac, offset_sigmas=offset_sigmas,
                      class_sep_sigmas=class_sep_sigmas, sigma=sigma, n=n, d=d, seed=seed)
    setting = SliceSetting(*draw("valid", n // 2), *draw("test", n - n // 2), slice_type="rare",
                           alpha=float(slice_frac), model_kind="trained_ingested",
                           seed=int(seed), provenance=provenance)
    return setting if model is None else apply_synthetic_model(setting, model)
