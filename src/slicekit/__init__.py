"""Slice discovery engine and evaluation harness.

Fits an error-aware mixture model over precomputed embeddings to find
coherent, underperforming data slices; generates benchmark slice discovery
settings; compares baseline methods; and ranks natural-language phrases as
slice descriptions.
"""

from .data import (
    ALPHA_RANGES,
    EmbeddingMatrix,
    LabeledSplit,
    SliceScores,
    SliceSetting,
    check_alpha,
)
from .baselines import (
    GeorgeConfig,
    MultiaccuracyConfig,
    SpotlightConfig,
)
from .describe import (
    PhraseCorpus,
    class_prototype,
    describe_slices,
    rank_phrases,
    slice_prototype,
)
from .evaluate import (
    METHODS,
    AggregateReport,
    SettingResult,
    aggregate,
    check_degradation,
    precision_at_k,
    run_setting,
)
from .fileio import (
    load_embeddings,
    load_scores,
    load_setting,
    load_split,
    save_embeddings,
    save_scores,
    save_setting,
    save_split,
)
from .mixture import (
    FitConfig,
    FitDiagnostics,
    MixtureParams,
    MixtureSDM,
    Responsibilities,
    e_step,
    fit,
    init_confusion,
    m_step,
    reduce_dim,
    score,
    select_slices,
)
from .settings import (
    BaseTable,
    SyntheticModelSpec,
    apply_ingested_predictions,
    apply_synthetic_model,
    build_correlation_setting,
    build_noisy_setting,
    build_rare_setting,
    correlation_counts,
    make_synthetic_setting,
    solve_beta,
    synth_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_RANGES",
    "AggregateReport",
    "BaseTable",
    "EmbeddingMatrix",
    "FitConfig",
    "FitDiagnostics",
    "GeorgeConfig",
    "LabeledSplit",
    "METHODS",
    "MixtureParams",
    "MixtureSDM",
    "MultiaccuracyConfig",
    "PhraseCorpus",
    "Responsibilities",
    "SettingResult",
    "SliceScores",
    "SliceSetting",
    "SpotlightConfig",
    "SyntheticModelSpec",
    "aggregate",
    "apply_ingested_predictions",
    "apply_synthetic_model",
    "build_correlation_setting",
    "build_noisy_setting",
    "build_rare_setting",
    "check_alpha",
    "check_degradation",
    "class_prototype",
    "correlation_counts",
    "describe_slices",
    "e_step",
    "fit",
    "init_confusion",
    "load_embeddings",
    "load_scores",
    "load_setting",
    "load_split",
    "m_step",
    "make_synthetic_setting",
    "precision_at_k",
    "rank_phrases",
    "reduce_dim",
    "run_setting",
    "save_embeddings",
    "save_scores",
    "save_setting",
    "save_split",
    "score",
    "select_slices",
    "slice_prototype",
    "solve_beta",
    "synth_predictions",
]
