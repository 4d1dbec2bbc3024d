"""Natural-language slice descriptions via prototype/phrase retrieval.

A slice prototype is the score-weighted mean embedding of a discovered slice;
subtracting the prototype of the slice's dominant class distills it into a
query vector that is ranked against a corpus of phrase embeddings by plain
dot product.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .data import EmbeddingMatrix, LabeledSplit, SliceScores, check_pair
from .errors import DimensionMismatch, EmptyClass, EmptyCorpus, SchemaError, ZeroMass
from .fileio import load_embeddings, read_json, read_lines

logger = logging.getLogger(__name__)

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


@dataclass(frozen=True)
class PhraseCorpus:
    """Candidate phrases with row-aligned embeddings and optional synonyms."""

    phrases: tuple[str, ...]
    embeddings: EmbeddingMatrix
    synonyms: Mapping[str, frozenset[str]] | None = None

    def __post_init__(self) -> None:
        phrases = tuple(str(p) for p in self.phrases)
        if not phrases:
            raise EmptyCorpus("phrase corpus is empty")
        if len(phrases) != self.embeddings.n:
            raise ValueError(
                f"{len(phrases)} phrases but {self.embeddings.n} embedding rows"
            )
        object.__setattr__(self, "phrases", phrases)
        if self.synonyms is not None:
            norm = {
                str(k): frozenset(str(v) for v in vs) for k, vs in self.synonyms.items()
            }
            object.__setattr__(self, "synonyms", norm)

    @property
    def size(self) -> int:
        return len(self.phrases)


@dataclass(frozen=True)
class SlicePrototype:
    """Weighted mean embedding of one discovered slice, before distillation."""

    vector: np.ndarray
    slice_index: int
    dominant_class: int

    def __post_init__(self) -> None:
        vector = np.asarray(self.vector, dtype=np.float64).ravel()
        if not np.all(np.isfinite(vector)):
            raise ValueError("prototype vector must be finite")
        vector.setflags(write=False)
        object.__setattr__(self, "vector", vector)


def slice_prototype(
    emb: EmbeddingMatrix,
    weights: np.ndarray,
    slice_index: int = 0,
    dominant_class: int = -1,
) -> SlicePrototype:
    """Weighted mean embedding, normalized by total weight.

    Normalization makes the prototype invariant to uniform rescaling of the
    score column.
    """
    weights = np.asarray(weights, dtype=np.float64).ravel()
    if weights.shape[0] != emb.n:
        raise ValueError("one weight per example is required")
    if weights.min() < 0:
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ZeroMass(f"slice {slice_index} carries no score mass")
    vector = (weights @ emb.values) / total
    return SlicePrototype(vector=vector, slice_index=slice_index, dominant_class=dominant_class)


def class_prototype(emb: EmbeddingMatrix, split: LabeledSplit, class_idx: int) -> np.ndarray:
    """Unweighted mean embedding of the class members."""
    check_pair(emb, split)
    members = split.labels == class_idx
    if not members.any():
        raise EmptyClass(f"class {class_idx} has no members")
    return emb.values[members].mean(axis=0)


def dominant_class(split: LabeledSplit, weights: np.ndarray) -> int:
    """Class with the largest score-weighted label mass, ties to lower index."""
    weights = np.asarray(weights, dtype=np.float64).ravel()
    mass = np.zeros(split.num_classes)
    np.add.at(mass, split.labels, weights)
    return int(np.argmax(mass))


def rank_phrases(
    proto: SlicePrototype,
    class_proto: np.ndarray,
    corpus: PhraseCorpus,
    top: int = 10,
) -> list[tuple[str, float]]:
    """Phrases ranked by dot product with the distilled slice prototype.

    Ties are broken toward the lower phrase index; a zero distilled prototype
    degenerates to corpus order and is logged.
    """
    class_proto = np.asarray(class_proto, dtype=np.float64).ravel()
    if proto.vector.shape[0] != corpus.embeddings.d or class_proto.shape[0] != corpus.embeddings.d:
        raise DimensionMismatch("prototype and corpus dimensionality disagree")
    query = proto.vector - class_proto
    if not query.any():
        logger.warning("distilled prototype is zero; phrase ranking is degenerate")
    scores = corpus.embeddings.values @ query
    order = np.argsort(-scores, kind="stable")[: max(0, top)]
    return [(corpus.phrases[i], float(scores[i])) for i in order]


def _tokens(text: str) -> list[str]:
    return [t for t in _TOKEN_SPLIT.split(text.lower()) if t]


def _contains_tokens(haystack: list[str], needle: list[str]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(
        haystack[i : i + len(needle)] == needle
        for i in range(len(haystack) - len(needle) + 1)
    )


def name_recall_at_k(
    ranked_phrases: Sequence[str],
    name: str,
    synonyms: Mapping[str, Sequence[str]] | None,
    k: int,
) -> bool:
    """Whether the slice name or a synonym occurs in any of the top-k phrases.

    Matching is case-insensitive on whole punctuation-stripped tokens;
    multi-word names must appear as a contiguous token run.
    """
    candidates = [name]
    if synonyms:
        candidates.extend(synonyms.get(name, ()))
    needles = [_tokens(c) for c in candidates]
    for phrase in list(ranked_phrases)[: max(0, k)]:
        haystack = _tokens(phrase)
        if any(_contains_tokens(haystack, needle) for needle in needles):
            return True
    return False


def describe_slices(
    emb: EmbeddingMatrix,
    split: LabeledSplit,
    scores: SliceScores,
    corpus: PhraseCorpus,
    top: int = 10,
) -> SliceScores:
    """Attach top-ranked phrases per discovered slice to a scores object.

    Prototypes are built from the split the scores were computed on, which
    must be the validation split used to fit the method.
    """
    check_pair(emb, split)
    if scores.n != emb.n:
        raise DimensionMismatch(
            f"scores cover {scores.n} examples but the split has {emb.n}; "
            "descriptions are built from the validation split the method was fit on"
        )
    if corpus.embeddings.d != emb.d:
        raise DimensionMismatch(
            f"corpus d={corpus.embeddings.d} but input embeddings d={emb.d}"
        )
    descriptions = []
    for j in range(scores.k_hat):
        weights = scores.scores[:, j]
        cls = dominant_class(split, weights)
        proto = slice_prototype(emb, weights, slice_index=j, dominant_class=cls)
        ranked = rank_phrases(proto, class_prototype(emb, split, cls), corpus, top)
        descriptions.append(tuple(phrase for phrase, _ in ranked))
    return SliceScores(
        scores=scores.scores,
        method=scores.method,
        slice_descriptions=tuple(descriptions),
    )


# --- corpus files -----------------------------------------------------------


def load_phrase_corpus(
    phrases_path: str | Path,
    embeddings_path: str | Path,
    synonyms_path: str | Path | None = None,
) -> PhraseCorpus:
    """Read phrases.tsv plus aligned embeddings, and an optional synonym map."""
    phrases = tuple(line.split("\t")[0] for line in read_lines(phrases_path) if line)
    embeddings = load_embeddings(embeddings_path)
    raw = None if synonyms_path is None else read_json(synonyms_path)
    if raw is not None and not isinstance(raw, dict):
        raise SchemaError(f"{synonyms_path}: synonyms map names to phrase lists")
    try:
        synonyms = None if raw is None else {k: frozenset(v) for k, v in raw.items()}
        return PhraseCorpus(phrases=phrases, embeddings=embeddings, synonyms=synonyms)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{phrases_path}: {exc}") from exc
