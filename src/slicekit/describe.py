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
from .fileio import load_embeddings, read_lines

logger = logging.getLogger(__name__)

_TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")

# float64 values per block when ranking a corpus: 256 KiB
_BLOCK_VALUES = 1 << 15


@dataclass(frozen=True)
class PhraseCorpus:
    """Candidate phrases with row-aligned embeddings."""

    phrases: tuple[str, ...]
    embeddings: EmbeddingMatrix

    def __post_init__(self) -> None:
        phrases = tuple(str(p) for p in self.phrases)
        if not phrases:
            raise EmptyCorpus("phrase corpus is empty")
        if len(phrases) != self.embeddings.n:
            raise ValueError(
                f"{len(phrases)} phrases but {self.embeddings.n} embedding rows"
            )
        object.__setattr__(self, "phrases", phrases)

    @property
    def size(self) -> int:
        return len(self.phrases)


def slice_prototype(emb: EmbeddingMatrix, weights: np.ndarray) -> np.ndarray:
    """Weighted mean embedding, normalized by total weight: a (d,) vector.

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
        raise ZeroMass("the weights carry no score mass")
    vector = (weights @ emb.values) / total
    # NaN weights pass both comparisons above and surface here.
    if not np.all(np.isfinite(vector)):
        raise ValueError("prototype vector must be finite")
    return vector


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
    proto: np.ndarray,
    class_proto: np.ndarray,
    corpus: PhraseCorpus,
    top: int = 10,
) -> list[tuple[str, float]]:
    """The ``top`` phrases by dot product with the distilled slice prototype.

    Best first, none when ``top`` is below 1. Ties are broken toward the
    lower phrase index; a zero distilled prototype degenerates to corpus
    order and is logged. The corpus is scored in float64 row blocks, upcast
    from float32 storage a block at a time.
    """
    proto = np.asarray(proto, dtype=np.float64).ravel()
    class_proto = np.asarray(class_proto, dtype=np.float64).ravel()
    if proto.shape[0] != corpus.embeddings.d or class_proto.shape[0] != corpus.embeddings.d:
        raise DimensionMismatch("prototype and corpus dimensionality disagree")
    query = proto - class_proto
    if not query.any():
        logger.warning("distilled prototype is zero; phrase ranking is degenerate")
    if top <= 0:
        return []
    values, n = corpus.embeddings.values, corpus.size
    # OpenBLAS (0.3.31, SkylakeX) computes a mat-vec four rows at a time and
    # the remainder rows with another kernel, so blocks of a multiple of 4 rows
    # give the whole matrix's one-thread bits; blocks of 1-3, 5-7, 109 or 333
    # rows do not. Blocks this small gave those bits at two BLAS threads too,
    # where the whole matrix's own product differs (at rows 2500, 5000 and
    # 5001 of 5003 x 768), so the scores do not depend on the thread count.
    rows = max(4, _BLOCK_VALUES // corpus.embeddings.d // 4 * 4)
    scores = np.empty(n)
    for a in range(0, n, rows):
        block = values[a : a + rows].astype(np.float64, copy=False)
        np.matmul(block, query, out=scores[a : a + rows])
    top = min(top, n)
    # Every score tied with the top-th largest is a candidate, and a stable
    # sort of the candidates (in index order) breaks those ties exactly as a
    # stable sort of the whole corpus would.
    kth = np.partition(scores, n - top)[n - top]
    candidates = np.flatnonzero(scores >= kth)
    order = candidates[np.argsort(-scores[candidates], kind="stable")[:top]]
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
    class_protos: dict[int, np.ndarray] = {}
    for j in range(scores.k_hat):
        weights = scores.scores[:, j]
        cls = dominant_class(split, weights)
        try:
            proto = slice_prototype(emb, weights)
        except ZeroMass as exc:
            raise ZeroMass(f"slice {j} carries no score mass") from exc
        if cls not in class_protos:
            class_protos[cls] = class_prototype(emb, split, cls)
        ranked = rank_phrases(proto, class_protos[cls], corpus, top)
        descriptions.append(tuple(phrase for phrase, _ in ranked))
    return SliceScores(
        scores=scores.scores,
        method=scores.method,
        slice_descriptions=tuple(descriptions),
    )


# --- corpus files -----------------------------------------------------------


def load_phrase_corpus(phrases_path: str | Path, embeddings_path: str | Path) -> PhraseCorpus:
    """Read phrases.tsv plus its row-aligned embeddings.

    An EMB1 payload stays float32, which only ``rank_phrases`` reads.
    """
    phrases = tuple(line.split("\t")[0] for line in read_lines(phrases_path) if line)
    embeddings = load_embeddings(embeddings_path, dtype=np.float32)
    try:
        return PhraseCorpus(phrases=phrases, embeddings=embeddings)
    except ValueError as exc:
        raise SchemaError(f"{phrases_path}: {exc}") from exc
