"""Natural-language slice descriptions via prototype/phrase retrieval.

A slice prototype is the score-weighted mean embedding of a discovered slice;
subtracting the prototype of the slice's dominant class distills it into a
query vector that is ranked against a corpus of phrase embeddings by plain
dot product. ``describe_slices`` ranks every slice's query in one pass over
the corpus: each row block is upcast to float64 once and multiplied by each
query alone, so the scores keep the bits of one query ranked at a time.
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


def _score_corpus(queries: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The ``(k, n)`` dot products of ``k`` float64 queries with every row."""
    n, d = values.shape
    # OpenBLAS (0.3.31, SkylakeX) computes a mat-vec four rows at a time and
    # the remainder rows with another kernel, so blocks of a multiple of 4 rows
    # give the whole matrix's one-thread bits; blocks of 1-3, 5-7, 109 or 333
    # rows do not. Blocks this small gave those bits at two BLAS threads too,
    # where the whole matrix's own product differs (at rows 2500, 5000 and
    # 5001 of 5003 x 768), so the scores do not depend on the thread count.
    # A block times all queries at once would be a GEMM, whose bits differ
    # from a GEMV's, so each query gets its own mat-vec of the block.
    rows = max(4, _BLOCK_VALUES // d // 4 * 4)
    scores = np.empty((len(queries), n))
    upcast = None if values.dtype == np.float64 else np.empty((min(rows, n), d))
    for a in range(0, n, rows):
        block = values[a : a + rows]
        if upcast is not None:
            upcast[: len(block)] = block
            block = upcast[: len(block)]
        for query, out in zip(queries, scores):
            np.matmul(block, query, out=out[a : a + rows])
    return scores


Ranking = list[tuple[str, float]]


def rank_phrases(
    proto: np.ndarray,
    class_proto: np.ndarray,
    corpus: PhraseCorpus,
    top: int = 10,
) -> Ranking | list[Ranking]:
    """The ``top`` phrases by dot product with the distilled slice prototype.

    Best first, none when ``top`` is below 1. Ties are broken toward the
    lower phrase index; a zero distilled prototype degenerates to corpus
    order and is logged with its row. A ``(k, d)`` stack of prototypes and
    class prototypes gives one such list per row, all scored in one pass
    over the corpus; a ``(d,)`` pair is a one-row stack and gives its list.
    The corpus is scored in float64 row blocks, each upcast from float32
    storage once and multiplied by every query alone, so each row's scores
    have the bits of its own ``(d,)`` call.
    """
    proto = np.asarray(proto, dtype=np.float64)
    class_proto = np.asarray(class_proto, dtype=np.float64)
    n, d = corpus.size, corpus.embeddings.d
    if proto.shape != class_proto.shape or proto.ndim not in (1, 2) or proto.shape[-1] != d:
        raise DimensionMismatch("prototype and corpus dimensionality disagree")
    queries = np.atleast_2d(proto - class_proto)
    # Also catches finite prototypes whose difference overflows.
    if not np.all(np.isfinite(queries)):
        raise ValueError("prototype vector must be finite")
    for j in np.flatnonzero(~queries.any(axis=1)):
        logger.warning("distilled prototype %d is zero; phrase ranking is degenerate", j)
    ranked: list[Ranking] = [[] for _ in queries]
    if top > 0:
        top = min(top, n)
        for row, out in zip(_score_corpus(queries, corpus.embeddings.values), ranked):
            # Every score tied with the top-th largest is a candidate, and a
            # stable sort of the candidates (in index order) breaks those ties
            # exactly as a stable sort of the whole corpus would.
            kth = np.partition(row, n - top)[n - top]
            candidates = np.flatnonzero(row >= kth)
            order = candidates[np.argsort(-row[candidates], kind="stable")[:top]]
            out.extend((corpus.phrases[i], float(row[i])) for i in order)
    return ranked[0] if proto.ndim == 1 else ranked


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
    protos, class_rows = [], []
    class_protos: dict[int, np.ndarray] = {}
    for j in range(scores.k_hat):
        weights = scores.scores[:, j]
        cls = dominant_class(split, weights)
        try:
            protos.append(slice_prototype(emb, weights))
        except ZeroMass as exc:
            raise ZeroMass(f"slice {j} carries no score mass") from exc
        if cls not in class_protos:
            class_protos[cls] = class_prototype(emb, split, cls)
        class_rows.append(class_protos[cls])
    # One call ranks every slice in one pass over the corpus.
    ranked = rank_phrases(np.array(protos), np.array(class_rows), corpus, top)
    return SliceScores(
        scores=scores.scores,
        method=scores.method,
        slice_descriptions=tuple(tuple(phrase for phrase, _ in r) for r in ranked),
    )


# --- corpus files -----------------------------------------------------------


def load_phrase_corpus(phrases_path: str | Path, embeddings_path: str | Path) -> PhraseCorpus:
    """Read phrases.tsv plus its row-aligned embeddings.

    Blank lines are skipped; a line whose phrase is empty is a
    ``SchemaError``. An EMB1 payload stays float32, which only
    ``rank_phrases`` reads.
    """
    # One cell per line, so a cell's index is its line number less one; None
    # marks a blank line, which is skipped.
    cells = [line.partition("\t")[0] if line else None for line in read_lines(phrases_path)]
    if "" in cells:
        raise SchemaError(f"{phrases_path}: line {cells.index('') + 1} has an empty phrase")
    phrases = [phrase for phrase in cells if phrase is not None]
    embeddings = load_embeddings(embeddings_path, dtype=np.float32)
    try:
        return PhraseCorpus(phrases=phrases, embeddings=embeddings)
    except ValueError as exc:
        raise SchemaError(f"{phrases_path}: {exc}") from exc
