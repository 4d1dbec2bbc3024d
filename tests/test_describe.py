"""Slice description: prototypes and phrase ranking."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

import slicekit
from slicekit import (
    EmbeddingMatrix,
    LabeledSplit,
    PhraseCorpus,
    SliceScores,
    class_prototype,
    describe_slices,
    rank_phrases,
    slice_prototype,
)
from slicekit import describe
from slicekit.describe import dominant_class, load_phrase_corpus
from slicekit.errors import DimensionMismatch, EmptyClass, EmptyCorpus, ZeroMass
from slicekit.fileio import save_embeddings


def tiny_split(labels):
    labels = np.asarray(labels)
    return LabeledSplit(
        labels=labels,
        predictions=labels.copy(),
        slices=np.zeros((labels.shape[0], 1), dtype=int),
        slice_names=("s",),
        num_classes=int(labels.max()) + 1 if labels.max() >= 1 else 2,
    )


class TestSlicePrototype:
    def test_one_hot_weights(self):
        rng = np.random.default_rng(0)
        emb = EmbeddingMatrix(rng.standard_normal((10, 4)))
        weights = np.zeros(10)
        weights[7] = 1.0
        proto = slice_prototype(emb, weights)
        assert np.array_equal(proto, emb.values[7])

    def test_uniform_weights_global_mean(self):
        rng = np.random.default_rng(1)
        emb = EmbeddingMatrix(rng.standard_normal((20, 3)))
        proto = slice_prototype(emb, np.full(20, 0.05))
        assert np.abs(proto - emb.values.mean(axis=0)).max() <= 1e-12

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        emb = EmbeddingMatrix(rng.standard_normal((100, 8)))
        weights = rng.random(100)
        proto = slice_prototype(emb, weights)
        total = sum(float(w) for w in weights)
        expected = np.zeros(8)
        for i in range(100):
            expected += weights[i] * emb.values[i]
        expected /= total
        assert np.abs(proto - expected).max() <= 1e-10

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(3)
        emb = EmbeddingMatrix(rng.standard_normal((30, 5)))
        weights = rng.random(30)
        a = slice_prototype(emb, weights)
        b = slice_prototype(emb, weights * 123.0)
        assert np.abs(a - b).max() <= 1e-12

    def test_zero_mass(self):
        emb = EmbeddingMatrix(np.ones((5, 2)))
        with pytest.raises(ZeroMass):
            slice_prototype(emb, np.zeros(5))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_weights(self, bad):
        emb = EmbeddingMatrix(np.ones((5, 2)))
        with pytest.raises(ValueError):
            slice_prototype(emb, np.array([bad, 1.0, 1.0, 0.0, 0.0]))


class TestClassPrototype:
    def test_indicator_weights_match_slice_prototype(self):
        rng = np.random.default_rng(4)
        emb = EmbeddingMatrix(rng.standard_normal((40, 6)))
        labels = rng.integers(2, size=40)
        split = tiny_split(labels)
        for c in (0, 1):
            direct = class_prototype(emb, split, c)
            via_weights = slice_prototype(emb, (labels == c).astype(float))
            assert np.abs(direct - via_weights).max() <= 1e-12

    def test_empty_class(self):
        emb = EmbeddingMatrix(np.ones((3, 2)))
        split = tiny_split([0, 0, 0])
        with pytest.raises(EmptyClass):
            class_prototype(emb, split, 1)

    def test_dominant_class_weighted(self):
        split = tiny_split([0, 0, 1])
        # two class-0 examples with small weight vs one heavy class-1 example
        assert dominant_class(split, np.array([0.1, 0.1, 0.9])) == 1
        assert dominant_class(split, np.array([0.5, 0.5, 0.3])) == 0


def orthogonal_corpus(query, n_phrases, d, seed, aligned_at=0):
    """One phrase embedding along the query, the rest orthogonal to it."""
    rng = np.random.default_rng(seed)
    unit = query / np.linalg.norm(query)
    vectors = []
    for i in range(n_phrases):
        if i == aligned_at:
            vectors.append(unit)
            continue
        v = rng.standard_normal(d)
        v -= (v @ unit) * unit
        vectors.append(v / np.linalg.norm(v))
    phrases = tuple(
        "the aligned phrase" if i == aligned_at else f"distractor {i}"
        for i in range(n_phrases)
    )
    return PhraseCorpus(phrases=phrases, embeddings=EmbeddingMatrix(np.array(vectors)))


class TestRankPhrases:
    def test_aligned_phrase_wins(self):
        d = 8
        query = np.zeros(d)
        query[2] = 3.0
        corpus = orthogonal_corpus(query, 30, d, seed=5, aligned_at=7)
        proto = slice_prototype(EmbeddingMatrix(query[None, :]), np.ones(1))
        ranked = rank_phrases(proto, np.zeros(d), corpus, top=5)
        assert ranked[0][0] == "the aligned phrase"

    def test_zero_prototype_degenerates_to_corpus_order(self, caplog):
        corpus = PhraseCorpus(
            phrases=("a", "b", "c"),
            embeddings=EmbeddingMatrix(np.eye(3)),
        )
        proto = slice_prototype(EmbeddingMatrix(np.ones((2, 3))), np.ones(2))
        with caplog.at_level("WARNING"):
            ranked = rank_phrases(proto, np.ones(3), corpus, top=3)
        assert [p for p, _ in ranked] == ["a", "b", "c"]
        assert all(s == 0.0 for _, s in ranked)
        assert any("degenerate" in r.message for r in caplog.records)

    def test_zero_row_of_a_stack_is_named(self, caplog):
        corpus = PhraseCorpus(phrases=("a", "b", "c"), embeddings=EmbeddingMatrix(np.eye(3)))
        protos = np.array([[0.0, 0.0, 2.0], [1.0, 1.0, 1.0], [0.0, 3.0, 0.0]])
        class_protos = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        with caplog.at_level("WARNING"):
            ranked = rank_phrases(protos, class_protos, corpus, top=1)
        assert [r.getMessage() for r in caplog.records] == [
            "distilled prototype 1 is zero; phrase ranking is degenerate"
        ]
        assert [[p for p, _ in row] for row in ranked] == [["c"], ["a"], ["b"]]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prototype(self, bad):
        corpus = PhraseCorpus(phrases=tuple("abcdef"), embeddings=EmbeddingMatrix(np.eye(6)))
        good = np.ones(6)
        broken = good.copy()
        broken[4] = bad
        for proto, class_proto in ((broken, good), (good, broken)):
            with pytest.raises(ValueError, match="prototype vector must be finite"):
                rank_phrases(proto, class_proto, corpus, top=5)
        # only the last row of a stack is broken
        stack = np.array([good, 2 * good, broken])
        with pytest.raises(ValueError, match="prototype vector must be finite"):
            rank_phrases(stack, np.zeros((3, 6)), corpus, top=5)

    def test_finite_prototypes_whose_difference_overflows(self):
        corpus = PhraseCorpus(phrases=("a", "b"), embeddings=EmbeddingMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="prototype vector must be finite"):
            rank_phrases(np.array([1e308, 0.0]), np.array([-1e308, 0.0]), corpus, top=1)

    @pytest.mark.parametrize("shapes", [((3,), (3,)), ((2, 3), (2, 3)), ((2, 4), (4,)),
                                        ((2, 4), (3, 4)), ((1, 2, 4), (1, 2, 4))])
    def test_prototype_shapes_must_match_the_corpus(self, shapes):
        corpus = PhraseCorpus(phrases=("a", "b"), embeddings=EmbeddingMatrix(np.ones((2, 4))))
        with pytest.raises(DimensionMismatch):
            rank_phrases(np.ones(shapes[0]), np.zeros(shapes[1]), corpus, top=1)

    def test_hand_computed_two_dimensional(self):
        corpus = PhraseCorpus(
            phrases=("east", "north", "diag"),
            embeddings=EmbeddingMatrix(
                np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
            ),
        )
        proto = slice_prototype(
            EmbeddingMatrix(np.array([[2.0, 1.0]])), np.ones(1)
        )
        ranked = rank_phrases(proto, np.array([0.0, 0.0]), corpus, top=3)
        # dot products: east 2.0, north 1.0, diag 2.1
        assert [p for p, _ in ranked] == ["diag", "east", "north"]
        assert ranked[0][1] == pytest.approx(2.1)

    def test_orthogonal_shift_invariance(self):
        d = 6
        query = np.zeros(d)
        query[0] = 2.0
        corpus = orthogonal_corpus(query, 20, d, seed=6, aligned_at=3)
        proto = slice_prototype(EmbeddingMatrix(query[None, :]), np.ones(1))
        base = [p for p, _ in rank_phrases(proto, np.zeros(d), corpus, top=20)]
        shift = np.zeros(d)
        shift[1] = 5.0  # orthogonal to the distilled prototype
        shifted = PhraseCorpus(
            phrases=corpus.phrases,
            embeddings=EmbeddingMatrix(corpus.embeddings.values + shift),
        )
        moved = [p for p, _ in rank_phrases(proto, np.zeros(d), shifted, top=20)]
        assert base == moved

    def test_positive_scaling_invariance(self):
        d = 5
        rng = np.random.default_rng(7)
        corpus = PhraseCorpus(
            phrases=tuple(f"p{i}" for i in range(15)),
            embeddings=EmbeddingMatrix(rng.standard_normal((15, d))),
        )
        query = rng.standard_normal(d)
        proto_a = slice_prototype(EmbeddingMatrix(query[None, :]), np.ones(1))
        proto_b = slice_prototype(EmbeddingMatrix(7.5 * query[None, :]), np.ones(1))
        a = [p for p, _ in rank_phrases(proto_a, np.zeros(d), corpus, top=15)]
        b = [p for p, _ in rank_phrases(proto_b, np.zeros(d), corpus, top=15)]
        assert a == b


# Small integers and signed zeros, so that equal scores (and -0.0 against
# 0.0) are common and the tie rule decides the order.
_ENTRIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@st.composite
def ranking_case(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_ENTRIES, min_size=d, max_size=d), min_size=n, max_size=n))
    query = draw(st.lists(_ENTRIES, min_size=d, max_size=d))
    extra_top = draw(st.integers(1, n))
    return np.array(rows), np.array(query), extra_top


@st.composite
def stacked_ranking_case(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 4))
    vectors = st.lists(_ENTRIES, min_size=d, max_size=d)
    rows = draw(st.lists(vectors, min_size=n, max_size=n))
    protos = draw(st.lists(vectors, min_size=k, max_size=k))
    class_protos = draw(st.lists(vectors, min_size=k, max_size=k))
    top = draw(st.sampled_from([-1, 0, 1, n - 1, n, n + 3]) | st.integers(1, n))
    return np.array(rows), np.array(protos), np.array(class_protos), top


def bits(ranked):
    """A ranking with its scores as exact bit patterns (-0.0 differs from 0.0)."""
    return [(phrase, score.hex()) for phrase, score in ranked]


class TestRankPhrasesProperty:
    @hsettings(max_examples=200, deadline=None)
    @given(ranking_case())
    def test_equals_stable_sort_of_all_scores(self, case):
        rows, query, extra_top = case
        n = rows.shape[0]
        corpus = PhraseCorpus(
            phrases=tuple(f"p{i}" for i in range(n)), embeddings=EmbeddingMatrix(rows)
        )
        class_proto = np.zeros(query.shape[0])
        scores = corpus.embeddings.values @ (query - class_proto)
        for top in (1, n - 1, n, n + 3, extra_top):
            reference = np.argsort(-scores, kind="stable")[:top]
            ranked = rank_phrases(query, class_proto, corpus, top=top)
            assert [p for p, _ in ranked] == [f"p{i}" for i in reference]
            assert np.array_equal(
                np.array([s for _, s in ranked]).view(np.int64),
                scores[reference].view(np.int64),
            )

    @hsettings(max_examples=200, deadline=None)
    @given(stacked_ranking_case())
    def test_stacked_rows_equal_per_row_calls(self, case):
        rows, protos, class_protos, top = case
        corpus = PhraseCorpus(
            phrases=tuple(f"p{i}" for i in range(rows.shape[0])), embeddings=EmbeddingMatrix(rows)
        )
        stacked = rank_phrases(protos, class_protos, corpus, top=top)
        assert len(stacked) == protos.shape[0]
        for ranked, proto, class_proto in zip(stacked, protos, class_protos):
            assert bits(ranked) == bits(rank_phrases(proto, class_proto, corpus, top=top))

    @pytest.mark.parametrize("top", [0, -1])
    def test_top_below_one_is_empty(self, top):
        corpus = PhraseCorpus(phrases=("a", "b"), embeddings=EmbeddingMatrix(np.eye(2)))
        assert rank_phrases(np.ones(2), np.zeros(2), corpus, top=top) == []
        assert rank_phrases(np.ones((3, 2)), np.zeros((3, 2)), corpus, top=top) == [[], [], []]


class TestDescribeSlices:
    def test_end_to_end_descriptions(self):
        rng = np.random.default_rng(9)
        d = 6
        values = rng.standard_normal((50, d))
        values[:25, 0] += 4.0  # slice cluster along e0
        emb = EmbeddingMatrix(values)
        labels = np.zeros(50, dtype=int)
        labels[::2] = 1
        split = tiny_split(labels)
        weights = np.zeros((50, 1))
        weights[:25, 0] = 1.0
        scores = SliceScores(scores=weights, method="manual")
        query = np.zeros(d)
        query[0] = 1.0
        corpus = orthogonal_corpus(query, 40, d, seed=10, aligned_at=4)
        described = describe_slices(emb, split, scores, corpus, top=3)
        assert described.slice_descriptions[0][0] == "the aligned phrase"

    def test_each_slice_is_distilled_by_its_own_dominant_class(self):
        rng = np.random.default_rng(11)
        d = 5
        values = rng.standard_normal((60, d))
        values[:20] += 3.0 * np.eye(d)[1]
        emb = EmbeddingMatrix(values)
        labels = np.repeat([0, 1, 2], 20)
        split = tiny_split(labels)
        # slices 0 and 2 are dominated by class 2, slice 1 by class 0
        weights = np.zeros((60, 3))
        weights[40:, 0] = 1.0
        weights[:20, 1] = 1.0
        weights[45:, 2] = 1.0
        weights[:5, 2] = 0.5
        scores = SliceScores(scores=weights, method="manual")
        corpus = PhraseCorpus(
            phrases=tuple(f"p{i}" for i in range(30)),
            embeddings=EmbeddingMatrix(rng.standard_normal((30, d))),
        )
        described = describe_slices(emb, split, scores, corpus, top=4)
        expected = []
        for j in range(3):
            cls = dominant_class(split, weights[:, j])
            proto = slice_prototype(emb, weights[:, j])
            ranked = rank_phrases(proto, class_prototype(emb, split, cls), corpus, top=4)
            expected.append(tuple(p for p, _ in ranked))
        assert [dominant_class(split, weights[:, j]) for j in range(3)] == [2, 0, 2]
        assert described.slice_descriptions == tuple(expected)

    def test_one_ranking_call_ranks_every_slice(self, monkeypatch):
        rng = np.random.default_rng(12)
        emb = EmbeddingMatrix(rng.standard_normal((40, 4)))
        split = tiny_split(rng.integers(0, 2, 40))
        scores = SliceScores(rng.random((40, 5)), "manual")
        corpus = PhraseCorpus(
            phrases=tuple(f"p{i}" for i in range(25)),
            embeddings=EmbeddingMatrix(rng.standard_normal((25, 4))),
        )
        calls = []
        rank = describe.rank_phrases

        def counted(*args, **kwargs):
            calls.append(args)
            return rank(*args, **kwargs)

        monkeypatch.setattr(describe, "rank_phrases", counted)
        described = describe_slices(emb, split, scores, corpus, top=3)
        assert len(calls) == 1
        assert len(described.slice_descriptions) == 5

    def test_zero_mass_names_the_slice(self):
        emb = EmbeddingMatrix(np.eye(4))
        weights = np.zeros((4, 2))
        weights[:, 0] = 1.0
        corpus = PhraseCorpus(phrases=("a", "b"), embeddings=EmbeddingMatrix(np.ones((2, 4))))
        with pytest.raises(ZeroMass, match="slice 1 carries no score mass"):
            describe_slices(emb, tiny_split([0, 1, 0, 1]), SliceScores(weights, "manual"), corpus)

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            PhraseCorpus(phrases=(), embeddings=EmbeddingMatrix(np.ones((1, 2))))

    def test_corpus_files_round_trip(self, tmp_path):
        phrases = tmp_path / "phrases.tsv"
        phrases.write_text("a photo of sky\t0\na photo of sea\t1\n")
        emb_path = tmp_path / "phrases.emb"
        save_embeddings(EmbeddingMatrix(np.eye(2)), emb_path)
        corpus = load_phrase_corpus(phrases, emb_path)
        assert corpus.phrases == ("a photo of sky", "a photo of sea")


# Ranks every phrase of corpora whose row counts are not multiples of 4 and
# that span many blocks, kept in float32 and as the exact float64 upcast. At
# one BLAS thread both must give the whole float64 product's scores in a
# stable descending order, and a 3-row stack must give its rows' own
# rankings bit for bit; the script prints the scores' digest.
_BLOCKED_RANKING = """
import hashlib, os
import numpy as np
from slicekit import EmbeddingMatrix, PhraseCorpus, rank_phrases
digest = hashlib.sha256()
for n, d in ((1003, 300), (5003, 768)):
    rng = np.random.default_rng(n)
    values = rng.standard_normal((n, d)).astype(np.float32)
    phrases = tuple(f"phrase {i}" for i in range(n))
    proto, class_proto = rng.standard_normal((2, d))
    narrow = PhraseCorpus(phrases, EmbeddingMatrix(values, dtype=np.float32))
    wide = PhraseCorpus(phrases, EmbeddingMatrix(values))
    ranked = rank_phrases(proto, class_proto, narrow, n)
    assert rank_phrases(proto, class_proto, wide, n) == ranked, (n, d)
    if os.environ["OPENBLAS_NUM_THREADS"] == "1":
        scores = wide.embeddings.values @ (proto - class_proto)
        order = np.argsort(-scores, kind="stable")
        assert ranked == [(phrases[i], float(scores[i])) for i in order], (n, d)
    digest.update(np.array([s for _, s in ranked]).tobytes())
    # a 3-row stack ranks each row with the bits of its own 1-D call
    protos, class_protos = rng.standard_normal((2, 3, d))
    for corpus in (narrow, wide):
        stacked = rank_phrases(protos, class_protos, corpus, n)
        for row, p, c in zip(stacked, protos, class_protos):
            single = rank_phrases(p, c, corpus, n)
            assert [(q, s.hex()) for q, s in row] == [(q, s.hex()) for q, s in single], (n, d)
            digest.update(np.array([s for _, s in row]).tobytes())
print(digest.hexdigest())
"""


class TestBlockedRanking:
    def test_gives_the_whole_product_at_any_thread_count(self):
        # With two BLAS threads OpenBLAS splits the whole float64 product at
        # row offsets that change its bits (5003 x 768 does); the blocked
        # scores must not change. Fresh interpreters fix the thread count.
        src = str(Path(slicekit.__file__).parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "MKL_NUM_THREADS": threads, "PYTHONPATH": src}
            run = subprocess.run([sys.executable, "-c", _BLOCKED_RANKING], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_describes_float32_as_its_float64_upcast(self):
        rng = np.random.default_rng(8)
        split = tiny_split(rng.integers(0, 3, 60))
        emb = EmbeddingMatrix(rng.standard_normal((60, 5)))
        scores = SliceScores(rng.random((60, 3)), "manual")
        values = rng.standard_normal((203, 5)).astype(np.float32)
        phrases = tuple(f"phrase {i}" for i in range(203))
        described = [
            describe_slices(emb, split, scores, PhraseCorpus(phrases, corpus), top=7)
            for corpus in (EmbeddingMatrix(values, dtype=np.float32), EmbeddingMatrix(values))
        ]
        assert described[0].slice_descriptions == described[1].slice_descriptions

    def test_corpus_file_dtypes(self, tmp_path):
        # an EMB1 corpus stays float32; a CSV corpus is read as float64. Both
        # hold the same values and rank alike, bit for bit, over three row
        # blocks (512 rows each at d=64).
        n, d = 1030, 64
        rng = np.random.default_rng(5)
        (tmp_path / "phrases.tsv").write_text("".join(f"p{i}\n" for i in range(n)))
        values = (rng.integers(-64, 64, (n, d)) / 8).astype(np.float32)
        queries = rng.standard_normal((3, d))
        ranked = []
        for name, dtype in (("phrases.emb", np.float32), ("phrases.csv", np.float64)):
            save_embeddings(EmbeddingMatrix(values), tmp_path / name)
            corpus = load_phrase_corpus(tmp_path / "phrases.tsv", tmp_path / name)
            assert corpus.embeddings.values.dtype == dtype
            assert np.array_equal(corpus.embeddings.values, values)
            stack = rank_phrases(queries, np.zeros_like(queries), corpus, top=n)
            ranked.append([bits(r) for r in stack])
        assert ranked[0] == ranked[1]
