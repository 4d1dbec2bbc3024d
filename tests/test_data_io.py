"""Data model and file format tests."""

import dataclasses
import re
import struct
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from slicekit import (
    EmbeddingMatrix,
    FitConfig,
    LabeledSplit,
    MixtureSDM,
    SliceScores,
    fit,
    load_embeddings,
    load_scores,
    load_split,
    save_embeddings,
    save_scores,
)
from slicekit.baselines import GeorgeSDM, MultiaccuracySDM, SpotlightSDM
from slicekit.errors import (
    ArgmaxInconsistent,
    DtypeMismatch,
    LabelOutOfRange,
    MagicMismatch,
    NonFiniteValue,
    RowCountMismatch,
    SchemaError,
    TruncatedFile,
)
from slicekit import fileio
from slicekit.fileio import load_setting, save_setting
from slicekit.mixture import MixtureParams, Responsibilities
from slicekit.settings import BaseTable, SyntheticModelSpec, make_synthetic_setting

from planted import planted_setting


def _header(n, d, magic=b"EMB1", version=1):
    return struct.pack("<4sIQI", magic, version, n, d)


def load_both(path):
    """``load_embeddings(path)``, once a float32 read has ended the same way.

    Kept in float32, a read must raise the same type with the same message,
    or hold the same values.
    """
    outcomes = []
    for dtype in (np.float32, np.float64):
        try:
            outcomes.append(load_embeddings(path, dtype=dtype).values.astype(np.float64).tobytes())
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    return load_embeddings(path)


class TestEmbeddingFormat:
    def test_binary_header_row_major(self, tmp_path):
        path = tmp_path / "e.emb"
        payload = np.arange(6, dtype="<f4").tobytes()
        path.write_bytes(_header(2, 3) + payload)
        emb = load_both(path)
        assert emb.n == 2 and emb.d == 3
        assert np.array_equal(emb.values, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert load_embeddings(path, dtype=np.float32).values.dtype == np.float32

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(1, 1, magic=b"XXXX") + b"\x00" * 4)
        with pytest.raises(MagicMismatch):
            load_both(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(1, 1, version=2) + b"\x00" * 4)
        with pytest.raises(MagicMismatch):
            load_both(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(2, 3) + np.arange(5, dtype="<f4").tobytes())
        with pytest.raises(TruncatedFile):
            load_both(path)

    def test_non_finite_payload(self, tmp_path):
        path = tmp_path / "e.emb"
        message = re.escape(f"{path}: embedding payload contains NaN or Inf")
        for bad in (np.nan, np.inf, -np.inf):
            payload = np.array([1.0, bad], dtype="<f4").tobytes()
            path.write_bytes(_header(1, 2) + payload)
            with pytest.raises(NonFiniteValue, match=message):
                load_both(path)
        path = tmp_path / "e.csv"
        message = re.escape(f"{path}: embedding payload contains NaN or Inf")
        for bad in ("nan", "inf", "-inf"):
            path.write_text(f"1.0,{bad}\n")
            with pytest.raises(NonFiniteValue, match=message):
                load_both(path)

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(7)
        emb = EmbeddingMatrix(rng.standard_normal((100, 16)))
        first = tmp_path / "a.emb"
        second = tmp_path / "b.emb"
        save_embeddings(emb, first)
        save_embeddings(load_embeddings(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_csv_fallback(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1.5,2.0\n-3.25,4.0\n")
        emb = load_embeddings(path)
        assert np.array_equal(emb.values, [[1.5, 2.0], [-3.25, 4.0]])

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        emb = EmbeddingMatrix(rng.standard_normal((5, 4)))
        path = tmp_path / "e.csv"
        save_embeddings(emb, path)
        assert np.array_equal(load_embeddings(path).values, emb.values)

    @hsettings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 8),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**31),
    )
    def test_binary_round_trip_property(self, tmp_path_factory, n, d, seed):
        rng = np.random.default_rng(seed)
        emb = EmbeddingMatrix(rng.standard_normal((n, d)).astype(np.float32))
        direct = tmp_path_factory.mktemp("rt")
        first = direct / "a.emb"
        second = direct / "b.emb"
        save_embeddings(emb, first)
        save_embeddings(load_embeddings(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestStreamingRead:
    """EMB1 reads fill one float64 matrix through a reused float32 buffer.

    A float32 read (``load_both``) fills its result in the same chunks. An
    11 x 5 matrix read 7 values at a time puts chunk edges inside rows.
    """

    N, D = 11, 5

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(fileio, "_CHUNK_VALUES", 7)

    def _payload(self):
        values = np.random.default_rng(5).standard_normal(self.N * self.D)
        return values.astype("<f4").tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 55, 1 << 20])
    def test_bit_equal_to_a_whole_payload_read(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(fileio, "_CHUNK_VALUES", chunk)
        payload = self._payload()
        path = tmp_path / "e.emb"
        path.write_bytes(_header(self.N, self.D) + payload)
        expected = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        values = load_both(path).values
        assert values.shape == (self.N, self.D)
        assert values.tobytes() == expected.tobytes()

    def test_truncated_inside_a_chunk(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(self.N, self.D) + self._payload()[:-10])
        with pytest.raises(TruncatedFile, match="230 bytes, expected 240"):
            load_both(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(self.N, self.D) + self._payload() + b"\x00")
        with pytest.raises(TruncatedFile, match="241 bytes, expected 240"):
            load_both(path)

    def test_file_that_shrinks_while_read(self, tmp_path, monkeypatch):
        # the size check passes, so the short read itself must be caught
        path = tmp_path / "e.emb"
        path.write_bytes(_header(self.N, self.D) + self._payload()[:-10])
        stat = SimpleNamespace(st_size=len(_header(self.N, self.D)) + 4 * self.N * self.D)
        monkeypatch.setattr(fileio, "os", SimpleNamespace(fstat=lambda fd: stat))
        with pytest.raises(TruncatedFile, match="ended at byte 230, expected 240"):
            load_both(path)

    def test_nan_in_the_last_chunk_only(self, tmp_path):
        values = np.frombuffer(self._payload(), dtype="<f4").copy()
        values[-1] = np.nan
        path = tmp_path / "e.emb"
        path.write_bytes(_header(self.N, self.D) + values.tobytes())
        message = re.escape(f"{path}: embedding payload contains NaN or Inf")
        with pytest.raises(NonFiniteValue, match=message):
            load_both(path)

    def test_huge_declared_shape_fails_before_allocating(self, tmp_path):
        path = tmp_path / "e.emb"
        path.write_bytes(_header(2**40, self.D) + self._payload())
        with pytest.raises(TruncatedFile, match="expected"):
            load_both(path)


def test_read_peak_memory_is_about_one_matrix(tmp_path):
    """A 50000 x 64 read holds the float64 result plus one small buffer."""
    n, d = 50000, 64
    path = tmp_path / "big.emb"
    payload = np.random.default_rng(0).standard_normal(n * d).astype("<f4")
    path.write_bytes(_header(n, d) + payload.tobytes())
    del payload
    tracemalloc.start()
    try:
        emb = load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb.values.shape == (n, d)
    assert peak <= 1.25 * 8 * n * d, f"peak {peak / (8 * n * d):.2f} x the matrix"


def test_float32_read_peak_memory_is_about_the_payload(tmp_path):
    """A 20000 x 256 read kept in float32 fills its result with no second buffer."""
    n, d = 20000, 256
    path = tmp_path / "big.emb"
    payload = np.random.default_rng(1).standard_normal(n * d).astype("<f4")
    path.write_bytes(_header(n, d) + payload.tobytes())
    del payload
    tracemalloc.start()
    try:
        emb = load_embeddings(path, dtype=np.float32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emb.values.dtype == np.float32
    assert peak < 1.1 * 4 * n * d, f"peak {peak / (4 * n * d):.2f} x the payload"


class TestFloat32Storage:
    """A float32-stored matrix is kept as given, never rounds, and is never fit."""

    def test_float32_array_is_kept(self):
        a = np.ones((3, 2), dtype=np.float32)
        assert EmbeddingMatrix(a, dtype=np.float32).values is a
        assert not a.flags.writeable
        # without the keyword a float32 array is upcast, as ever
        assert EmbeddingMatrix(np.ones((3, 2), np.float32)).values.dtype == np.float64

    @pytest.mark.parametrize(
        "values", [np.ones((2, 2)), [[0.1, 2.0]], np.ones((2, 2), np.int64)], ids=["f64", "list", "i64"]
    )
    def test_nothing_is_rounded(self, values):
        with pytest.raises(DtypeMismatch, match="float32 storage would round"):
            EmbeddingMatrix(values, dtype=np.float32)

    def test_only_float64_and_float32(self, tmp_path):
        with pytest.raises(ValueError, match="float64 or float32, not float16"):
            EmbeddingMatrix(np.ones((2, 2), np.float16), dtype=np.float16)
        # the reader refuses the same dtypes with the same error, CSV included
        for name in ("e.emb", "e.csv"):
            save_embeddings(EmbeddingMatrix(np.ones((2, 2))), tmp_path / name)
            with pytest.raises(ValueError, match="float64 or float32, not float16"):
                load_embeddings(tmp_path / name, dtype=np.float16)

    def test_replace_upcasts(self):
        narrow = EmbeddingMatrix(np.ones((2, 2), np.float32), dtype=np.float32)
        assert dataclasses.replace(narrow).values.dtype == np.float64

    def test_finiteness_checked_on_the_stored_values(self):
        bad = np.ones((2, 2), np.float32)
        bad[1, 1] = np.inf
        with pytest.raises(NonFiniteValue):
            EmbeddingMatrix(bad, dtype=np.float32)
        # the float32 sum overflows, so the elementwise check decides
        big = np.full((2, 2), 3e38, np.float32)
        assert EmbeddingMatrix(big, dtype=np.float32).values is big

    def test_fitting_paths_reject_it(self):
        setting = make_synthetic_setting("rare", 0.1, n=200, d=4, seed=0,
                                         model=SyntheticModelSpec.natural_defaults(seed=1))
        split = setting.valid_split
        narrow = EmbeddingMatrix(setting.valid_emb.values.astype(np.float32), dtype=np.float32)
        calls = {
            "fit": lambda: fit(narrow, split, FitConfig(k_bar=4, k_hat=2)),
            "domino": lambda: MixtureSDM(FitConfig(k_bar=4, k_hat=2)).fit(narrow, split),
            "spotlight": lambda: SpotlightSDM().fit(narrow, split),
            "george": lambda: GeorgeSDM().fit(narrow, split),
            "multiaccuracy": lambda: MultiaccuracySDM().fit(narrow, split),
            "setting": lambda: dataclasses.replace(setting, valid_emb=narrow),
        }
        for name, call in calls.items():
            with pytest.raises(DtypeMismatch, match="stored as float32"):
                call()


class TestLabelsCsv:
    def test_basic_schema(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text(
            "id,y,y_hat,s_chaindrain\n0,0,0,0\n1,1,1,1\n2,0,1,0\n3,1,0,1\n"
        )
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.zeros((4, 8)) + 0.5), emb_path)
        emb, split = load_split(labels, emb_path)
        assert emb.d == 8
        assert split.num_slices == 1
        assert split.slice_names == ("chaindrain",)
        assert split.num_classes == 2
        assert np.array_equal(split.slices[:, 0], [0, 1, 0, 1])

    def test_row_count_mismatch(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text(
            "id,y,y_hat,s_a\n" + "".join(f"{i},0,0,0\n" for i in range(5))
        )
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.ones((4, 2))), emb_path)
        with pytest.raises(RowCountMismatch):
            load_split(labels, emb_path)

    def test_argmax_inconsistent(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text("id,y,y_hat,p_0,p_1,s_a\n0,0,0,0.3,0.7,0\n")
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 2))), emb_path)
        with pytest.raises(ArgmaxInconsistent):
            load_split(labels, emb_path)

    def test_missing_required_column(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text("id,y,s_a\n0,0,0\n")
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 2))), emb_path)
        with pytest.raises(SchemaError):
            load_split(labels, emb_path)

    def test_id_must_increase_from_zero(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text("id,y,y_hat,s_a\n1,0,0,0\n")
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 2))), emb_path)
        with pytest.raises(SchemaError):
            load_split(labels, emb_path)

    def test_label_out_of_range(self, tmp_path):
        labels = tmp_path / "s.csv"
        labels.write_text("id,y,y_hat,p_0,p_1,s_a\n0,2,1,0.3,0.7,0\n")
        emb_path = tmp_path / "s.emb"
        save_embeddings(EmbeddingMatrix(np.ones((1, 2))), emb_path)
        with pytest.raises(LabelOutOfRange, match="s.csv: labels outside"):
            load_split(labels, emb_path)


class TestScoresDocument:
    def test_document_shape(self, tmp_path):
        scores = SliceScores(scores=np.full((3, 2), 0.25), method="confusion")
        path = tmp_path / "scores.json"
        save_scores(scores, path)
        loaded = load_scores(path)
        assert loaded.n == 3 and loaded.k_hat == 2
        assert loaded.method == "confusion"

    def test_empty_scores_rejected(self):
        with pytest.raises(ValueError):
            SliceScores(scores=np.zeros((3, 0)), method="x")

    def test_round_trip_tolerance(self, tmp_path):
        rng = np.random.default_rng(11)
        scores = SliceScores(scores=rng.random((50, 5)), method="domino")
        path = tmp_path / "scores.json"
        save_scores(scores, path)
        loaded = load_scores(path)
        assert np.abs(loaded.scores - scores.scores).max() <= 1e-9

    def test_descriptions_round_trip(self, tmp_path):
        scores = SliceScores(
            scores=np.full((2, 1), 0.5),
            method="domino",
            slice_descriptions=(("a photo of sky", "clouds"),),
        )
        path = tmp_path / "scores.json"
        save_scores(scores, path)
        assert load_scores(path).slice_descriptions == (("a photo of sky", "clouds"),)


class TestInvariantEnforcement:
    def test_scores_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SliceScores(scores=np.array([[1.5]]), method="x")

    def test_split_bad_slice_values(self):
        with pytest.raises(ValueError):
            LabeledSplit(
                labels=[0, 1],
                predictions=[0, 1],
                slices=[[2], [0]],
                slice_names=("a",),
                num_classes=2,
            )

    def test_split_prob_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LabeledSplit(
                labels=[0],
                predictions=[0],
                slices=[[0]],
                slice_names=("a",),
                num_classes=2,
                prediction_probs=[[0.6, 0.6]],
            )

    def test_split_prediction_out_of_range(self):
        with pytest.raises(LabelOutOfRange):
            LabeledSplit(
                labels=[0],
                predictions=[3],
                slices=[[0]],
                slice_names=("a",),
                num_classes=2,
            )

    def test_embedding_non_finite_rejected(self):
        # [inf, -inf] sums to NaN, and the last row overflows even without its NaN
        for row in ([np.inf, 0.0], [np.inf, -np.inf], [np.nan, 0.0], [-np.inf, 1.0],
                    [1e308, 1e308, np.nan]):
            with pytest.raises(NonFiniteValue, match="^embedding matrix contains NaN or Inf$"):
                EmbeddingMatrix(np.array([row]))

    @pytest.mark.parametrize(
        "row", [[1e308, 1e308], [1e308, 1e308, -1e308, -1e308], [-1e308, -1e308]]
    )
    def test_finite_embedding_whose_sum_overflows_accepted(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            emb = EmbeddingMatrix(np.array([row]))
        assert np.array_equal(emb.values, [row])

    def test_types_are_immutable(self):
        emb = EmbeddingMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            emb.values[0, 0] = 3.0


def _params(**arrays):
    """A valid two-component, two-class, 2-d ``MixtureParams`` with ``arrays`` swapped in."""
    return MixtureParams(**{
        "weights": np.full(2, 0.5), "means": np.zeros((2, 2)), "variances": np.ones((2, 2)),
        "label_probs": np.full((2, 2), 0.5), "pred_probs": np.full((2, 2), 0.5), **arrays,
    })


_PROBS = [[0.5, 0.5], [1.0, 0.0]]

# "Type.field" -> (value built around one array argument, a valid argument,
# the dtype the field holds)
_TAKERS = {
    "EmbeddingMatrix.values": (lambda a: EmbeddingMatrix(a), [[1, 1], [1, 0]], np.float64),
    "LabeledSplit.labels": (
        lambda a: LabeledSplit(a, [0, 1], [[0], [1]], ("s",), 2), [0, 1], np.int64),
    "LabeledSplit.slices": (
        lambda a: LabeledSplit([0, 1], [0, 1], a, ("s", "t"), 2), [[1, 1], [1, 0]], np.int64),
    "LabeledSplit.prediction_probs": (
        lambda a: LabeledSplit([0, 1], [0, 1], [[0], [1]], ("s",), 2, a), np.eye(2), np.float64),
    "SliceScores.scores": (lambda a: SliceScores(a, "m"), [[1, 1], [1, 0]], np.float64),
    "BaseTable.values": (lambda a: BaseTable(("y", "c"), a, "y", "c"), [[1, 1], [1, 0]], np.int64),
    "Responsibilities.q": (lambda a: Responsibilities(a), _PROBS, np.float64),
    "MixtureParams.weights": (lambda a: _params(weights=a), [0.5, 0.5], np.float64),
    "MixtureParams.means": (lambda a: _params(means=a), [[1, 1], [1, 0]], np.float64),
    "MixtureParams.variances": (lambda a: _params(variances=a), [[1, 1], [1, 2]], np.float64),
    "MixtureParams.label_probs": (lambda a: _params(label_probs=a), _PROBS, np.float64),
    "MixtureParams.pred_probs": (lambda a: _params(pred_probs=a), _PROBS, np.float64),
}


@pytest.mark.parametrize("name", list(_TAKERS))
class TestCallerArrays:
    """Every value type keeps a caller's array of its dtype and C layout uncopied, and copies any other."""

    def test_array_of_the_kept_dtype_is_taken_over(self, name):
        make, valid, dtype = _TAKERS[name]
        a = np.array(valid, dtype=dtype)
        value = make(a)
        assert getattr(value, name.split(".")[1]) is a
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1

    def test_other_dtype_is_copied_and_stays_writable(self, name):
        make, valid, dtype = _TAKERS[name]
        a = np.array(valid, dtype=np.float32 if dtype == np.float64 else np.int32)
        make(a)
        assert a.flags.writeable
        a[0] = 1

    def test_strided_view(self, name):
        make, valid, dtype = _TAKERS[name]
        base = np.repeat(np.array(valid, dtype=dtype), 2, axis=-1)
        view = base[..., ::2]
        kept = getattr(make(view), name.split(".")[1])
        # the view is copied, so neither it nor its base turns read-only, and
        # a later write through the base does not reach the value
        assert view.flags.writeable and base.flags.writeable
        before = kept.copy()
        base.flat[0] = 5
        assert np.array_equal(kept, before)


@pytest.mark.parametrize(
    "name", [n for n in _TAKERS if n.startswith(("MixtureParams.", "Responsibilities."))]
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mixture_values_reject_a_non_finite_entry(name, bad):
    make, valid, dtype = _TAKERS[name]
    a = np.array(valid, dtype=dtype)
    a.flat[0] = bad
    with pytest.raises(ValueError):
        make(a)


def test_mixture_params_do_not_follow_a_strided_view():
    m = np.zeros((2, 6))
    p = MixtureParams(np.full(2, .5), m[:, ::2], np.ones((2, 3)),
                      np.full((2, 2), .5), np.full((2, 2), .5))
    m[0, 0] = 5
    assert p.means[0, 0] == 0.0


def test_rejected_construction_leaves_the_array_writable():
    labels = np.array([0, 2], dtype=np.int64)
    with pytest.raises(LabelOutOfRange):
        LabeledSplit(labels, [0, 1], [[0], [1]], ("s",), 2)
    assert labels.flags.writeable
    labels[1] = 1


class TestSettingDirectory:
    def test_save_load_round_trip(self, tmp_path):
        setting = make_synthetic_setting(
            "rare", 0.1, n=80, d=4, seed=5,
            model=SyntheticModelSpec.natural_defaults(seed=1),
        )
        save_setting(setting, tmp_path / "s0")
        loaded = load_setting(tmp_path / "s0")
        assert loaded.slice_type == "rare"
        assert loaded.alpha == pytest.approx(0.1)
        assert loaded.model_kind == "synthetic"
        assert np.array_equal(loaded.valid_split.labels, setting.valid_split.labels)
        assert np.array_equal(loaded.test_split.slices, setting.test_split.slices)
        # embeddings round through float32 files
        assert np.allclose(
            loaded.valid_emb.values, setting.valid_emb.values, atol=1e-6
        )

    def test_planted_setting_round_trip(self, tmp_path):
        setting = planted_setting(
            200, 4, seed=3, slice_frac=0.2,
            model=SyntheticModelSpec.natural_defaults(seed=3),
        )
        save_setting(setting, tmp_path / "p")
        loaded = load_setting(tmp_path / "p")
        assert loaded.alpha == pytest.approx(0.2)
        assert np.array_equal(loaded.test_split.slices, setting.test_split.slices)

    def test_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            setting = make_synthetic_setting(
                "correlation", 0.4, n=80, d=4, seed=9,
                model=SyntheticModelSpec.natural_defaults(seed=2),
            )
            save_setting(setting, tmp_path / name)
        for fname in ("valid.emb", "valid.csv", "test.emb", "test.csv", "setting.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()
