"""Every file reader fails with a typed SliceKitError, never a raw exception."""

import csv
import dataclasses
import json
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from slicekit import EmbeddingMatrix, LabeledSplit, SliceScores, fileio
from slicekit.cli import main
from slicekit.describe import load_phrase_corpus
from slicekit.errors import IoError, SchemaError, SliceKitError
from slicekit.evaluate import ErrorRow, SettingResult, aggregate, read_report_document, report_document
from slicekit.fileio import (
    load_base_table,
    load_embeddings,
    load_ingested_predictions,
    load_manifest,
    load_scores,
    load_setting,
    load_split,
    save_embeddings,
    save_scores,
    save_setting,
    save_split,
    write_json,
)
from slicekit.settings import SynthConfig, make_synthetic_setting

import csv_oracle

BASE_CSV = "id,target,attr\n0,0,1\n1,1,0\n2,1,1\n3,0,0\n"
PREDS_CSV = "id,y_hat,p_0,p_1\n0,0,0.75,0.25\n1,1,0.5,0.5\n"
LABELS_CSV = "id,y,y_hat,p_0,p_1,s_a\n0,0,0,0.75,0.25,0\n1,1,0,0.5,0.5,1\n"


def _save_tiny_report(path):
    results = [
        SettingResult("a", "domino", "rare", 0.1, "synthetic", (0.5, 1.0), (0, 2), False, True),
        SettingResult("b", "domino", "rare", 0.05, "trained_ingested", (0.2,), (1,), True, False),
    ]
    errors = [ErrorRow("c", "domino", "missing")]
    config = {"k": 10, "seed": 0}
    write_json(path, report_document(results, aggregate(results), errors=errors, config=config))


def _run_report(results, out):
    """``slicekit report`` as a reader: its usage errors come back as SchemaError."""
    result = CliRunner().invoke(main, ["report", "--results", str(results), "--out", str(out)])
    if result.exit_code == 2:
        raise SchemaError(result.output)
    if result.exception is not None:
        raise result.exception


def _setting_dir(root):
    setting = make_synthetic_setting("rare", 0.1, n=40, d=3, seed=0)
    save_setting(setting, root / "setting")
    return root / "setting"


def _write_valid_inputs(root):
    """One valid file per reader, and a call that reads it back.

    Returns {name: (file to mutate, reader)}.
    """
    emb = EmbeddingMatrix(np.arange(6, dtype=np.float64).reshape(3, 2) / 4)
    save_embeddings(emb, root / "e.emb")
    save_embeddings(EmbeddingMatrix(np.ones((2, 2))), root / "labels.emb")
    (root / "labels.csv").write_text(LABELS_CSV)
    save_scores(SliceScores(np.full((2, 1), 0.5), "domino", (("a", "b"),)), root / "s.json")
    (root / "base.csv").write_text(BASE_CSV)
    (root / "preds.csv").write_text(PREDS_CSV)
    (root / "phrases.tsv").write_text("red car\t0\nblue sky\t1\nsnow\t1\n")
    (root / "manifest.json").write_text(json.dumps({"settings": [{"id": "a", "path": "a"}]}))
    _save_tiny_report(root / "report.json")
    setting = _setting_dir(root)
    corpus = (root / "phrases.tsv", root / "e.emb")
    return {
        "emb1": (root / "e.emb", lambda: load_embeddings(root / "e.emb")),
        "labels": (root / "labels.csv",
                   lambda: load_split(root / "labels.csv", root / "labels.emb")),
        "scores": (root / "s.json", lambda: load_scores(root / "s.json")),
        "setting_json": (setting / "setting.json", lambda: load_setting(setting)),
        "valid_csv": (setting / "valid.csv", lambda: load_setting(setting)),
        "base": (root / "base.csv",
                 lambda: load_base_table(root / "base.csv", "target", "attr")),
        "predictions": (root / "preds.csv",
                        lambda: load_ingested_predictions(root / "preds.csv")),
        "phrases": (root / "phrases.tsv", lambda: load_phrase_corpus(*corpus)),
        "manifest": (root / "manifest.json", lambda: load_manifest(root / "manifest.json")),
        "report": (root / "report.json",
                   lambda: _run_report(root / "report.json", root / "again")),
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """{name: (path, its valid bytes, reader)}."""
    readers = _write_valid_inputs(tmp_path_factory.mktemp("readers"))
    return {name: (path, path.read_bytes(), read) for name, (path, read) in readers.items()}


def test_valid_inputs_read(inputs):
    for _, _, read in inputs.values():
        read()


# --- one regression per malformed input ----------------------------------


def test_corrupt_setting_json(tmp_path):
    setting = _setting_dir(tmp_path)
    (setting / "setting.json").write_text('{"slice_type": "rare",')
    with pytest.raises(SchemaError, match="setting.json"):
        load_setting(setting)


def test_setting_json_not_an_object(tmp_path):
    setting = _setting_dir(tmp_path)
    (setting / "setting.json").write_text("[]")
    with pytest.raises(SchemaError, match="setting.json"):
        load_setting(setting)


@pytest.mark.parametrize(
    "change, message",
    [({"seed": True}, "seed must be an integer, got True"),
     ({"seed": "7"}, "seed must be an integer, got '7'"),
     ({"alpha": "0.1"}, "alpha must be a number, got '0.1'"),
     ({"alphaa": 0.1}, "unknown setting parameters: alphaa"),
     # the splits come from the CSV and embedding files, never from setting.json
     ({"valid_emb": []}, "unknown setting parameters: valid_emb")],
    ids=["seed-true", "seed-string", "alpha-string", "unknown-key", "split-key"],
)
def test_setting_json_field_of_wrong_kind(tmp_path, change, message):
    setting = _setting_dir(tmp_path)
    path = setting / "setting.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(SchemaError, match=re.escape(f"setting.json: bad setting: ValueError: {message}")):
        load_setting(setting)


def test_corrupt_scores_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"method": "domino", "n": ')
    with pytest.raises(SchemaError, match="s.json"):
        load_scores(path)


@pytest.mark.parametrize(
    "change, message",
    [({"k_hat": True}, "k_hat must be an integer, got True"),
     ({"n": 2.0}, "n must be an integer, got 2.0"),
     ({"method": 5}, "method must be a string, got 5"),
     ({"scores": [["0.5"], [0.5]]}, "scores must be a list of lists of numbers"),
     ({"scores": [[True], [0.5]]}, "scores must be a list of lists of numbers"),
     ({"scores": [0.5, 0.5]}, "scores must be a list of lists of numbers"),
     ({"scores": "0.5"}, "scores must be a list of lists of numbers"),
     # a string is not a list of phrases: "ab" was read as ("a", "b")
     ({"slice_descriptions": ["ab"]}, "slice_descriptions[0] must be a list, got 'ab'"),
     ({"slice_descriptions": [[1]]}, "slice_descriptions[0][0] must be a string, got 1"),
     ({"k": 1}, "unknown scores document parameters: k")],
    ids=["k_hat-true", "n-float", "method-int", "score-string", "score-true", "flat-scores",
         "scores-string", "description-string", "phrase-int", "unknown-key"],
)
def test_scores_field_of_wrong_kind(tmp_path, change, message):
    path = tmp_path / "s.json"
    save_scores(SliceScores(np.full((2, 1), 0.5), "domino", (("a", "b"),)), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
        load_scores(path)


def test_non_integer_label_in_valid_csv(tmp_path):
    setting = _setting_dir(tmp_path)
    lines = (setting / "valid.csv").read_text().split("\n")
    fields = lines[1].split(",")
    fields[1] = "one"
    lines[1] = ",".join(fields)
    (setting / "valid.csv").write_text("\n".join(lines))
    with pytest.raises(SchemaError, match="valid.csv"):
        load_setting(setting)


def test_non_integer_base_table_cell(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(BASE_CSV.replace("2,1,1", "2,1,yes"))
    with pytest.raises(SchemaError, match="base.csv"):
        load_base_table(path, "target", "attr")


def test_non_binary_base_table_cell(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text(BASE_CSV.replace("2,1,1", "2,1,2"))
    with pytest.raises(SchemaError, match="binary"):
        load_base_table(path, "target", "attr")


def test_base_table_ids_must_run_from_zero(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("id,target,attr\n1,0,1\n2,1,0\n3,1,1\n4,0,0\n")
    with pytest.raises(SchemaError, match="base.csv: id column"):
        load_base_table(path, "target", "attr")


def test_empty_base_csv(tmp_path):
    path = tmp_path / "base.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_base_table(path, "target", "attr")


def test_short_predictions_row(tmp_path):
    path = tmp_path / "preds.csv"
    path.write_text("id,y_hat\n0,1\n1\n")
    with pytest.raises(SchemaError, match="row 1"):
        load_ingested_predictions(path)


@pytest.mark.parametrize(
    "loader, name, header",
    [
        (load_ingested_predictions, "preds.csv", "id,y_hat,foo,bar"),
        (load_ingested_predictions, "preds.csv", "id,y_hat,p_1,p_0"),
        (lambda path: fileio._load_labels(path), "labels.csv", "id,y,y_hat,p_1,p_0,s_a"),
    ],
)
def test_probability_columns_must_be_p_0_to_p_c_minus_1(tmp_path, loader, name, header):
    # a predictions CSV took every column after y_hat as a probability
    path = tmp_path / name
    rows = "0,0,0,0.75,0.25,0\n" if name == "labels.csv" else "0,0,0.75,0.25\n"
    path.write_text(f"{header}\n{rows}")
    with pytest.raises(SchemaError, match=re.escape(f"{name}: probability columns must be p_0..p_{{C-1}}")):
        loader(path)


def test_save_manifest_writes_what_load_manifest_reads(tmp_path):
    entries = [fileio.ManifestEntry("a", "a", "rare", 0.1, 0), fileio.ManifestEntry("b", "x")]
    fileio.save_manifest(tmp_path / "manifest.json", entries)
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc == {"settings": [
        {"id": "a", "path": "a", "slice_type": "rare", "alpha": 0.1, "replicate": 0},
        {"id": "b", "path": "x", "slice_type": None, "alpha": None, "replicate": None},
    ]}
    assert load_manifest(tmp_path / "manifest.json") == [("a", tmp_path / "a"), ("b", tmp_path / "x")]


def test_manifest_that_is_a_list(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"id": "a", "path": "a"}]))
    with pytest.raises(SchemaError, match="JSON object"):
        load_manifest(path)


def test_manifest_paths_are_relative_to_it(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"settings": [{"id": "a", "path": "x"}, {"id": "b"}]}))
    assert load_manifest(path) == [("a", tmp_path / "x"), ("b", tmp_path / "b")]


def test_manifest_with_a_repeated_id(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"settings": [{"id": "a"}, {"id": "b"}, {"id": "a", "path": "c"}]}))
    with pytest.raises(SchemaError, match="ids more than once: a$"):
        load_manifest(path)
    # two ids, one directory: "a" names its directory implicitly, "./x/../a" too
    path.write_text(json.dumps({"settings": [{"id": "a"}, {"id": "b", "path": "./x/../a"}]}))
    with pytest.raises(SchemaError, match="directories more than once: /.*/a$"):
        load_manifest(path)


@pytest.mark.parametrize(
    "entry, message",
    [({"id": 5}, "settings[2] id must be a string, got 5"),
     ({"id": "c", "path": ""}, "settings[2] path must not be empty")],
    ids=["id-int", "empty-path"],
)
def test_a_bad_manifest_entry_is_named_by_its_index(tmp_path, entry, message):
    # the message named "settings entry", which did not say which entry failed
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"settings": [{"id": "a"}, {"id": "b"}, entry]}))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: bad manifest: {message}")):
        load_manifest(path)


@pytest.mark.parametrize(
    "rows, row, message",
    [("results", {"alpha": "0.1"}, "results[1] alpha must be a number, got '0.1'"),
     ("results", {"precisions": []}, "results[1] precisions must be non-empty"),
     ("errors", {"setting_id": 5}, "errors[1] setting_id must be a string, got 5")],
    ids=["result-field", "result-check", "error-field"],
)
def test_a_bad_report_row_is_named_by_its_index(tmp_path, rows, row, message):
    path = tmp_path / "report.json"
    _save_tiny_report(path)
    doc = json.loads(path.read_text())
    doc["errors"].append(dict(doc["errors"][0], setting_id="d"))
    doc[rows][1].update(row)
    with pytest.raises(SchemaError, match=re.escape(f"bad report document: ValueError: {message}")):
        read_report_document(doc)


def test_a_bad_synth_seed_is_named_by_its_index():
    values = {"alphas": [0.05], "model": {"sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75},
              "seeds": [0, 1, "2"]}
    with pytest.raises(ValueError, match=re.escape("seeds[2] must be an integer, got '2'")):
        fileio.from_json(SynthConfig, values, "synth")


@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_save_setting_that_cannot_make_its_directory_raises_ioerror(tmp_path, target):
    # mkdir's FileExistsError escaped raw, while the writers it calls raise IoError
    (tmp_path / "afile").write_text("")
    setting = make_synthetic_setting("rare", 0.1, n=40, d=3, seed=0)
    with pytest.raises(IoError, match=re.escape(f"cannot make {tmp_path / target}")):
        save_setting(setting, tmp_path / target)
    assert (tmp_path / "afile").read_text() == ""


@pytest.mark.parametrize(
    "entry, message",
    [({"id": "a", "pth": "x"}, "unknown settings[0] parameters: pth"),
     ({"id": ""}, "settings[0] id must not be empty"),
     ({"id": "a", "path": ""}, "settings[0] path must not be empty"),
     ({"id": 5}, "settings[0] id must be a string, got 5"),
     ({"id": "a", "replicate": 0.5}, "settings[0] replicate must be an integer, got 0.5"),
     ({"path": "a"}, "settings[0] id is required")],
    ids=["misspelled-path", "empty-id", "empty-path", "id-int", "replicate-float", "no-id"],
)
def test_manifest_entry_of_wrong_kind(tmp_path, entry, message):
    # a misspelled "path" used the id as the directory
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"settings": [entry]}))
    with pytest.raises(SchemaError, match=re.escape(f"{path}: bad manifest: {message}")):
        load_manifest(path)
    result = CliRunner().invoke(main, [
        "eval", "--manifest", str(path), "--methods", "confusion", "--out", str(tmp_path / "o"),
    ])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "o").exists()


def test_manifest_without_settings(tmp_path):
    path = tmp_path / "manifest.json"
    for doc, message in (({"settings": []}, "manifest lists no settings"),
                         ({}, "bad manifest: settings is required")):
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            load_manifest(path)


def test_emb1_with_empty_shape(tmp_path):
    path = tmp_path / "e.emb"
    path.write_bytes(struct.pack("<4sIQI", b"EMB1", 1, 5, 0))
    for dtype in (np.float64, np.float32):
        with pytest.raises(SchemaError, match=f"{path}: declares an empty 5 x 0 matrix$"):
            load_embeddings(path, dtype=dtype)


def test_phrase_line_with_an_empty_phrase(tmp_path):
    phrases = tmp_path / "phrases.tsv"
    save_embeddings(EmbeddingMatrix(np.eye(3)), tmp_path / "p.emb")
    # blank lines are skipped but counted
    for text, number in (("sky\n\n\nsea\n\tg1\n", 5), ("sky\n\tg1\nsea\n", 2)):
        phrases.write_text(text)
        with pytest.raises(SchemaError,
                           match=re.escape(f"{phrases}: line {number} has an empty phrase")):
            load_phrase_corpus(phrases, tmp_path / "p.emb")
    setting = _setting_dir(tmp_path)
    save_scores(SliceScores(np.full((load_setting(setting).valid_emb.n, 1), 0.5), "domino"),
                tmp_path / "s.json")
    result = CliRunner().invoke(main, [
        "describe", "--setting", str(setting), "--scores", str(tmp_path / "s.json"),
        "--phrases", str(phrases), "--phrase-embeddings", str(tmp_path / "p.emb"),
        "--out", str(tmp_path / "described.json"),
    ])
    assert result.exit_code == 1
    assert "line 2 has an empty phrase" in result.output


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_scores(tmp_path / "absent.json")


def test_gen_with_empty_base_exits_one(tmp_path):
    (tmp_path / "base.csv").write_text("")
    save_embeddings(EmbeddingMatrix(np.ones((4, 2))), tmp_path / "base.emb")
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "attr", "n": 4,
        "model": {"kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4, "sens_out": 0.75, "spec_out": 0.75},
    }))
    result = CliRunner().invoke(main, [
        "gen", "--base", str(tmp_path / "base.csv"), "--embeddings", str(tmp_path / "base.emb"),
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "empty file" in result.output


# --- the table writer ------------------------------------------------------


def test_save_split_golden_bytes(tmp_path):
    split = LabeledSplit(
        labels=[0, 1, 1],
        predictions=[0, 1, 0],
        slices=[[1, 0], [0, 1], [1, 1]],
        slice_names=("a", "b"),
        num_classes=2,
        prediction_probs=[[0.75, 0.25], [0.1, 0.9], [2 / 3, 1 / 3]],
    )
    save_split(split, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == (
        b"id,y,y_hat,p_0,p_1,s_a,s_b\n"
        b"0,0,0,0.75,0.25,1,0\n"
        b"1,1,1,0.1,0.9,0,1\n"
        b"2,1,0,0.6666666666666666,0.3333333333333333,1,1\n"
    )


def test_repeated_slice_names_rejected():
    # their columns would share one name in the labels CSV
    with pytest.raises(ValueError, match="distinct"):
        LabeledSplit([0, 1], [0, 1], [[0, 1], [1, 0]], ("a", "a"), 2)


@st.composite
def _splits(draw):
    n = draw(st.integers(1, 6))
    c = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    ints = lambda hi, size: st.lists(st.integers(0, hi), min_size=size, max_size=size)
    labels = draw(ints(c - 1, n))
    slices = draw(st.lists(ints(1, k), min_size=n, max_size=n))
    names = draw(st.lists(st.text("ab_09", min_size=1, max_size=3), min_size=k, max_size=k, unique=True))
    probs = None
    if draw(st.booleans()):
        raw = np.asarray(draw(st.lists(
            st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c), min_size=n, max_size=n,
        )))
        probs = raw / raw.sum(axis=1, keepdims=True)
        preds = probs.argmax(axis=1)
    else:
        preds = draw(ints(c - 1, n))
    return LabeledSplit(labels, preds, slices, tuple(names), c, probs)


@hsettings(max_examples=60, deadline=None)
@given(split=_splits())
def test_save_split_round_trip(tmp_path_factory, split):
    root = tmp_path_factory.mktemp("split")
    save_embeddings(EmbeddingMatrix(np.ones((split.n, 2))), root / "s.emb")
    save_split(split, root / "a.csv")
    _, loaded = load_split(root / "a.csv", root / "s.emb")
    assert np.array_equal(loaded.labels, split.labels)
    assert np.array_equal(loaded.predictions, split.predictions)
    assert np.array_equal(loaded.slices, split.slices)
    assert loaded.slice_names == split.slice_names
    if split.prediction_probs is None:
        assert loaded.prediction_probs is None
    else:
        assert np.array_equal(loaded.prediction_probs, split.prediction_probs)
    save_split(loaded, root / "b.csv")
    assert (root / "b.csv").read_bytes() == (root / "a.csv").read_bytes()


# --- byte-level fuzzing ----------------------------------------------------

# Bytes that keep a file parseable but change what it says come up as often
# as arbitrary bytes.
_BYTES = st.one_of(st.integers(0, 255), st.sampled_from(b'0123456789-.,e"[]{}:\t\n'))
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["replace", "insert", "delete", "truncate"]),
        st.integers(0, 2**16),
        _BYTES,
    ),
    min_size=1,
    max_size=4,
)


def _mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos %= len(buf) + 1
        if op == "replace" and pos < len(buf):
            buf[pos] = byte
        elif op == "insert":
            buf.insert(pos, byte)
        elif op == "delete" and pos < len(buf):
            del buf[pos]
        elif op == "truncate":
            del buf[pos:]
    return bytes(buf)


@pytest.mark.parametrize(
    "name",
    ["emb1", "labels", "scores", "setting_json", "valid_csv", "base",
     "predictions", "phrases", "manifest", "report"],
)
@hsettings(max_examples=80, deadline=None)
@given(edits=_EDITS)
def test_mutated_file_raises_only_slicekit_errors(inputs, name, edits):
    path, original, read = inputs[name]
    path.write_bytes(_mutate(original, edits))
    try:
        read()
    except SliceKitError:
        pass
    finally:
        path.write_bytes(original)


@pytest.fixture(scope="module")
def odd_emb1(tmp_path_factory):
    """A 5 x 3 EMB1 file and its valid bytes."""
    path = tmp_path_factory.mktemp("odd") / "e.emb"
    save_embeddings(EmbeddingMatrix(np.arange(15, dtype=np.float64).reshape(5, 3) / 8), path)
    return path, path.read_bytes()


@hsettings(max_examples=80, deadline=None)
@given(edits=_EDITS)
def test_mutated_emb1_read_in_small_chunks_raises_only_slicekit_errors(inputs, odd_emb1, edits):
    # 4-value chunks end inside rows, so a mutation can land at any chunk edge;
    # a read kept in float32 must raise the same error or hold the same values
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_CHUNK_VALUES", 4)
        for path, original in (inputs["emb1"][:2], odd_emb1):
            path.write_bytes(_mutate(original, edits))
            try:
                wide, narrow = [
                    _outcome(lambda: load_embeddings(path, dtype=dtype).values.astype(np.float64))
                    for dtype in (np.float64, np.float32)
                ]
            finally:
                path.write_bytes(original)
            assert narrow == wide
            assert wide[0] == "returned" or issubclass(wide[1], SliceKitError)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _json_paths(doc, prefix=()):
    """The key path of every node of a parsed JSON document, root first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


@pytest.mark.parametrize(
    "name", ["scores", "setting_json", "manifest", "report"]
)
@hsettings(max_examples=80, deadline=None)
@given(data=st.data())
def test_json_node_replaced_raises_only_slicekit_errors(inputs, name, data):
    path, original, read = inputs[name]
    doc = json.loads(original)
    where = data.draw(st.sampled_from(list(_json_paths(doc))))
    value = data.draw(_JSON_VALUES)
    if where:
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
    else:
        doc = value
    path.write_text(json.dumps(doc))
    try:
        read()
    except SliceKitError:
        pass
    finally:
        path.write_bytes(original)


# --- the column-wise table reader against the row-wise one it replaced -----

_LIMIT = csv.field_size_limit()
# a valid table of _N rows, over 8 KiB long
_N = 2000
_ROWS = b"id,y\n" + b"".join(b"%d,1\n" % i for i in range(_N))

# (name, file bytes): each is read as a table whose header starts with "id"
TABLE_CASES = [
    ("plain", b"id,y,p\n0,1,0.5\n1,0,0.25\n"),
    ("quoted header and cells", b'"id","y"\n"0","1"\n1,"0"\n'),
    ("quoted comma", b'id,y\n0,"1,2"\n'),
    ("quoted newline", b'id,y\n0,"1\n2"\n1,0\n'),
    ("crlf", b"id,y\r\n0,1\r\n1,0\r\n"),
    ("bare cr", b"id,y\r0,1\r1,0\r"),
    ("nul", b"id,y\n0,1\x00\n"),
    ("leading blank line", b"\nid,y\n0,1\n"),
    ("blank lines between rows", b"id,y\n\n0,1\n\n\n1,0\n\n"),
    ("no final newline", b"id,y\n0,1\n1,0"),
    ("header only", b"id,y\n"),
    ("header only, no newline", b"id,y"),
    ("empty", b""),
    ("only newlines", b"\n\n"),
    ("ragged short row", b"id,y\n0,1\n1\n"),
    ("ragged long row", b"id,y\n0,1\n1,0,1\n"),
    ("ragged rows that even out", b"id,y\n0\n1,0,1\n"),
    ("header without id", b"y,id\n1,0\n"),
    ("repeated column", b"id,y,y\n0,1,1\n"),
    ("id only", b"id\n0\n1\n2\n"),
    ("spaces around cells", b"id,y,p\n0, 1,1.5 \n1 ,0 , 0.5\n"),
    ("trailing comma", b"id,y,\n0,1,\n"),
    ("id 00", b"id,y\n00,1\n1,0\n"),
    ("id +1", b"id,y\n0,1\n+1,0\n"),
    ("id with a space", b"id,y\n0,1\n 1,0\n"),
    ("id 1_0", b"id,y\n" + b"".join(b"%d,1\n" % i for i in range(10)) + b"1_0,0\n"),
    ("arabic-indic id", "id,y\n0,1\n١,0\n".encode()),
    ("ids from one", b"id,y\n1,1\n2,0\n"),
    ("ids out of order", b"id,y\n1,1\n0,0\n"),
    ("id not a number", b"id,y\nzero,1\n"),
    ("arabic-indic digit cell", "id,y\n0,٣\n1,0\n".encode()),
    ("superscript digit cell", "id,y\n0,²\n1,0\n".encode()),
    ("int overflow", b"id,y\n0,99999999999999999999999\n"),
    ("negative and signed", b"id,y\n0,-1\n1,+0\n"),
    ("empty cell beside two digits", b"id,y\n0,\n1,11\n"),
    ("empty cells", b"id,y\n0,\n1,\n"),
    ("float cells", b"id,p\n0,nan\n1,1_0.5\n2, 1.5\n3,-0.0\n4,1e400\n5,-inf\n"),
    ("float as int cell", b"id,y\n0,1.0\n"),
    ("invalid utf-8", b"id,y\n0,\xff\n"),
    ("truncated utf-8 at the end", b"id,y\n0,1\xc3"),
    # csv decodes 8 KiB at a time, so its message gives a chunk-relative position
    ("invalid utf-8 after the first chunk", _ROWS + b"%d,\xff\n" % _N),
    ("nul in the first chunk, invalid utf-8 later", b"id,y\n0,1\x00\n" + _ROWS[7:]
     + b"%d,\xff\n" % _N),
    ("field over the limit", b"id,y\n0," + b"1" * (_LIMIT + 1) + b"\n"),
    ("line over the limit, fields within", b"id,y,z\n0," + b"1" * (_LIMIT // 2 + 1) + b","
     + b"2" * (_LIMIT // 2 + 1) + b"\n"),
]


def _bits(value):
    """A value with every array replaced by its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return [(key, _bits(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def _outcome(read):
    """What a read returns, as bits, or the type and message of what it raises."""
    try:
        return "returned", _bits(read())
    except Exception as exc:  # the two readers must agree on every error, typed or not
        return "raised", type(exc), str(exc)


def _table_outcomes(path, read_table, numeric):
    """The table read, then every column and all non-id columns as ints and floats."""
    outcomes = [_outcome(lambda: read_table(path, ("id",)))]
    if outcomes[0][0] == "returned":
        columns = read_table(path, ("id",))
        names = list(columns)
        for kind in (int, float):
            for group in [[name] for name in names] + [names[1:]]:
                outcomes.append(_outcome(lambda: numeric(path, columns, group, kind)))
    return outcomes


def _with_oracle(read):
    """``read``'s outcome with the oracle standing in for the table reader."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fileio, "_read_table", csv_oracle.read_table)
        patch.setattr(fileio, "_numeric", csv_oracle.numeric)
        return _outcome(read)


@pytest.mark.parametrize("data", [data for _, data in TABLE_CASES],
                         ids=[name for name, _ in TABLE_CASES])
def test_table_reader_matches_the_row_wise_oracle(tmp_path, data):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    assert _table_outcomes(path, fileio._read_table, fileio._numeric) == _table_outcomes(
        path, csv_oracle.read_table, csv_oracle.numeric
    )


def test_edge_cases_reach_every_error_of_the_oracle(tmp_path):
    path = tmp_path / "t.csv"
    messages = []
    for _, data in TABLE_CASES:
        path.write_bytes(data)
        outcomes = _table_outcomes(path, csv_oracle.read_table, csv_oracle.numeric)
        messages += [str(o[2]) for o in outcomes if o[0] == "raised"]
    for part in ("empty file", "must start with id", "no data rows", "fields, not",
                 "must run 0..n-1", "field larger than field limit", "'utf-8' codec",
                 "Python int too large", "invalid literal for int()",
                 "could not convert string to float"):
        assert any(part in message for message in messages), part


_LOADERS = {
    "labels": lambda path: fileio._load_labels(path),
    "valid_csv": lambda path: fileio._load_labels(path),
    "base": lambda path: load_base_table(path, "target", "attr"),
    "predictions": lambda path: load_ingested_predictions(path),
}


@pytest.mark.parametrize("name", list(_LOADERS))
@hsettings(max_examples=150, deadline=None)
@given(edits=_EDITS)
def test_mutated_table_reads_as_the_oracle_reads_it(inputs, name, edits):
    path, original, _ = inputs[name]
    path.write_bytes(_mutate(original, edits))
    try:
        read = lambda: _LOADERS[name](path)
        assert _outcome(read) == _with_oracle(read)
        assert _table_outcomes(path, fileio._read_table, fileio._numeric) == _table_outcomes(
            path, csv_oracle.read_table, csv_oracle.numeric
        )
    finally:
        path.write_bytes(original)


def test_files_as_written_take_the_split_path(tmp_path, monkeypatch):
    # The files slicekit writes, and tables as the README describes them, are
    # split without csv; a change that sent them back through it fails here.
    split = make_synthetic_setting("rare", 0.1, n=40, d=3, seed=0).valid_split
    save_split(split, tmp_path / "labels.csv")
    save_embeddings(EmbeddingMatrix(np.ones((split.n, 2))), tmp_path / "labels.emb")
    (tmp_path / "base.csv").write_text(BASE_CSV)
    (tmp_path / "preds.csv").write_text(PREDS_CSV)
    (tmp_path / "probs.csv").write_text(LABELS_CSV)
    save_embeddings(EmbeddingMatrix(np.ones((2, 2))), tmp_path / "probs.emb")

    def no_csv(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_csv)
    _, loaded = load_split(tmp_path / "labels.csv", tmp_path / "labels.emb")
    assert np.array_equal(loaded.labels, split.labels)
    assert np.array_equal(loaded.slices, split.slices)
    assert load_split(tmp_path / "probs.csv", tmp_path / "probs.emb")[1].prediction_probs.shape == (2, 2)
    assert load_base_table(tmp_path / "base.csv", "target", "attr").values.shape == (4, 2)
    preds, probs = load_ingested_predictions(tmp_path / "preds.csv")
    assert preds.tolist() == [0, 1] and probs.tolist() == [[0.75, 0.25], [0.5, 0.5]]
