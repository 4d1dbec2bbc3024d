"""Every file reader fails with a typed SliceKitError, never a raw exception."""

import json
import struct

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings as hsettings
from hypothesis import strategies as st

from slicekit import EmbeddingMatrix, SliceScores
from slicekit.cli import main
from slicekit.describe import load_phrase_corpus
from slicekit.errors import IoError, SchemaError, SliceKitError
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
)
from slicekit.settings import make_synthetic_setting

BASE_CSV = "id,target,attr\n0,0,1\n1,1,0\n2,1,1\n3,0,0\n"
PREDS_CSV = "id,y_hat,p_0,p_1\n0,0,0.75,0.25\n1,1,0.5,0.5\n"
LABELS_CSV = "id,y,y_hat,p_0,p_1,s_a\n0,0,0,0.75,0.25,0\n1,1,0,0.5,0.5,1\n"


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
    save_embeddings(emb, root / "e.csv")
    save_embeddings(EmbeddingMatrix(np.ones((2, 2))), root / "labels.emb")
    (root / "labels.csv").write_text(LABELS_CSV)
    save_scores(SliceScores(np.full((2, 1), 0.5), "domino", (("a", "b"),)), root / "s.json")
    (root / "base.csv").write_text(BASE_CSV)
    (root / "preds.csv").write_text(PREDS_CSV)
    (root / "phrases.tsv").write_text("red car\t0\nblue sky\t1\nsnow\t1\n")
    (root / "synonyms.json").write_text(json.dumps({"car": ["auto"]}))
    (root / "manifest.json").write_text(json.dumps({"settings": [{"id": "a", "path": "a"}]}))
    setting = _setting_dir(root)
    corpus = (root / "phrases.tsv", root / "e.emb")
    return {
        "emb1": (root / "e.emb", lambda: load_embeddings(root / "e.emb")),
        "emb_csv": (root / "e.csv", lambda: load_embeddings(root / "e.csv")),
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
        "synonyms": (root / "synonyms.json",
                     lambda: load_phrase_corpus(*corpus, root / "synonyms.json")),
        "manifest": (root / "manifest.json", lambda: load_manifest(root / "manifest.json")),
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


def test_corrupt_scores_json(tmp_path):
    path = tmp_path / "s.json"
    path.write_text('{"method": "domino", "n": ')
    with pytest.raises(SchemaError, match="s.json"):
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


def test_manifest_that_is_a_list(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps([{"id": "a", "path": "a"}]))
    with pytest.raises(SchemaError, match="JSON object"):
        load_manifest(path)


def test_manifest_paths_are_relative_to_it(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"settings": [{"id": "a", "path": "x"}, {"id": "b"}]}))
    assert load_manifest(path) == [("a", tmp_path / "x"), ("b", tmp_path / "b")]


def test_emb1_with_empty_shape(tmp_path):
    path = tmp_path / "e.emb"
    path.write_bytes(struct.pack("<4sIQI", b"EMB1", 1, 5, 0))
    with pytest.raises(SchemaError, match="empty"):
        load_embeddings(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(IoError):
        load_scores(tmp_path / "absent.json")


def test_gen_with_empty_base_exits_one(tmp_path):
    (tmp_path / "base.csv").write_text("")
    save_embeddings(EmbeddingMatrix(np.ones((4, 2))), tmp_path / "base.emb")
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "slice_type": "rare", "alpha": 0.1, "target": "target", "attribute": "attr", "n": 4,
    }))
    result = CliRunner().invoke(main, [
        "gen", "--base", str(tmp_path / "base.csv"), "--embeddings", str(tmp_path / "base.emb"),
        "--config", str(cfg), "--out", str(tmp_path / "out"),
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "empty file" in result.output


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
    ["emb1", "emb_csv", "labels", "scores", "setting_json", "valid_csv", "base",
     "predictions", "phrases", "synonyms", "manifest"],
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


@pytest.mark.parametrize("name", ["scores", "setting_json", "synonyms", "manifest"])
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
