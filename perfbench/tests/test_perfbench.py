"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import stats, tracing, workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


# --- self time --------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = tracer.open("root")
    a = tracer.open("a")
    c = tracer.open("c")
    tracer.close(c)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    assert tracing.self_times(tracer.spans) == [3.0, 2.0, 1.0, 4.0]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        tracing.Span("parent", 0.0, 10.0, -1, -1),
        tracing.Span("x", 2.0, 6.0, 0, -1),
        tracing.Span("y", 4.0, 8.0, 0, -1),
        tracing.Span("z", 9.0, 12.0, 0, -1),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_spans_of_one_eval_pair_share_an_id():
    tracer = tracing.Tracer(clock=FakeClock(range(100)))
    ev = tracer.open("cli.eval")
    for _ in range(2):
        load = tracer.open("fileio.load_setting")
        tracer.close(load)
        run = tracer.open("evaluate.run_setting")
        fit = tracer.open("mixture.fit")
        tracer.close(fit)
        tracer.close(run)
    agg = tracer.open("evaluate.aggregate")
    tracer.close(agg)
    tracer.close(ev)
    assert tracing.pairs(tracer.spans) == {
        1: ["fileio.load_setting", "evaluate.run_setting", "mixture.fit"],
        2: ["fileio.load_setting", "evaluate.run_setting", "mixture.fit"],
    }


def test_install_wraps_aliases_and_uninstall_restores_them():
    from slicekit import cli, describe, fileio, mixture

    originals = (fileio.load_setting, cli.load_setting, mixture.kmeans,
                 mixture.MixtureParams.__post_init__, cli.load_embeddings)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert cli.load_setting is fileio.load_setting
        assert cli.load_setting.__wrapped__ is originals[0]
        assert mixture.kmeans is not originals[2]
        # only gen's base-table read is its own span; the reads inside
        # load_setting and load_phrase_corpus count toward those functions
        assert cli.load_embeddings.__wrapped__ is originals[4]
        assert fileio.load_embeddings is describe.load_embeddings is originals[4]
    finally:
        tracer.uninstall()
    assert (fileio.load_setting, cli.load_setting, mixture.kmeans,
            mixture.MixtureParams.__post_init__, cli.load_embeddings) == originals


def test_a_paused_tracer_records_no_spans():
    tracer = tracing.Tracer()
    inc = tracer.wrap(lambda x: x + 1, "inc")
    with tracer.pause():
        assert inc(1) == 2
    assert tracer.spans == []
    assert inc(2) == 3
    assert [s.name for s in tracer.spans] == ["inc"]


# --- output history ------------------------------------------------------------


def test_history_compares_only_runs_of_the_same_key(tmp_path):
    outcome = workloads.Outcome()
    workloads._check_history(tmp_path, "code-a", {"report": "1"}, outcome)
    workloads._check_history(tmp_path, "code-b", {"report": "2"}, outcome)
    workloads._check_history(tmp_path, "code-a", {"report": "1"}, outcome)
    assert outcome.problems == []
    workloads._check_history(tmp_path, "code-a", {"report": "2"}, outcome)
    assert len(outcome.problems) == 1


def test_code_digest_follows_the_python_sources(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    (tmp_path / "data.json").write_text("{}")
    first = workloads.code_digest(tmp_path)
    (tmp_path / "data.json").write_text("[]")
    assert workloads.code_digest(tmp_path) == first
    (tmp_path / "m.py").write_text("x = 2\n")
    assert workloads.code_digest(tmp_path) != first


# --- percentiles and sample counts -------------------------------------------


def test_percentile_matches_inclusive_quantiles():
    data = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    q1, q2, q3 = statistics.quantiles(data, n=4, method="inclusive")
    assert stats.percentile(data, 25) == pytest.approx(q1)
    assert stats.percentile(data, 50) == pytest.approx(q2)
    assert stats.percentile(data, 75) == pytest.approx(q3)
    assert stats.percentile(data, 100) == 9.0


@pytest.mark.parametrize(
    "n, tail",
    [(1, None), (99, None), (100, "p90"), (999, "p90"), (1000, "p99"), (10000, "p99.9")],
)
def test_summary_reports_only_tails_with_ten_samples_beyond(n, tail):
    summary = stats.summarize([float(i) for i in range(n)])
    assert summary["n"] == n
    assert summary["p50"] == statistics.median(range(n))
    tails = [k for k in summary if k not in ("n", "p50")]
    assert tails == ([] if tail is None else [tail])


def test_summary_of_no_samples_is_just_the_count():
    assert stats.summarize([]) == {"n": 0}


def test_relative_iqr():
    assert stats.relative_iqr([1.0] * 5) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_iqr(values) == pytest.approx((q3 - q1) / med)


# --- the benchmark definition -------------------------------------------------


def test_benchmark_json_names_the_metrics_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        workloads.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        workloads.PER_LAYER
    )


def test_command_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# --- smoke runs -----------------------------------------------------------------


LAYERS_THAT_RUN = {
    "grid-small": ("baselines.spotlight.fit.self_s", "settings.make_synthetic_setting.self_s",
                   "clustering.kmeans.george.calls", "describe.rank_phrases.calls"),
    "clip-scale": ("mixture.reduce_dim.self_s", "describe.load_phrase_corpus.mb_read",
                   "mixture.e_step.gflops", "cli.gen.self_s",
                   "settings.apply_ingested_predictions.self_s", "fileio.load_embeddings.self_s"),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name, tmp_path):
    src = ROOT / "src"
    plain = workloads.run(name, 3, 0.5, False, src, tmp_path, workloads.TINY)
    result = plain["result"]
    assert result["correct"], plain["detail"]["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m[0] for m in workloads.END_TO_END]
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0

    traced = workloads.run(name, 3, 0.5, True, src, tmp_path, workloads.TINY)
    result = traced["result"]
    assert result["correct"], traced["detail"]["problems"]
    assert list(result["metrics"]) == [m[0] for m in workloads.PER_LAYER]
    for key in LAYERS_THAT_RUN[name]:
        assert result["metrics"][key]["value"] > 0, key
    assert (result["metrics"]["baselines.spotlight.steps"]["value"] > 0) == (name == "grid-small")
    # the traced run wrote the same bytes as the plain run at this seed
    plain_digests = plain["detail"]["sha256"]
    assert {k: v for k, v in traced["detail"]["sha256"].items() if k in plain_digests} == plain_digests


def test_reports_match_a_plain_cli_eval(tmp_path):
    src = ROOT / "src"
    workloads.run("grid-small", 5, 0.5, False, src, tmp_path, workloads.TINY)
    work = tmp_path / "grid-small"
    out = subprocess.run(
        [sys.executable, "-m", "slicekit", "eval", "--manifest",
         str(work / "manifests" / "chunk0.json"), "--methods", "domino",
         "--out", str(tmp_path / "plain"), "--jobs", "1", "--seed", "5"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    for name in ("report.json", "report.md"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert plain == (work / "reports" / "domino" / "chunk0" / name).read_bytes()
