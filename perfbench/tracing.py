"""In-memory span tracing around the public functions of slicekit's modules.

The tracer wraps functions from the outside, by replacing module and class
attributes for the duration of a traced pass; nothing under ``src/`` changes.
Each span records its name, start, end, parent span and the id of the
setting x method pair it belongs to. Spans stay in memory until the run ends.
A span's self time is its duration minus the part of its interval that its
child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

# Inside ``slicekit eval`` one pair (a setting run through one method) starts
# with the load of its setting and continues with its run_setting call.
_PAIR_PARENT = "cli.eval"
_PAIR_START = "fileio.load_setting"
_PAIR_JOIN = "evaluate.run_setting"

METHODS = ("domino", "spotlight", "george", "multiacc", "confusion")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    pair: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans from wrapped callables on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._pairs = 0
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        parent_name = self.spans[parent].name if parent >= 0 else None
        if parent_name == _PAIR_PARENT and name == _PAIR_START:
            self._pairs += 1
            pair = self._pairs
        elif parent_name == _PAIR_PARENT and name == _PAIR_JOIN:
            pair = self._pairs
        else:
            pair = self.spans[parent].pair if parent >= 0 else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, pair))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self._stack.pop()
        self.spans[idx].end = self.clock()

    def wrap(self, fn: Callable, name: str, attrs: Callable | None = None) -> Callable:
        """A callable that runs ``fn`` inside a span named ``name``.

        ``attrs(args, kwargs, result)`` may return extra fields for the span.
        """
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attrs is not None:
                tracer.spans[idx].attrs.update(attrs(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def pause(self):
        """Run a block without recording spans: the benchmark's own work."""
        before, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = before

    def patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every attribute patched by this tracer, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


# --- hooks on slicekit ------------------------------------------------------


def _dir_mb(path) -> float:
    path = Path(path)
    if not path.is_dir():
        return 0.0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file()) / 1e6


def _files_mb(*paths) -> float:
    return sum(Path(p).stat().st_size for p in paths if p is not None) / 1e6


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _fit_diagnostics(args, kwargs, result) -> dict:
    diag = result[1]
    return {"n_iter": diag.n_iter, "converged": diag.converged, "rescues": diag.rescues}


def _em_work(args, kwargs, result) -> dict:
    # n x k x d for the weighted moments (m_step) or the expanded quadratic
    # (e_step); each does two n*k*d matrix products of 2 flops per term.
    emb = args[0]
    if hasattr(args[2], "q"):
        k = args[2].q.shape[1]
    else:
        k = args[2].weights.shape[0]
    return {"gflop": 4.0 * emb.n * k * emb.d / 1e9}


def _kmeans_work(args, kwargs, result) -> dict:
    # One assignment pass is an (n, k, d) difference, square and sum: 3nkd
    # flops. The count assumes every restart uses its whole iteration budget.
    values, k = args[0], args[1]
    restarts = _arg(args, kwargs, 3, "restarts") or 10
    max_iter = _arg(args, kwargs, 4, "max_iter") or 50
    n, d = values.shape
    return {"gflop": 3.0 * n * k * d * restarts * (max_iter + 1) / 1e9}


def _spotlight_steps(args, kwargs, result) -> dict:
    trace = args[0].trace
    return {
        "steps": sum(len(t) for t in trace),
        "accepted": sum(1 for t in trace for step in t if step[2]),
    }


def _method(args, kwargs, result) -> dict:
    return {"method": _arg(args, kwargs, 1, "method")}


# (module, attribute path, span name, attrs, replace every alias in slicekit).
# ``load_embeddings`` is wrapped only where ``slicekit gen`` calls it, for the
# base-table read: the EMB1 reads inside ``load_setting`` and
# ``load_phrase_corpus`` stay in those functions' self time.
HOOKS: tuple[tuple[str, str, str, Callable | None, bool], ...] = (
    ("fileio", "load_setting", "fileio.load_setting",
     lambda a, k, r: {"mb": _dir_mb(a[0])}, True),
    ("fileio", "save_setting", "fileio.save_setting",
     lambda a, k, r: {"mb": _dir_mb(a[1])}, True),
    ("cli", "load_embeddings", "fileio.load_embeddings", None, False),
    ("settings", "make_synthetic_setting", "settings.make_synthetic_setting", None, True),
    ("settings", "solve_beta", "settings.solve_beta", None, True),
    ("settings", "build_rare_setting", "settings.build_rare_setting", None, True),
    ("settings", "build_correlation_setting", "settings.build_correlation_setting", None, True),
    ("settings", "build_noisy_setting", "settings.build_noisy_setting", None, True),
    ("settings", "apply_ingested_predictions", "settings.apply_ingested_predictions", None, True),
    ("cli", "synth.callback", "cli.synth", None, False),
    ("cli", "gen.callback", "cli.gen", None, False),
    ("cli", "eval_cmd.callback", "cli.eval", None, False),
    ("mixture", "fit", "mixture.fit", _fit_diagnostics, True),
    ("mixture", "reduce_dim", "mixture.reduce_dim", None, True),
    ("mixture", "init_confusion", "mixture.init_confusion", None, True),
    ("mixture", "e_step", "mixture.e_step", _em_work, True),
    ("mixture", "m_step", "mixture.m_step", _em_work, True),
    ("mixture", "score", "mixture.score", None, True),
    ("mixture", "MixtureParams.__post_init__", "mixture.validate", None, False),
    ("mixture", "Responsibilities.__post_init__", "mixture.validate", None, False),
    ("mixture", "kmeans", "clustering.kmeans.init", _kmeans_work, False),
    ("baselines", "kmeans", "clustering.kmeans.george", _kmeans_work, False),
    ("baselines", "SpotlightSDM.fit", "baselines.spotlight.fit", _spotlight_steps, False),
    ("baselines", "SpotlightSDM.transform", "baselines.spotlight.transform", None, False),
    ("baselines", "GeorgeSDM.fit", "baselines.george.fit", None, False),
    ("baselines", "GeorgeSDM.transform", "baselines.george.transform", None, False),
    ("baselines", "MultiaccuracySDM.fit", "baselines.multiacc.fit", None, False),
    ("baselines", "MultiaccuracySDM.transform", "baselines.multiacc.transform", None, False),
    ("baselines", "ConfusionSDM.fit", "baselines.confusion.fit", None, False),
    ("baselines", "ConfusionSDM.transform", "baselines.confusion.transform", None, False),
    ("evaluate", "run_setting", "evaluate.run_setting", _method, True),
    ("evaluate", "score_setting", "evaluate.score_setting", None, True),
    ("evaluate", "aggregate", "evaluate.aggregate", None, True),
    ("describe", "load_phrase_corpus", "describe.load_phrase_corpus",
     lambda a, k, r: {"mb": _files_mb(*a[:2])}, True),
    ("describe", "describe_slices", "describe.describe_slices", None, True),
    ("describe", "rank_phrases", "describe.rank_phrases", None, True),
)


def install(tracer: Tracer) -> None:
    """Wrap every hooked slicekit callable; ``tracer.uninstall()`` undoes it."""
    loaded = [m for name, m in sorted(sys.modules.items())
              if name == "slicekit" or name.startswith("slicekit.")]
    for module_name, path, span_name, attrs, everywhere in HOOKS:
        owner = importlib.import_module(f"slicekit.{module_name}")
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(original, span_name, attrs)
        tracer.patch(owner, attr, wrapped)
        if everywhere:
            # Modules that imported the function by name hold their own alias.
            for module in loaded:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        tracer.patch(module, alias, wrapped)


# --- per-layer metrics ------------------------------------------------------


def _layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    rows: list[tuple[str, str, str]] = []

    def add(name, unit, better="lower"):
        rows.append((name, unit, better))

    add("fileio.load_setting.calls", "count")
    add("fileio.load_setting.self_s", "s")
    add("fileio.load_setting.mb_read", "MB")
    add("fileio.save_setting.calls", "count")
    add("fileio.save_setting.self_s", "s")
    add("fileio.save_setting.mb_written", "MB")
    add("fileio.load_embeddings.self_s", "s")
    add("settings.make_synthetic_setting.self_s", "s")
    add("settings.solve_beta.calls", "count")
    add("settings.solve_beta.self_s", "s")
    for kind in ("rare", "correlation", "noisy"):
        add(f"settings.build_{kind}_setting.self_s", "s")
    add("settings.apply_ingested_predictions.self_s", "s")
    add("cli.gen.self_s", "s")
    add("cli.eval.self_s", "s")
    add("mixture.fit.calls", "count")
    add("mixture.fit.self_s", "s")
    add("mixture.reduce_dim.self_s", "s")
    add("mixture.init_confusion.self_s", "s")
    for step in ("e_step", "m_step"):
        add(f"mixture.{step}.calls", "count")
        add(f"mixture.{step}.self_s", "s")
        add(f"mixture.{step}.gflop", "GFLOP")
        add(f"mixture.{step}.gflops", "GFLOP/s", "higher")
    add("mixture.score.self_s", "s")
    add("mixture.validate.calls", "count")
    add("mixture.validate.self_s", "s")
    add("mixture.em_iters", "count")
    add("mixture.converged_frac", "fraction", "higher")
    add("mixture.rescues", "count")
    for use in ("init", "george"):
        add(f"clustering.kmeans.{use}.calls", "count")
        add(f"clustering.kmeans.{use}.self_s", "s")
        add(f"clustering.kmeans.{use}.gflop", "GFLOP")
    add("baselines.spotlight.fit.self_s", "s")
    add("baselines.spotlight.steps", "count")
    add("baselines.spotlight.accept_frac", "fraction", "higher")
    for method in ("george", "multiacc", "confusion"):
        add(f"baselines.{method}.fit.self_s", "s")
        add(f"baselines.{method}.transform.self_s", "s")
    for method in METHODS:
        add(f"evaluate.run_setting.{method}.calls", "count")
        add(f"evaluate.run_setting.{method}.p50_s", "s")
        add(f"evaluate.run_setting.{method}.max_s", "s")
    add("evaluate.score_setting.self_s", "s")
    add("evaluate.aggregate.self_s", "s")
    add("describe.load_phrase_corpus.self_s", "s")
    add("describe.load_phrase_corpus.mb_read", "MB")
    add("describe.describe_slices.calls", "count")
    add("describe.describe_slices.self_s", "s")
    add("describe.rank_phrases.calls", "count")
    add("describe.rank_phrases.self_s", "s")
    return rows


LAYER_METRICS = tuple(_layer_names())


def layer_metrics(spans: Sequence[Span]) -> dict[str, float]:
    """Per-layer values from one traced pass, zero for layers that never ran."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total: dict[tuple[str, str], float] = {}
    runs: dict[str, list[float]] = {m: [] for m in METHODS}
    for span, own in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        for key, value in span.attrs.items():
            if isinstance(value, (int, float)):
                total[span.name, key] = total.get((span.name, key), 0.0) + float(value)
        if span.name == "evaluate.run_setting" and span.attrs.get("method") in runs:
            runs[span.attrs["method"]].append(span.duration)

    out: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        span_name, _, field_name = name.rpartition(".")
        if field_name == "calls":
            out[name] = calls.get(span_name, 0)
        elif field_name == "self_s":
            out[name] = self_s.get(span_name, 0.0)
        elif field_name in ("mb_read", "mb_written"):
            out[name] = total.get((span_name, "mb"), 0.0)
        elif field_name == "gflop":
            out[name] = total.get((span_name, "gflop"), 0.0)
        elif field_name == "gflops":
            busy = self_s.get(span_name, 0.0)
            out[name] = total.get((span_name, "gflop"), 0.0) / busy if busy > 0 else 0.0

    for method, durations in runs.items():
        prefix = f"evaluate.run_setting.{method}"
        out[f"{prefix}.calls"] = len(durations)
        out[f"{prefix}.p50_s"] = statistics.median(durations) if durations else 0.0
        out[f"{prefix}.max_s"] = max(durations) if durations else 0.0

    fits = calls.get("mixture.fit", 0)
    out["mixture.em_iters"] = total.get(("mixture.fit", "n_iter"), 0.0) / fits if fits else 0.0
    out["mixture.converged_frac"] = (
        total.get(("mixture.fit", "converged"), 0.0) / fits if fits else 0.0
    )
    out["mixture.rescues"] = total.get(("mixture.fit", "rescues"), 0.0)
    steps = total.get(("baselines.spotlight.fit", "steps"), 0.0)
    out["baselines.spotlight.steps"] = steps
    out["baselines.spotlight.accept_frac"] = (
        total.get(("baselines.spotlight.fit", "accepted"), 0.0) / steps if steps else 0.0
    )
    return out


def pairs(spans: Iterable[Span]) -> dict[int, list[str]]:
    """Span names grouped by setting x method pair id."""
    out: dict[int, list[str]] = {}
    for span in spans:
        if span.pair >= 0:
            out.setdefault(span.pair, []).append(span.name)
    return out
