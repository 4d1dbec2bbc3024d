"""The two slicekit workloads and the closed loop that measures them.

Every workload is one in-process caller that starts the next unit of work
only after the previous one has finished (a closed loop). The CLI runs
in-process with ``--jobs 1`` and BLAS is limited to one thread, so one
thread computes at a time. Inputs are made from the workload seed; the
program receives only those generated files.

- ``grid-small``: the README reference grid (rare, correlation and
  noisy_label at the README alphas, five replicates, n=2000, d=32) made by
  ``slicekit synth``, evaluated by ``slicekit eval`` per method, and the
  Domino slices described against a d=32 phrase corpus. Python overhead
  dominates. Spotlight runs here only, in the traced run.
- ``clip-scale``: ``slicekit gen`` with an ingested predictions CSV builds
  one setting per slice type (n=10000) from a 50k-row base table with
  d=512 (CLIP width) embeddings, so the CSV readers in the CLI,
  ``apply_ingested_predictions``, the PCA in ``reduce_dim`` and BLAS-bound
  EM steps do the work; ``eval`` reads the settings back (the
  ``trained_ingested`` degradation and exclusion path) and the Domino
  slices are described against 50k phrases at d=512.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import stats, tracing

WORKLOADS = ("grid-small", "clip-scale")
EVAL_METHODS = ("domino", "george", "multiacc", "confusion")
SLICE_TYPES = ("rare", "correlation", "noisy_label")
README_ALPHAS = {"rare": [0.05, 0.1], "correlation": [0.4, 0.6], "noisy_label": [0.1, 0.2]}
ONE_ALPHA = {"rare": 0.1, "correlation": 0.6, "noisy_label": 0.2}
SYNTH_MODEL = {
    "kind": "synthetic", "sens_in": 0.4, "spec_in": 0.4,
    "sens_out": 0.75, "spec_out": 0.75, "kappa": 5.0,
}
TOP_PHRASES = 10

# (name, unit, better, bound) of every end-to-end metric. The reference
# machine's speed drifts between runs by about as much as the largest bound
# BENCHMARK.json allows, so the timing bounds are that maximum (README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("gen.settings_per_s", "1/s", "higher", 0.25),
    ("domino.settings_per_s", "1/s", "higher", 0.25),
    ("george.settings_per_s", "1/s", "higher", 0.25),
    ("multiacc.settings_per_s", "1/s", "higher", 0.25),
    ("confusion.settings_per_s", "1/s", "higher", 0.25),
    ("describe.slices_per_s", "1/s", "higher", 0.25),
)

# Per-layer metrics beyond the traced spans: spotlight throughput (spotlight
# runs on grid-small only), each method's mean setting-level p@10 (exact per
# seed, but too seed-dependent on the small workloads for an end-to-end
# bound), and the cost of tracing.
EXTRA_LAYER = (
    ("spotlight.settings_per_s", "1/s", "higher"),
    *((f"{m}.mean_p10", "fraction", "higher") for m in tracing.METHODS),
    ("trace.overhead_s", "s", "lower"),
)
PER_LAYER = tracing.LAYER_METRICS + EXTRA_LAYER


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY only for its smoke tests."""

    grid_replicates: int = 5
    grid_n: int = 2000
    grid_d: int = 32
    spotlight_settings: int = 6
    clip_rows: int = 50000
    clip_n: int = 10000
    clip_d: int = 512
    phrases: int = 50000
    setup_reps: int = 2


FULL = Sizes()
TINY = Sizes(
    grid_replicates=1, grid_n=200, grid_d=8, spotlight_settings=1,
    clip_rows=3000, clip_n=600, clip_d=300,
    phrases=500, setup_reps=2,
)


# --- helpers ----------------------------------------------------------------


def _rng(seed: int, name: str) -> np.random.Generator:
    stream = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, stream])


def digest(path: Path) -> str:
    """sha256 over a file, or over the sorted relative paths and bytes of a tree."""
    h = hashlib.sha256()
    if path.is_file():
        h.update(path.read_bytes())
        return h.hexdigest()
    for item in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(item.relative_to(path)).encode() + b"\0")
        h.update(item.read_bytes())
    return h.hexdigest()


def cli_call(args: list[str]) -> tuple[int, str]:
    """Run one ``slicekit`` command in this process; (exit code, stderr)."""
    import click
    from slicekit import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=args, prog_name="slicekit", standalone_mode=False)
        except click.ClickException as exc:
            return exc.exit_code, exc.format_message()
    return 0, err.getvalue()


def time_import(src: Path) -> float:
    """Seconds to ``import slicekit`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import slicekit; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def write_emb1(path: Path, rows: int, d: int, fill: Callable[[int, int], np.ndarray]) -> None:
    """EMB1 file written in row chunks; ``fill(lo, hi)`` returns rows lo..hi."""
    with path.open("wb") as fh:
        fh.write(struct.pack("<4sIQI", b"EMB1", 1, rows, d))
        for lo in range(0, rows, 4096):
            hi = min(rows, lo + 4096)
            fh.write(np.ascontiguousarray(fill(lo, hi), dtype="<f4").tobytes())


# --- benchmark inputs (written before set-up, not timed) --------------------


_ADJ = ("red", "blue", "green", "small", "large", "old", "young", "dark", "bright",
        "wet", "dry", "striped", "spotted", "blurry", "sharp", "tiny", "wooden",
        "metal", "plastic", "furry")
_NOUN = ("dog", "cat", "bird", "car", "truck", "boat", "plane", "horse", "tree",
         "house", "person", "child", "chair", "table", "bottle", "cup", "phone",
         "book", "flower", "fish", "tube", "scan", "lesion", "bone", "lung")
_CONTEXT = ("outdoors", "indoors", "at night", "in the snow", "on a beach",
            "in a city", "in a forest", "on a table", "underwater", "in the rain")


def write_corpus(directory: Path, seed: int, rows: int, d: int) -> tuple[Path, Path]:
    """A phrases.tsv plus aligned EMB1 embeddings of the given width."""
    rng = _rng(seed, f"corpus-{d}")
    picks = np.column_stack([
        rng.integers(len(_ADJ), size=rows),
        rng.integers(len(_NOUN), size=rows),
        rng.integers(len(_CONTEXT), size=rows),
    ])
    tsv = directory / "phrases.tsv"
    tsv.write_text("".join(
        f"a photo of a {_ADJ[a]} {_NOUN[b]} {_CONTEXT[c]}\t{b}\n" for a, b, c in picks
    ))
    emb = directory / "phrases.emb"
    write_emb1(emb, rows, d, lambda lo, hi: rng.standard_normal((hi - lo, d)))
    return tsv, emb


def write_base_table(directory: Path, seed: int, n: int, d: int) -> None:
    """base.csv, base.emb and preds.csv for a model that errs on the attribute.

    The model is right 90% of the time outside the attribute and 55% inside
    it, so most generated settings show the degradation that keeps them in
    the aggregates; its probabilities agree with its hard predictions.
    """
    rng = _rng(seed, "base-table")
    target = (rng.random(n) < 0.5).astype(np.int64)
    attr = (rng.random(n) < 0.3).astype(np.int64)
    aux = (rng.random(n) < 0.5).astype(np.int64)
    (directory / "base.csv").write_text(
        "id,target,attr,aux\n"
        + "".join(f"{i},{t},{a},{x}\n" for i, (t, a, x) in enumerate(zip(target, attr, aux)))
    )

    def rows(lo: int, hi: int) -> np.ndarray:
        block = rng.standard_normal((hi - lo, d))
        block[:, 0] += 4.0 * target[lo:hi]
        block[:, 1] += 4.0 * attr[lo:hi]
        return block

    write_emb1(directory / "base.emb", n, d, rows)
    correct = rng.random(n) < np.where(attr == 1, 0.55, 0.9)
    y_hat = np.where(correct, target, 1 - target)
    confidence = 0.55 + 0.4 * rng.random(n)
    p1 = np.where(y_hat == 1, confidence, 1.0 - confidence)
    (directory / "preds.csv").write_text(
        "id,y_hat,p_0,p_1\n"
        + "".join(f"{i},{y},{1.0 - p!r},{p!r}\n" for i, (y, p) in enumerate(zip(y_hat, p1.tolist())))
    )


# --- one run ------------------------------------------------------------------


@dataclass
class Plan:
    """What one workload generates, evaluates and describes.

    Generation is split into parts of one CLI command each: a part is a path
    under the settings directory and the command that writes it (out dir ->
    exit code). ``manifest`` is written by the benchmark after the parts when
    the commands do not write one. ``chunk`` settings go to one ``eval``
    call. Small parts and chunks give many samples per unit, spread over the
    whole run instead of one stretch of it: the machine's speed drifts within
    seconds.
    """

    parts: list[tuple[str, Callable[[Path], int]]]
    settings_per_part: int
    chunk: int
    corpus_d: int
    settings_dir: Path
    manifest: dict | None = None
    with_spotlight: bool = False

    def generate(self, out: Path) -> tuple[int, int]:
        """Run every part into ``out``; (commands attempted, commands failed)."""
        failed = sum(int(command(out / sub) != 0) for sub, command in self.parts)
        if self.manifest is not None:
            (out / "manifest.json").write_text(json.dumps(self.manifest, indent=2))
        return len(self.parts), failed


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _grid_plan(work: Path, seed: int, sizes: Sizes) -> Plan:
    config = work / "inputs" / "synth.json"
    config.write_text(json.dumps({
        "slice_types": list(SLICE_TYPES), "alphas": README_ALPHAS,
        "seeds": sizes.grid_replicates, "n": sizes.grid_n, "d": sizes.grid_d,
        "seed": seed, "model": SYNTH_MODEL,
    }, indent=2))

    def synth(out: Path) -> int:
        return cli_call(["synth", "--config", str(config), "--out", str(out)])[0]

    return Plan([(".", synth)], 6 * sizes.grid_replicates, 5, sizes.grid_d,
                work / "settings", with_spotlight=True)


def _clip_plan(work: Path, seed: int, sizes: Sizes) -> Plan:
    inputs = work / "inputs"
    write_base_table(inputs, seed, sizes.clip_rows, sizes.clip_d)
    entries, parts = [], []
    for slice_type, alpha in ONE_ALPHA.items():
        config = inputs / f"gen_{slice_type}.json"
        config.write_text(json.dumps({
            "slice_type": slice_type, "alpha": alpha, "target": "target",
            "attribute": "attr", "n": sizes.clip_n, "seed": seed,
            "model": {"kind": "ingested", "predictions": str(inputs / "preds.csv")},
        }, indent=2))
        entries.append({"id": slice_type, "path": slice_type, "slice_type": slice_type,
                        "alpha": alpha, "replicate": 0})

        def gen(out: Path, config: Path = config) -> int:
            return cli_call([
                "gen", "--base", str(inputs / "base.csv"),
                "--embeddings", str(inputs / "base.emb"),
                "--config", str(config), "--out", str(out),
            ])[0]

        parts.append((slice_type, gen))

    return Plan(parts, 1, 1, sizes.clip_d, work / "settings", manifest={"settings": entries})


def _write_manifests(plan: Plan, work: Path, sizes: Sizes) -> tuple[list[Path], Path]:
    """Chunk manifests over the generated settings, plus spotlight's subset."""
    directory = work / "manifests"
    directory.mkdir(exist_ok=True)
    manifest = plan.settings_dir / "manifest.json"
    entries = [dict(e, path=f"../settings/{e['path']}")
               for e in json.loads(manifest.read_text())["settings"]]
    chunks = []
    for i in range(0, len(entries), plan.chunk):
        path = directory / f"chunk{i // plan.chunk}.json"
        path.write_text(json.dumps({"settings": entries[i:i + plan.chunk]}, indent=2))
        chunks.append(path)
    spotlight = directory / "spotlight.json"
    chosen = [e for e in entries if e["replicate"] == 0][: sizes.spotlight_settings]
    spotlight.write_text(json.dumps({"settings": chosen}, indent=2))
    return chunks, spotlight


class Runner:
    """Runs the units of one workload and keeps their samples and checks.

    A unit is one metric on one chunk: ``generate`` (one part of the
    generation), ``eval.<method>`` or ``describe`` (the Domino fits of one
    chunk). ``tracer`` is installed around units only in a traced run.
    """

    def __init__(self, plan: Plan, work: Path, seed: int, corpus: tuple[Path, Path],
                 outcome: Outcome, chunks: list[Path], spotlight: Path):
        self.plan = plan
        self.work = work
        self.seed = seed
        self.corpus = corpus
        self.chunks = chunks
        self.spotlight = spotlight
        self.outcome = outcome
        self.samples: dict[tuple[str, int], list[float]] = {}
        self.last: dict[tuple[str, int], float] = {}
        self.amount: dict[tuple[str, int], int] = {}
        self.spent: dict[str, float] = {}
        self.digests: dict[str, str] = {}
        self.kept_p10: dict[str, dict[int, list[float]]] = {}
        self.fits: dict[int, list] = {}
        self.tracer = tracing.Tracer()

    def _record(self, metric: str, chunk: int, seconds: float, amount: int,
                fingerprint: str | None) -> None:
        """Account a unit's time; a unit that failed leaves no sample."""
        key = (metric, chunk)
        self.last[key] = seconds
        self.spent[metric] = self.spent.get(metric, 0.0) + seconds
        if fingerprint is None:
            return
        self.samples.setdefault(key, []).append(seconds)
        self.amount[key] = amount
        first = self.digests.setdefault(f"{metric}/{chunk}", fingerprint)
        self.outcome.check(first == fingerprint, f"{metric}/{chunk}: output bytes changed")

    def generate_unit(self, part: int) -> None:
        out = self.work / "regenerated"
        shutil.rmtree(out, ignore_errors=True)
        _, command = self.plan.parts[part]
        start = time.perf_counter()
        code = command(out)
        seconds = time.perf_counter() - start
        self.outcome.attempted += 1
        self.outcome.failed += int(code != 0)
        self.outcome.check(code == 0, f"generation part {part} exited {code}")
        self._record("generate", part, seconds, self.plan.settings_per_part,
                     digest(out) if code == 0 else None)

    def eval_unit(self, method: str, chunk: int, manifest: Path) -> None:
        from slicekit import mixture

        out = self.work / "reports" / method / f"chunk{chunk}"
        captured = []
        original_fit = mixture.MixtureSDM.fit

        def recording_fit(sdm, emb, split):
            result = original_fit(sdm, emb, split)
            captured.append((sdm, emb, split))
            return result

        if method == "domino":
            mixture.MixtureSDM.fit = recording_fit
        try:
            start = time.perf_counter()
            code, err = cli_call([
                "eval", "--manifest", str(manifest), "--methods", method,
                "--out", str(out), "--jobs", "1", "--seed", str(self.seed),
            ])
            seconds = time.perf_counter() - start
        finally:
            mixture.MixtureSDM.fit = original_fit
        count = len(json.loads(manifest.read_text())["settings"])
        metric = f"eval.{method}"
        self.outcome.attempted += count
        if code != 0:
            self.outcome.failed += count
            self.outcome.check(False, f"eval {method} exited {code}: {err.strip()}")
            self._record(metric, chunk, seconds, count, None)
            return
        report = json.loads((out / "report.json").read_text())
        self.outcome.failed += len(report["errors"])
        self.outcome.check(not report["errors"], f"eval {method}: {report['errors']}")
        self.outcome.check(len(report["results"]) == count,
                           f"eval {method}: {len(report['results'])} results for {count} settings")
        self.outcome.check(all(0.0 <= p <= 1.0 for r in report["results"] for p in r["precisions"]),
                           f"eval {method}: precision outside [0, 1]")
        # Setting-level p@10 of the settings the report's aggregates keep.
        self.kept_p10.setdefault(method, {}).setdefault(chunk, [
            statistics.mean(r["precisions"]) for r in report["results"] if not r["excluded"]
        ])
        fingerprint = digest(out / "report.json") + digest(out / "report.md")
        self._record(metric, chunk, seconds, count, fingerprint)
        if method == "domino":
            self.fits[chunk] = captured

    def describe_unit(self, chunk: int) -> None:
        from slicekit import describe

        # Validation-split scores are what `slicekit describe` consumes; they
        # are computed before the timed region, like a saved scores file, and
        # outside the trace, which times only the describe calls.
        with self.tracer.pause():
            jobs = [(emb, split, sdm.transform(emb, split))
                    for sdm, emb, split in self.fits[chunk]]
        self.outcome.attempted += len(jobs)
        described = []
        start = time.perf_counter()
        try:
            corpus = describe.load_phrase_corpus(*self.corpus)
            for emb, split, scores in jobs:
                out = describe.describe_slices(emb, split, scores, corpus, top=TOP_PHRASES)
                described.append(out.slice_descriptions)
        except Exception as exc:  # counted as failed; the loop goes on
            self.outcome.failed += len(jobs)
            self.outcome.check(False, f"describe: {exc!r}")
            self._record("describe", chunk, time.perf_counter() - start, 0, None)
            return
        seconds = time.perf_counter() - start
        self.outcome.check(all(len(d) == TOP_PHRASES for ds in described for d in ds),
                           "describe: a slice got fewer phrases than requested")
        fingerprint = hashlib.sha256(json.dumps(described).encode()).hexdigest()
        self._record("describe", chunk, seconds, sum(len(ds) for ds in described), fingerprint)

    def units(self, with_spotlight: bool) -> list[tuple[str, int, Callable[[], None]]]:
        """Every unit once, in an order where each describe follows its fits."""
        out: list[tuple[str, int, Callable[[], None]]] = [
            ("generate", part, lambda p=part: self.generate_unit(p))
            for part in range(len(self.plan.parts))
        ]
        if with_spotlight and self.plan.with_spotlight:
            out.append(("eval.spotlight", 0,
                        lambda: self.eval_unit("spotlight", 0, self.spotlight)))
        for chunk, manifest in enumerate(self.chunks):
            for method in EVAL_METHODS:
                out.append((f"eval.{method}", chunk,
                            lambda m=method, c=chunk, p=manifest: self.eval_unit(m, c, p)))
                if method == "domino":
                    out.append(("describe", chunk, lambda c=chunk: self.describe_unit(c)))
        return out

    def ready(self, metric: str, chunk: int) -> bool:
        return metric != "describe" or chunk in self.fits

    def rate(self, metric: str) -> float:
        """Work per second over all chunks, each chunk taken at its median time."""
        keys = [k for k in self.samples if k[0] == metric]
        seconds = sum(statistics.median(self.samples[k]) for k in keys)
        return sum(self.amount[k] for k in keys) / seconds if seconds > 0 else 0.0

    def mean_p10(self, method: str) -> float:
        values = [p for chunk in sorted(self.kept_p10.get(method, {}))
                  for p in self.kept_p10[method][chunk]]
        return statistics.mean(values) if values else 0.0


def _setup(plan: Plan, sizes: Sizes, src: Path, outcome: Outcome) -> dict:
    """Import and generate ``sizes.setup_reps`` times; check the bytes agree."""
    imports, gens, fingerprints = [], [], []
    for _ in range(sizes.setup_reps):
        imports.append(time_import(src))
        shutil.rmtree(plan.settings_dir, ignore_errors=True)
        start = time.perf_counter()
        attempted, failed = plan.generate(plan.settings_dir)
        gens.append(time.perf_counter() - start)
        outcome.attempted += attempted
        outcome.failed += failed
        outcome.check(failed == 0, f"{failed} generation commands failed")
        fingerprints.append(digest(plan.settings_dir))
    parts = [digest(plan.settings_dir / sub) for sub, _ in plan.parts]
    outcome.check(len(set(fingerprints)) == 1, "generated settings differ between set-up repetitions")
    return {"import_s": imports, "generate_s": gens, "settings_sha256": fingerprints[0],
            "parts_sha256": parts}


def _loop(runner: Runner, seconds: float) -> None:
    """Closed loop that shares the time equally between the metrics.

    Next runs the metric with the least time spent so far, on its next chunk.
    A unit that has run before starts only if its last duration still fits
    in the remaining time; one that has not always starts, so every chunk of
    every metric is measured at least once.
    """
    queues: dict[str, list[tuple[int, Callable[[], None]]]] = {}
    for metric, chunk, unit in runner.units(with_spotlight=False):
        queues.setdefault(metric, []).append((chunk, unit))
    cursor = dict.fromkeys(queues, 0)
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        best = None
        for metric, queue in queues.items():
            chunk, unit = queue[cursor[metric] % len(queue)]
            last = runner.last.get((metric, chunk))
            if (last is not None and elapsed + last > seconds) or not runner.ready(metric, chunk):
                continue
            spent = runner.spent.get(metric, 0.0)
            if best is None or spent < best[0]:
                best = (spent, metric, unit)
        if best is None:
            return
        best[2]()
        cursor[best[1]] += 1


def code_digest(*roots: Path) -> str:
    """sha256 over the relative paths and bytes of the Python files under roots."""
    h = hashlib.sha256()
    for root in roots:
        for item in sorted(root.rglob("*.py")):
            h.update(str(item.relative_to(root)).encode() + b"\0")
            h.update(item.read_bytes())
    return h.hexdigest()


def _check_history(store: Path, key: str, fingerprints: dict, outcome: Outcome) -> None:
    """Compare output digests with the first run of the same code, workload and seed."""
    path = store / f"{key}.json"
    before = json.loads(path.read_text()) if path.exists() else {}
    for name, value in fingerprints.items():
        if name in before:
            outcome.check(before[name] == value, f"{name}: bytes differ from the first run at this seed")
    store.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(fingerprints, **before), indent=2, sort_keys=True))


def run(name: str, seed: int, seconds: float, trace: bool, src: Path,
        work_root: Path, sizes: Sizes = FULL) -> dict:
    """One benchmark run; returns the result line plus the detail record."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)

    plan = _grid_plan(work, seed, sizes) if name == "grid-small" else _clip_plan(work, seed, sizes)
    corpus = write_corpus(work / "inputs", seed, sizes.phrases, plan.corpus_d)
    outcome = Outcome()
    setup = _setup(plan, sizes, src, outcome)
    runner = Runner(plan, work, seed, corpus, outcome, *_write_manifests(plan, work, sizes))
    for part, fingerprint in enumerate(setup["parts_sha256"]):
        runner.digests[f"generate/{part}"] = fingerprint

    detail: dict = {"setup": setup}
    if not trace:
        _loop(runner, seconds)
        metrics = {
            "setup_s": statistics.median(setup["import_s"]) + statistics.median(setup["generate_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "gen.settings_per_s": runner.rate("generate"),
            "describe.slices_per_s": runner.rate("describe"),
        }
        for method in EVAL_METHODS:
            metrics[f"{method}.settings_per_s"] = runner.rate(f"eval.{method}")
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        # Every unit runs twice, once traced, alternating which goes first so
        # that drift in machine speed falls on both sides alike; the summed
        # difference is the tracing overhead.
        tracer = runner.tracer
        wall = {False: 0.0, True: 0.0}
        spotlight_rate = 0.0
        for i, (metric, chunk, unit) in enumerate(runner.units(with_spotlight=True)):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracing.install(tracer)
                try:
                    start = time.perf_counter()
                    unit()
                    seconds = time.perf_counter() - start
                finally:
                    tracer.uninstall()
                wall[traced] += seconds
                if metric == "eval.spotlight" and not traced:
                    spotlight_rate = runner.amount.get((metric, chunk), 0) / seconds
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["spotlight.settings_per_s"] = spotlight_rate
        for method in tracing.METHODS:
            metrics[f"{method}.mean_p10"] = runner.mean_p10(method)
        metrics["trace.overhead_s"] = wall[True] - wall[False]
        units = {n: u for n, u, _ in PER_LAYER}
        detail["trace"] = {"spans": len(tracer.spans), "pairs": len(tracing.pairs(tracer.spans)),
                           "untraced_s": wall[False], "traced_s": wall[True]}

    # The stored digests are keyed on the program's and the benchmark's
    # sources, so a change to either starts a new history instead of failing.
    sizes_id = hashlib.sha256(repr(sizes).encode()).hexdigest()[:12]
    code_id = code_digest(src, Path(__file__).resolve().parent)[:12]
    _check_history(work_root / "digests", f"{name}-seed{seed}-{sizes_id}-{code_id}",
                   runner.digests, outcome)
    detail["code_sha256"] = code_id
    detail["sha256"] = runner.digests
    detail["samples"] = {f"{m}/{c}": stats.summarize(v) for (m, c), v in runner.samples.items()}
    detail["mean_p10"] = {m: runner.mean_p10(m) for m in runner.kept_p10}
    detail["problems"] = outcome.problems
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return {"result": result, "detail": detail}
