"""Command-line entry point for generation, fitting, evaluation, and reports.

All randomness flows from one seed through named derivation (the config's
``seed`` for ``synth`` and ``gen``, ``--seed`` for ``run`` and ``eval``), so
reruns with identical inputs are byte-identical and the evaluation worker
count never changes any emitted number. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error. The command group maps every
library error and OSError to exit 1, so no command restates that mapping.
"""

from __future__ import annotations

import dataclasses
import shutil
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import evaluate as ev
from .data import duplicates
from .errors import AlphaOutOfRange, SchemaError, SliceKitError
from .fileio import (
    ManifestEntry,
    from_json,
    load_base_table,
    load_embeddings,
    load_ingested_predictions,
    load_manifest,
    load_scores,
    load_setting,
    read_json,
    save_manifest,
    save_scores,
    save_setting,
    write_json,
)
from .describe import describe_slices, load_phrase_corpus
from .seeding import derive_seed
from .settings import (
    GenConfig,
    IngestedModel,
    SynthConfig,
    apply_ingested_predictions,
    apply_synthetic_model,
    build_setting,
    make_synthetic_setting,
)


def _load_json(path: str | Path) -> dict:
    try:
        doc = read_json(path)
    except SliceKitError as exc:
        raise click.UsageError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise click.UsageError(f"{path}: expected a JSON object")
    return doc


# --- configs ----------------------------------------------------------------


def build_config(cls, values: dict, label: str):
    """``from_json(cls, values, label)``; any fault in the config exits 2 and names ``label``."""
    try:
        return from_json(cls, values, label)
    except (AlphaOutOfRange, OverflowError, TypeError, ValueError) as exc:
        raise click.UsageError(f"bad {label} configuration: {exc}") from exc


@dataclasses.dataclass(frozen=True)
class _ConfigFile:
    """A ``run`` or ``eval`` --config file: each method's config section by method name."""

    methods: dict[str, dict[str, typing.Any]] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for method in self.methods:
            ev.check_method(method)


def _method_configs(config_path: str | None, methods: list[str], seed: int) -> tuple[dict, dict]:
    """The method sections of a --config file (none without one), and each method's config by name.

    Each config is seeded with ``seed``. Every section is built, whether or not
    its method runs, so a misspelled key or a seed in any section is a usage error.
    """
    sections = build_config(_ConfigFile, _load_json(config_path), "--config").methods if config_path else {}
    names = dict.fromkeys([*methods, *sections])
    return sections, {m: _build_method_cfg(m, sections.get(m, {}), seed) for m in names}


def _build_method_cfg(method: str, section: dict, seed: int):
    """The method's ``Config`` from its --config section, seeded with ``seed``.

    An unknown method name is a usage error. A fit's seed comes from --seed
    alone, so a section that sets one is a usage error too.
    """
    try:
        ev.check_method(method)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if "seed" in section:
        raise click.UsageError(f"bad {method} configuration: seed is set by --seed, not by --config")
    return build_config(ev.METHODS[method].Config, {**section, "seed": seed}, method)


class _Commands(click.Group):
    """The command group; a library error or OSError in a command exits 1 with its message."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (SliceKitError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Slice discovery benchmark generation, fitting, and evaluation."""


# --- synth ------------------------------------------------------------------


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def synth(config_path: str, out_dir: str) -> None:
    """Generate a grid of fully synthetic slice discovery settings."""
    cfg = _load_json(config_path)
    config = build_config(SynthConfig, cfg, "synth")
    grid = config.grid()
    names = ("n", "d", "offset_sigmas", "class_sep_sigmas", "sigma", "mu_a", "mu_b")
    sizes = {name: getattr(config, name) for name in names}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        for setting_id, slice_type, alpha, rep in grid:
            setting_seed = derive_seed(config.seed, "setting", slice_type, alpha, rep)
            setting = make_synthetic_setting(
                slice_type, alpha, seed=setting_seed, model=config.model, **sizes
            )
            path = out / setting_id
            created.append(path)
            save_setting(setting, path)
            click.echo(f"generated {setting_id}")
    except SliceKitError as exc:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)
        raise click.ClickException(f"generation failed: {exc}") from exc

    write_json(out / "synth_config.json", {**cfg, "seed": config.seed})
    entries = [ManifestEntry(setting_id, setting_id, *point) for setting_id, *point in grid]
    save_manifest(out / "manifest.json", entries)
    click.echo(f"wrote {len(grid)} settings to {out}")


# --- gen --------------------------------------------------------------------


@main.command()
@click.option("--base", "base_path", required=True, type=click.Path(exists=True))
@click.option("--embeddings", "emb_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def gen(base_path: str, emb_path: str, config_path: str, out_dir: str) -> None:
    """Generate one setting from a base table CSV and its embeddings."""
    cfg = _load_json(config_path)
    config = build_config(GenConfig, cfg, "gen")
    base = load_base_table(base_path, config.target, config.attribute)
    # The rows are sampled from the base table first; only they are kept
    # from the embeddings file, in float32 until the setting upcasts them.
    setting = build_setting(
        config.slice_type, base,
        lambda keep: load_embeddings(emb_path, dtype=np.float32, keep=keep),
        config.alpha, config.n, config.seed, config.mu_a, config.mu_b,
    )
    if isinstance(config.model, IngestedModel):
        preds, probs = load_ingested_predictions(config.model.predictions)
        setting = apply_ingested_predictions(setting, preds, probs, n_base=base.n_base)
    else:
        setting = apply_synthetic_model(setting, config.model)
    out = Path(out_dir)
    save_setting(setting, out)
    write_json(out / "gen_config.json", {**cfg, "seed": config.seed})
    click.echo(f"wrote setting to {out_dir}")


# --- run --------------------------------------------------------------------


@main.command()
@click.option("--setting", "setting_dir", required=True, type=click.Path(exists=True))
@click.option("--method", required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--score-split", type=click.Choice(["test", "valid"]), default="test", show_default=True)
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def run(
    setting_dir: str,
    method: str,
    out_path: str | None,
    config_path: str | None,
    score_split: str,
    k: int,
    seed: int,
) -> None:
    """Fit one method on a setting and write its scores document."""
    method_cfg = _method_configs(config_path, [method], seed)[1][method]

    setting = load_setting(setting_dir)
    sdm = ev.make_sdm(method, method_cfg)
    sdm.fit(setting.valid_emb, setting.valid_split)
    emb, split = ((setting.test_emb, setting.test_split) if score_split == "test"
                  else (setting.valid_emb, setting.valid_split))
    scores = sdm.transform(emb, split)
    precisions, best_columns = ev.score_setting(scores, split, k)
    for name, precision, best in zip(split.slice_names, precisions, best_columns):
        click.echo(f"slice {name!r}: precision@{k} = {precision:.4f} (discovered slice {best})")
    if out_path is not None:
        save_scores(scores, out_path)
        click.echo(f"wrote scores to {out_path}")


# --- eval -------------------------------------------------------------------


def _eval_task(args: tuple) -> ev.SettingResult | ev.ErrorRow:
    """The task's result, or the error row of its failure."""
    setting_path, setting_id, method, method_cfg, k, beta = args
    try:
        setting = load_setting(setting_path)
        return ev.run_setting(setting, method, method_cfg, k=k, beta=beta, setting_id=setting_id)
    except Exception as exc:  # per-setting failures must not abort the batch
        return ev.ErrorRow(setting_id, method, str(exc))


@main.command(name="eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--methods", default="domino", show_default=True, help="Comma-separated method names.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--beta", type=float, default=0.5, show_default=True)
def eval_cmd(
    manifest_path: str,
    methods: str,
    out_dir: str,
    config_path: str | None,
    jobs: int,
    seed: int,
    k: int,
    beta: float,
) -> None:
    """Run every manifest setting through the selected methods and report."""
    if not 0.0 <= beta < 1.0:  # false for NaN too
        raise click.BadParameter(f"{beta} is not a finite number in [0, 1)", param_hint="'--beta'")
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    if not method_list:
        raise click.UsageError("no methods selected")
    repeated = duplicates(method_list)
    if repeated:
        raise click.UsageError(f"--methods names {', '.join(repeated)} more than once")
    # Every config is built before any task runs, so an unknown method or a
    # bad section is a usage error; each task then replaces the seed with its
    # own derived one.
    sections, configs = _method_configs(config_path, method_list, seed)

    try:
        entries = load_manifest(manifest_path)
    except SliceKitError as exc:
        raise click.UsageError(str(exc)) from exc
    # --out is made before any task runs, so one that cannot be made costs no fit
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for setting_id, setting_path in entries:
        for method in method_list:
            cfg = dataclasses.replace(configs[method], seed=derive_seed(seed, "eval", setting_id, method))
            tasks.append((str(setting_path), setting_id, method, cfg, k, beta))

    if jobs == 1:
        outcomes = [_eval_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_eval_task, tasks))

    results = [o for o in outcomes if isinstance(o, ev.SettingResult)]
    errors = [o for o in outcomes if isinstance(o, ev.ErrorRow)]
    for error in errors:
        click.echo(f"error: {error.setting_id} [{error.method}]: {error.error}", err=True)
    if not results:
        raise click.ClickException("all settings failed")

    resolved = {
        "manifest": str(manifest_path),
        "methods": method_list,
        "seed": seed,
        "k": k,
        "beta": beta,
        "method_configs": sections,
    }
    _write_reports(out, results, errors, resolved)
    click.echo(
        f"evaluated {len(results)} of {len(tasks)} setting/method pairs; "
        f"report in {out}"
    )


# --- describe ---------------------------------------------------------------


@main.command()
@click.option("--setting", "setting_dir", required=True, type=click.Path(exists=True))
@click.option("--scores", "scores_path", required=True, type=click.Path(exists=True))
@click.option("--phrases", "phrases_path", required=True, type=click.Path(exists=True))
@click.option("--phrase-embeddings", "phrase_emb_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True)
def describe(
    setting_dir: str,
    scores_path: str,
    phrases_path: str,
    phrase_emb_path: str,
    out_path: str,
    top: int,
) -> None:
    """Rank corpus phrases for each slice of a validation-split scores file."""
    setting = load_setting(setting_dir)
    scores = load_scores(scores_path)
    corpus = load_phrase_corpus(phrases_path, phrase_emb_path)
    described = describe_slices(setting.valid_emb, setting.valid_split, scores, corpus, top=top)
    save_scores(described, out_path)
    for j, phrases in enumerate(described.slice_descriptions):
        head = ", ".join(phrases[:3])
        click.echo(f"slice {j}: {head}")
    click.echo(f"wrote descriptions to {out_path}")


# --- report -----------------------------------------------------------------


def _write_reports(out: Path, results: list, errors: list, config: dict) -> None:
    """report.json and report.md; ``config`` holds ``k`` and the bootstrap ``seed``."""
    reports = ev.aggregate(results, seed=config["seed"])
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "report.json", ev.report_document(results, reports, errors, config))
    (out / "report.md").write_text(ev.report_markdown(reports, k=config["k"]))


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def report(results_path: str, out_dir: str) -> None:
    """Re-aggregate a report.json into fresh report files, with its own k and seed."""
    try:
        results, errors, config = ev.read_report_document(_load_json(results_path))
    except SchemaError as exc:
        raise click.UsageError(f"{results_path}: {exc}") from exc
    _write_reports(Path(out_dir), results, errors, config)
    click.echo(f"aggregated {len(results)} results into {out_dir}")


if __name__ == "__main__":
    main()
