"""Command-line entry point for generation, fitting, evaluation, and reports.

All randomness flows from the ``--seed`` flag through named derivation, so
reruns with identical inputs are byte-identical and the evaluation worker
count never changes any emitted number. Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import click

from . import evaluate as ev
from .data import SLICE_TYPES, alpha_in_range
from .errors import SliceKitError
from .fileio import (
    load_base_table,
    load_embeddings,
    load_ingested_predictions,
    load_manifest,
    load_scores,
    load_setting,
    save_scores,
    save_setting,
    write_json,
)
from .describe import describe_slices, load_phrase_corpus
from .seeding import derive_seed
from .settings import (
    SyntheticModelSpec,
    apply_ingested_predictions,
    apply_synthetic_model,
    build_setting,
    make_synthetic_setting,
)


def _load_json(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise click.UsageError(f"{path}: expected a JSON object")
    return doc


def _method_section(file_cfg: dict, method: str) -> dict:
    """The method's object under ``methods`` in a config file."""
    section = file_cfg.get("methods", {})
    section = section.get(method, {}) if isinstance(section, dict) else None
    if not isinstance(section, dict):
        raise click.UsageError("config 'methods' must map method names to objects")
    return section


def _build_method_cfg(method: str, values: dict):
    """The method's config; None for a method without one, which takes only a seed."""
    cfg_cls = ev.METHODS[method].config
    fields = {f.name for f in dataclasses.fields(cfg_cls)} if cfg_cls else {"seed"}
    unknown = set(values) - fields
    if unknown:
        raise click.UsageError(
            f"unknown {method} parameters: {', '.join(sorted(unknown))}"
        )
    if cfg_cls is None:
        return None
    try:
        return cfg_cls(**values)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad {method} configuration: {exc}") from exc


def _check_method(method: str) -> None:
    if method not in ev.METHODS:
        raise click.UsageError(
            f"unknown method {method!r}; valid methods: {', '.join(ev.METHODS)}"
        )


def _model_spec_from_config(model: dict | None) -> SyntheticModelSpec | None:
    if model is None:
        return None
    kind = model.get("kind", "synthetic")
    if kind != "synthetic":
        raise click.UsageError(f"synth settings support only synthetic models, got {kind!r}")
    keys = {"sens_in", "spec_in", "sens_out", "spec_out"}
    missing = keys - set(model)
    if missing:
        raise click.UsageError(f"model config missing {', '.join(sorted(missing))}")
    return SyntheticModelSpec(
        **{key: model[key] for key in keys},
        kappa=model.get("kappa", 5.0),
        seed=int(model.get("seed", 0)),
    )


@click.group()
def main() -> None:
    """Slice discovery benchmark generation, fitting, and evaluation."""


# --- synth ------------------------------------------------------------------


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config master seed.")
def synth(config_path: str, out_dir: str, seed: int | None) -> None:
    """Generate a grid of fully synthetic slice discovery settings."""
    cfg = _load_json(config_path)
    master_seed = int(cfg.get("seed", 0) if seed is None else seed)
    slice_types = cfg.get("slice_types", ["rare", "correlation", "noisy_label"])
    alphas = cfg.get("alphas")
    if alphas is None:
        raise click.UsageError("synth config requires an 'alphas' list or map")
    if isinstance(alphas, list):
        alphas = {t: alphas for t in slice_types}
    replicates = cfg.get("seeds", 1)
    if isinstance(replicates, int):
        replicates = list(range(replicates))

    grid = []
    for slice_type in slice_types:
        for alpha in alphas.get(slice_type, []):
            if not alpha_in_range(slice_type, alpha):
                raise click.UsageError(
                    f"grid point ({slice_type}, alpha={alpha}) is outside the "
                    f"legal range for {slice_type}"
                )
            for rep in replicates:
                grid.append((slice_type, float(alpha), int(rep)))
    if not grid:
        raise click.UsageError("synth grid is empty")

    model = _model_spec_from_config(cfg.get("model"))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = dict(cfg)
    resolved["seed"] = master_seed
    write_json(out / "synth_config.json", resolved)

    created: list[Path] = []
    manifest = []
    try:
        for slice_type, alpha, rep in grid:
            setting_id = f"{slice_type}_a{alpha:g}_r{rep}"
            setting = make_synthetic_setting(
                slice_type,
                alpha,
                n=int(cfg.get("n", 2000)),
                d=int(cfg.get("d", 32)),
                seed=derive_seed(master_seed, "setting", slice_type, alpha, rep),
                offset_sigmas=float(cfg.get("offset_sigmas", 4.0)),
                class_sep_sigmas=float(cfg.get("class_sep_sigmas", 4.0)),
                sigma=float(cfg.get("sigma", 1.0)),
                mu_a=float(cfg.get("mu_a", 0.5)),
                mu_b=float(cfg.get("mu_b", 0.5)),
                model=model,
            )
            path = out / setting_id
            created.append(path)
            save_setting(setting, path)
            manifest.append(
                {
                    "id": setting_id,
                    "path": setting_id,
                    "slice_type": slice_type,
                    "alpha": alpha,
                    "replicate": rep,
                }
            )
            click.echo(f"generated {setting_id}")
    except SliceKitError as exc:
        for path in created:
            shutil.rmtree(path, ignore_errors=True)
        raise click.ClickException(f"generation failed: {exc}") from exc

    write_json(out / "manifest.json", {"settings": manifest})
    click.echo(f"wrote {len(manifest)} settings to {out}")


# --- gen --------------------------------------------------------------------


@main.command()
@click.option("--base", "base_path", required=True, type=click.Path(exists=True))
@click.option("--embeddings", "emb_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def gen(base_path: str, emb_path: str, config_path: str, out_dir: str, seed: int | None) -> None:
    """Generate one setting from a base table CSV and its embeddings."""
    cfg = _load_json(config_path)
    for key in ("slice_type", "alpha", "target", "attribute", "n"):
        if key not in cfg:
            raise click.UsageError(f"gen config missing {key!r}")
    if cfg["slice_type"] not in SLICE_TYPES:
        raise click.UsageError(f"unknown slice_type {cfg['slice_type']!r}")
    run_seed = int(cfg.get("seed", 0) if seed is None else seed)

    try:
        base = load_base_table(base_path, cfg["target"], cfg["attribute"])
        embeddings = load_embeddings(emb_path)
        setting = build_setting(
            cfg["slice_type"], base, embeddings, float(cfg["alpha"]), int(cfg["n"]),
            run_seed, float(cfg.get("mu_a", 0.5)), float(cfg.get("mu_b", 0.5)),
        )
        model = cfg.get("model")
        if model is not None and model.get("kind") == "ingested":
            preds_path = model.get("predictions")
            if not preds_path:
                raise click.UsageError("ingested model config needs a 'predictions' path")
            preds, probs = load_ingested_predictions(preds_path)
            setting = apply_ingested_predictions(setting, preds, probs)
        elif model is not None:
            setting = apply_synthetic_model(setting, _model_spec_from_config(model))
        out = Path(out_dir)
        save_setting(setting, out)
        resolved = dict(cfg)
        resolved["seed"] = run_seed
        write_json(out / "gen_config.json", resolved)
    except SliceKitError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"wrote setting to {out_dir}")


# --- run --------------------------------------------------------------------


def _flag_fields(method: str) -> tuple[dataclasses.Field, ...]:
    """The config fields that ``run`` exposes as flags for ``method``."""
    spec = ev.METHODS[method]
    if not spec.cli_flags:
        return ()
    return tuple(f for f in dataclasses.fields(spec.config) if f.name != "seed")


def _flag_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _config_flags(command):
    """Add one flag per exposed config field, in registry then field order."""
    for method in reversed(ev.METHODS):
        fields = _flag_fields(method)
        hints = typing.get_type_hints(ev.METHODS[method].config) if fields else {}
        for f in reversed(fields):
            names = (_flag_name(f.name), *f.metadata.get("cli_aliases", ()), f.name)
            command = click.option(*names, type=hints[f.name], default=None)(command)
    return command


@main.command()
@click.option("--setting", "setting_dir", required=True, type=click.Path(exists=True))
@click.option("--method", required=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--score-split", type=click.Choice(["test", "valid"]), default="test", show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--phrases", "phrases_path", type=click.Path(exists=True), default=None)
@click.option("--phrase-embeddings", "phrase_emb_path", type=click.Path(exists=True), default=None)
@click.option("--synonyms", "synonyms_path", type=click.Path(exists=True), default=None)
@click.option("--top", type=int, default=10, show_default=True)
@_config_flags
def run(
    setting_dir: str,
    method: str,
    out_path: str | None,
    config_path: str | None,
    score_split: str,
    k: int,
    seed: int,
    phrases_path: str | None,
    phrase_emb_path: str | None,
    synonyms_path: str | None,
    top: int,
    **flags,
) -> None:
    """Fit one method on a setting and write its scores document."""
    _check_method(method)
    own = {f.name for f in _flag_fields(method)}
    given = {name: value for name, value in flags.items() if value is not None}
    foreign = [_flag_name(name) for name in given if name not in own]
    if foreign:
        raise click.UsageError(
            f"{', '.join(foreign)} not accepted by --method {method}"
        )
    file_cfg = _load_json(config_path) if config_path else {}
    section = _method_section(file_cfg, method)
    method_cfg = _build_method_cfg(method, {"seed": seed, **section, **given})

    try:
        setting = load_setting(setting_dir)
        sdm = ev.make_sdm(method, method_cfg)
        sdm.fit(setting.valid_emb, setting.valid_split)
        if score_split == "test":
            emb, split = setting.test_emb, setting.test_split
        else:
            emb, split = setting.valid_emb, setting.valid_split
        scores = sdm.transform(emb, split)
        if phrases_path is not None:
            if phrase_emb_path is None:
                raise click.UsageError("--phrases requires --phrase-embeddings")
            if score_split != "valid":
                raise click.UsageError(
                    "descriptions need validation-split scores; use --score-split valid"
                )
            corpus = load_phrase_corpus(phrases_path, phrase_emb_path, synonyms_path)
            scores = describe_slices(emb, split, scores, corpus, top=top)

        precisions, best_columns = ev.score_setting(scores, split, k)
        for name, precision, best in zip(split.slice_names, precisions, best_columns):
            click.echo(
                f"slice {name!r}: precision@{k} = {precision:.4f} (discovered slice {best})"
            )
        if out_path is not None:
            save_scores(scores, out_path)
            click.echo(f"wrote scores to {out_path}")
    except SliceKitError as exc:
        raise click.ClickException(str(exc)) from exc


# --- eval -------------------------------------------------------------------


def _eval_task(args: tuple) -> dict:
    setting_path, setting_id, method, method_cfg, k, beta = args
    try:
        setting = load_setting(setting_path)
        result = ev.run_setting(
            setting, method, method_cfg, k=k, beta=beta, setting_id=setting_id
        )
        return {"ok": True, "result": ev.result_to_dict(result)}
    except Exception as exc:  # per-setting failures must not abort the batch
        return {
            "ok": False,
            "error": {"setting_id": setting_id, "method": method, "error": str(exc)},
        }


@main.command(name="eval")
@click.option("--manifest", "manifest_path", required=True, type=click.Path(exists=True))
@click.option("--methods", default="domino", show_default=True, help="Comma-separated method names.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
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
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    for method in method_list:
        _check_method(method)
    if not method_list:
        raise click.UsageError("no methods selected")
    if jobs < 1:
        raise click.UsageError("--jobs must be at least 1")

    try:
        entries = load_manifest(manifest_path)
    except SliceKitError as exc:
        raise click.UsageError(str(exc)) from exc
    file_cfg = _load_json(config_path) if config_path else {}
    sections = file_cfg.get("methods", {})
    # Every config is built before any task runs, so a bad section is a usage
    # error; each task then replaces the seed with its own derived one.
    configs = {
        m: _build_method_cfg(m, {**_method_section(file_cfg, m), "seed": 0})
        for m in method_list
    }

    tasks = []
    for setting_id, setting_path in entries:
        for method in method_list:
            task_seed = derive_seed(seed, "eval", setting_id, method)
            cfg = configs[method]
            if cfg is not None:
                cfg = dataclasses.replace(cfg, seed=task_seed)
            tasks.append((str(setting_path), setting_id, method, cfg, k, beta))

    if jobs == 1:
        outcomes = [_eval_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_eval_task, tasks))

    results = [ev.result_from_dict(o["result"]) for o in outcomes if o["ok"]]
    errors = [o["error"] for o in outcomes if not o["ok"]]
    for error in errors:
        click.echo(
            f"error: {error['setting_id']} [{error['method']}]: {error['error']}",
            err=True,
        )
    if not results:
        raise click.ClickException("all settings failed")

    reports = ev.aggregate(results, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {
        "manifest": str(manifest_path),
        "methods": method_list,
        "seed": seed,
        "k": k,
        "beta": beta,
        "method_configs": sections,
    }
    write_json(out / "eval_config.json", resolved)
    document = ev.report_document(results, reports, errors=errors, config=resolved)
    write_json(out / "report.json", document)
    (out / "report.md").write_text(ev.report_markdown(reports, k=k))
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
@click.option("--synonyms", "synonyms_path", type=click.Path(exists=True), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--top", type=int, default=10, show_default=True)
def describe(
    setting_dir: str,
    scores_path: str,
    phrases_path: str,
    phrase_emb_path: str,
    synonyms_path: str | None,
    out_path: str,
    top: int,
) -> None:
    """Rank corpus phrases for each slice of a validation-split scores file."""
    try:
        setting = load_setting(setting_dir)
        scores = load_scores(scores_path)
        corpus = load_phrase_corpus(phrases_path, phrase_emb_path, synonyms_path)
        described = describe_slices(
            setting.valid_emb, setting.valid_split, scores, corpus, top=top
        )
        save_scores(described, out_path)
    except SliceKitError as exc:
        raise click.ClickException(str(exc)) from exc
    for j, phrases in enumerate(described.slice_descriptions):
        head = ", ".join(phrases[:3])
        click.echo(f"slice {j}: {head}")
    click.echo(f"wrote descriptions to {out_path}")


# --- report -----------------------------------------------------------------


@main.command()
@click.option("--results", "results_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
def report(results_path: str, out_dir: str, seed: int, k: int) -> None:
    """Re-aggregate a per-setting results document into fresh report files."""
    doc = _load_json(results_path)
    rows = doc.get("results", [])
    if not rows:
        raise click.UsageError(f"{results_path}: no results to aggregate")
    results = [ev.result_from_dict(row) for row in rows]
    reports = ev.aggregate(results, seed=seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    document = ev.report_document(results, reports, errors=doc.get("errors", []), config=doc.get("config", {}))
    write_json(out / "report.json", document)
    (out / "report.md").write_text(ev.report_markdown(reports, k=k))
    click.echo(f"aggregated {len(results)} results into {out}")


if __name__ == "__main__":
    main()
