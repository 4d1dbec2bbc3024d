"""The README's CLI examples name only options their commands have, and its configs build."""

import json
import re
from pathlib import Path

from slicekit.cli import _build_method_cfg, _ConfigFile, build_config, main
from slicekit.evaluate import METHODS
from slicekit.settings import GenConfig, IngestedModel, SynthConfig, SyntheticModelSpec

README = Path(__file__).parents[1] / "README.md"


def cli_lines() -> list[list[str]]:
    """The words of each ``slicekit`` line in the README's bash blocks, continuations joined."""
    blocks = re.findall(r"^```bash\n(.*?)^```", README.read_text(), re.M | re.S)
    joined = "\n".join(blocks).replace("\\\n", " ")
    return [line.split() for line in joined.splitlines() if line.startswith("slicekit ")]


def test_readme_cli_examples_use_real_options():
    lines = cli_lines()
    # every command has an example, so an empty parse cannot pass
    assert {words[1] for words in lines} == set(main.commands)
    for words in lines:
        command = main.commands[words[1]]
        options = {o for param in command.params for o in param.opts + param.secondary_opts}
        for word in words[2:]:
            flag = word.split("=", 1)[0]
            if flag.startswith("--"):
                assert flag in options, f"slicekit {words[1]} has no option {flag}"


def test_readme_config_examples_build():
    # the examples go through the CLI's config builder, so the documented
    # schema and the config dataclasses cannot drift apart
    text = README.read_text()
    examples = dict(re.findall(r"^Example `(\w+\.json)`.*?^```json\n(.*?)^```", text, re.M | re.S))
    assert set(examples) == {"methods.json", "synth.json", "gen.json"}
    sections = build_config(_ConfigFile, json.loads(examples["methods.json"]), "--config").methods
    assert set(sections) == set(METHODS)
    for method, section in sections.items():
        cfg = _build_method_cfg(method, section, seed=5)
        assert isinstance(cfg, METHODS[method].Config) and cfg.seed == 5
    synth = build_config(SynthConfig, json.loads(examples["synth.json"]), "synth")
    assert isinstance(synth.model, SyntheticModelSpec) and len(synth.grid()) == 30
    gen = json.loads(examples["gen.json"])
    assert isinstance(build_config(GenConfig, gen, "gen").model, SyntheticModelSpec)
    ingested = re.search(r'`(\{"kind": "ingested".*?\})`', text).group(1)
    built = build_config(GenConfig, {**gen, "model": json.loads(ingested)}, "gen")
    assert isinstance(built.model, IngestedModel)
