"""The package's YAML loader and dumper: libyaml where PyYAML has it, with
the documents, errors and text of PyYAML's pure-Python SafeLoader and
SafeDumper, which are also the fallback."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import planbench
from planbench import errors, world
from planbench.data import data_path
from planbench.errors import ParseError
from planbench.params import load_params, parse_params
from planbench.robot import load_robot
from planbench.world import (FAMILIES, generate_variations, load_scenario, parse_scenario,
                             serialize_scenario)

ASSETS = {
    "arm8": (load_robot, ("robots", "arm8.yaml")),
    "shelf_easy": (load_scenario, ("scenarios", "shelf_easy.yaml")),
    "shelf_reach": (load_scenario, ("scenarios", "shelf_reach.yaml")),
    "default": (load_params, ("params", "default.yaml")),
    "shelf_tuned": (load_params, ("params", "shelf_tuned.yaml")),
}


def fields(value):
    """A value's dataclass fields, recursively, with arrays as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: fields(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [fields(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


@pytest.fixture(params=["package", "fallback"])
def loader(request, monkeypatch):
    """Run the test with the package loader and again with yaml.SafeLoader,
    the loader of a PyYAML built without libyaml."""
    if request.param == "fallback":
        monkeypatch.setattr(errors, "YamlLoader", yaml.SafeLoader)


@pytest.mark.parametrize("asset", sorted(ASSETS))
def test_assets_parse_to_the_safe_loader_documents(asset):
    text = data_path(*ASSETS[asset][1]).read_text(encoding="utf-8")
    doc = yaml.load(text, Loader=errors.YamlLoader)
    assert doc == yaml.load(text, Loader=yaml.SafeLoader)
    assert isinstance(doc, dict) and doc


@pytest.mark.parametrize("asset", sorted(ASSETS))
def test_assets_load_to_equal_objects_under_the_fallback(monkeypatch, asset):
    load, parts = ASSETS[asset]
    loaded = fields(load(data_path(*parts)))
    monkeypatch.setattr(errors, "YamlLoader", yaml.SafeLoader)
    assert fields(load(data_path(*parts))) == loaded


@pytest.mark.parametrize("family", FAMILIES)
def test_dumper_writes_the_safe_dumper_text(monkeypatch, family):
    base = load_scenario(data_path("scenarios", "shelf_reach.yaml"))
    variations = generate_variations(base, family, 30, 11)
    texts = [serialize_scenario(v) for v in variations]
    monkeypatch.setattr(world, "YamlDumper", yaml.SafeDumper)
    assert [serialize_scenario(v) for v in variations] == texts


# Nesting deep enough to pass the recursion limit in the composer, yet
# shallow enough for a composer that recurses in C to return.
DEEP = "[" * sys.getrecursionlimit() + "]" * sys.getrecursionlimit()


@pytest.mark.usefixtures("loader")
@pytest.mark.parametrize("parse", [parse_params, parse_scenario])
@pytest.mark.parametrize("text, line", [
    ("common: {edge_step: [1, 2\n", 2),
    ("common:\n  seed: 1\n  edge_step: a: b\n", 3),
    ("common: *missing\n", 1),
    ("common: &a 1\nseed: &a 2\n", 2),
    ("common:\n\t- 1\n", 2),
    ("? [1]\n: 2\n", 1),
    ("common: 1\n---\nseed: 2\n", 2),
    ("common: !!binary zz\n", 1),
    ("common: {seed: 2024-13-45}\n", None),
    ("common: {seed: " + "7" * 5000 + "}\n", None),
    ("common: " + DEEP + "\n", None),
], ids=["unclosed_flow", "mapping_in_plain", "undefined_alias", "duplicate_anchor",
        "tab_indent", "unhashable_key", "two_documents", "bad_binary", "bad_date",
        "long_integer", "deep_nesting"])
def test_malformed_documents_raise_parse_error(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


def test_very_deep_nesting_is_a_parse_error_not_a_crash():
    # In a child process, so that a composer recursing in C, such as
    # yaml.CSafeLoader's, fails this test by its signal instead of ending
    # the test run.
    code = ("import sys\n"
            "from planbench.errors import ParseError\n"
            "from planbench.params import parse_params\n"
            "try:\n"
            "    parse_params('common: ' + '[' * 40000 + ']' * 40000)\n"
            "except ParseError as exc:\n"
            "    sys.exit(0 if exc.line is None else 3)\n"
            "sys.exit(2)\n")
    src = str(Path(planbench.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
