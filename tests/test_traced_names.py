"""Every function and method that the traced benchmark run patches must stay
importable under its `module:qualname` in perfbench/layers.json, so that a
rename shows up here instead of breaking the traced run."""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


def _resolve(target: str):
    """'pkg.mod:Class.attr' -> the callable it names (as the tracer resolves
    it: import the module, then follow the dotted attribute path)."""
    modname, qual = target.split(":")
    owner = importlib.import_module(modname)
    for part in qual.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_name_resolves():
    layers = json.loads(LAYERS.read_text(encoding="utf-8"))["layers"]
    targets = [t for layer in layers for t in layer["wraps"]]
    assert targets
    missing = []
    for target in targets:
        try:
            if not callable(_resolve(target)):
                missing.append(f"{target}: not callable")
        except (ImportError, AttributeError) as exc:
            missing.append(f"{target}: {exc}")
    assert not missing, missing
