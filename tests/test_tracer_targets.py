"""Every layer boundary the benchmark tracer patches must exist in nagc.

perfbench/tracer.py names the functions it wraps by module and attribute
path. A rename in nagc would otherwise surface only in the traced benchmark
smoke test, which takes most of a minute.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    """The TARGETS tuple of the tracer, read from its source without
    importing the benchmark package."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = []
    for modname, path, span in targets:
        owner = importlib.import_module(modname)
        for part in path.split("."):
            if part not in vars(owner):
                missing.append(f"{modname}.{path} (span {span})")
                break
            owner = vars(owner)[part]
        else:
            if not callable(owner):
                missing.append(f"{modname}.{path} is not callable (span {span})")
    assert not missing, "tracer targets missing from nagc: " + ", ".join(missing)
