"""The benchmark's trace targets (TARGETS of perfbench/spans.py) name
callables of the package.  A traced benchmark run reports a missing name
as absent and still exits 0, so a removed or renamed name fails here."""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> list:
    """TARGETS, read from the source text: spans.py is not imported."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_trace_target_resolves_to_a_callable():
    """Each target is a callable defined in its module: a name moved to
    another module and imported back would resolve, but the benchmark's
    wrapper would miss the calls made inside its new module."""
    targets = _targets()
    assert targets
    missing, moved = [], []
    for module, qualname in targets:
        obj = importlib.import_module(f"slicereg.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
        elif obj.__module__ != f"slicereg.{module}":
            moved.append(f"{module}.{qualname} is defined in {obj.__module__}")
    assert not missing
    assert not moved
