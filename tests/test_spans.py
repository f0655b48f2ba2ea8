"""The benchmark's tracer finds every spikecore attribute it wraps.

`bench/spans.py` wraps functions by name where spikecore binds them, such
as `core.add_raw`, which the core itself does not call; without this test
only a traced benchmark run would notice a binding that went.  The other
way round, an import that spikecore keeps unused (`# noqa: F401`) must be
one that the tracer wraps, so that a binding goes once the tracer drops it.
"""

import ast
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "spikecore"


def test_tracer_targets_resolve_and_are_restored():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS if not hasattr(owner, attr)]
    assert not missing
    before = [getattr(owner, attr) for owner, attr, _ in spans.TARGETS]
    with spans.instrument(spans.Tracer()):
        wrapped = [getattr(owner, attr) for owner, attr, _ in spans.TARGETS]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(getattr(owner, attr) is b for (owner, attr, _), b in zip(spans.TARGETS, before))


def test_every_unused_import_is_a_tracer_target():
    targets = {(owner, attr) for owner, attr, _ in spans.TARGETS}
    unwrapped = []
    for path in sorted(SRC.glob("*.py")):
        name = "spikecore" if path.stem == "__init__" else f"spikecore.{path.stem}"
        module = importlib.import_module(name)
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if "noqa: F401" in " ".join(lines[node.lineno - 1:node.end_lineno]):
                bound = (alias.asname or alias.name for alias in node.names)
                unwrapped += [f"{name}.{b}" for b in bound if (module, b) not in targets]
    assert not unwrapped
