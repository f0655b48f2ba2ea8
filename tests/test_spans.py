"""The benchmark's tracer finds every spikecore attribute it wraps.

`bench/spans.py` wraps functions by name where spikecore binds them, such
as `core.add_raw`, which the core itself does not call; without this test
only a traced benchmark run would notice a binding that went.  The other
way round, a name that a spikecore import binds and the module never reads
(found in its syntax tree, whatever its comments say) must be one that the
tracer wraps, so that a binding goes once the tracer drops it.  And every
weight write is seen, since the set-up metrics count its spans.
"""

import ast
import importlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402
from spikecore.core import Core, CoreConfig, RealRegisters  # noqa: E402
from spikecore.fixedpoint import Q9_7, QWord  # noqa: E402

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


def unused_imports(text: str) -> list[str]:
    """Names that a module's imports bind and that it never reads nor lists
    in `__all__`."""
    tree = ast.parse(text)
    bound = [alias.asname or alias.name.partition(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__" for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read | exported]


def test_unused_imports_are_found_by_name_not_by_comment():
    text = "from __future__ import annotations\nimport os.path\nimport re\n" \
           "from x import a, b as c, d  # noqa: E501\n__all__ = ['d']\nre.compile(a)\n"
    assert unused_imports(text) == ["os", "c"]


def test_every_unused_import_is_a_tracer_target():
    targets = {(owner, attr) for owner, attr, _ in spans.TARGETS}
    unwrapped = []
    for path in sorted(SRC.glob("*.py")):
        name = "spikecore" if path.stem == "__init__" else f"spikecore.{path.stem}"
        module = importlib.import_module(name)
        unwrapped += [f"{name}.{b}" for b in unused_imports(path.read_text())
                      if (module, b) not in targets]
    assert not unwrapped


def test_no_test_module_binds_an_unused_import():
    # The tracer wraps nothing under tests/, so an unread binding there has no reason to stay.
    tests = Path(__file__).resolve().parent.glob("*.py")
    unused = {path.name: unused_imports(path.read_text()) for path in tests}
    assert "harness.py" in unused and not any(unused.values()), unused


def test_the_tracer_sees_every_weight_write():
    # A store that went round WeightMemory.write, or a real that went round
    # encode_raw, would blind the set-up metrics that count these spans.
    # numpy indices take the operator.index path of both writes' address
    # checks; each pass changes every weight, so a write that stored nothing shows.
    core = Core(CoreConfig.uniform(Q9_7, (4, 3), RealRegisters(0.2, 1.0, 4.0)))
    calls = 12
    for index in (int, np.int64):
        for value, encodes in ((0.75, calls), (QWord(Q9_7, -32), 0)):
            tracer = spans.Tracer()
            with spans.instrument(tracer):
                for i in range(calls):
                    core.write_weight(index(0), index(i % 4), index(i % 3), value)
            tracer.flush()
            assert tracer.get("core.write_weight")[0] == calls
            assert tracer.get("topology.WeightMemory.write")[0] == calls
            assert tracer.get("fixedpoint.encode_raw")[0] == encodes
            assert (core.decoded_weights()[0] == getattr(value, "value", value)).all()
