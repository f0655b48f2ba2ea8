"""The benchmark's tracer finds every spikecore attribute it wraps.

`bench/spans.py` wraps functions by name where spikecore binds them, such
as `core.add_raw`, which the core itself does not call; without this test
only a traced benchmark run would notice a binding that went.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def test_tracer_targets_resolve_and_are_restored():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans.TARGETS if not hasattr(owner, attr)]
    assert not missing
    before = [getattr(owner, attr) for owner, attr, _ in spans.TARGETS]
    with spans.instrument(spans.Tracer()):
        wrapped = [getattr(owner, attr) for owner, attr, _ in spans.TARGETS]
    assert all(w is not b for w, b in zip(wrapped, before))
    assert all(getattr(owner, attr) is b for (owner, attr, _), b in zip(spans.TARGETS, before))
