"""Every name that a `spikecore` module declares in `__all__` exists."""

import importlib
import pkgutil

import spikecore


def test_every_declared_name_exists():
    names = sorted(m.name for m in pkgutil.iter_modules(spikecore.__path__))
    assert {"core", "fixedpoint", "neuron", "reference", "topology"} <= set(names)
    for name in names:
        module = importlib.import_module(f"spikecore.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"spikecore.{name}.__all__ names missing attributes: {missing}"
        assert len(set(module.__all__)) == len(module.__all__), f"spikecore.{name}"
