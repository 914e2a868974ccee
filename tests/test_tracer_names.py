"""The benchmark's tracer wraps beamtrack functions by name; a refactor that
drops or renames one of them must fail here, not only in a traced run."""

import types
from pathlib import Path

from beamtrack import filtering

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Compiled from its source so that no bytecode cache is written next to it.
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves_and_is_put_back():
    tracer = _load_tracer()
    points = [(owner, attr) for owner, attr, _, _ in tracer.ENTRY_POINTS]
    points.append((filtering.GaussianBelief, "__post_init__"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points if attr not in owner.__dict__]
    assert not missing, f"traced names that no longer exist: {missing}"
    originals = [owner.__dict__[attr] for owner, attr in points]
    with tracer.Tracer().installed():
        pass
    for (owner, attr), raw in zip(points, originals):
        assert owner.__dict__[attr] is raw, f"{owner.__name__}.{attr} was not restored"
