"""The benchmark's tracer (perfbench/tracer.py) rebinds logtrees callables by
name.  Installing it must find every name it patches, and uninstalling it
must put every binding back."""
import sys
from pathlib import Path

from logtrees import asymptotics, cli, fixpoint, moments, roots, treesim  # noqa: F401

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATCHED_CLASSES = (asymptotics.PeriodicFunction, treesim.SimStats, fixpoint.SamplePool)


def _bindings() -> dict:
    """(owner, name) -> bound object for every logtrees module global and
    every attribute of the classes whose methods the tracer wraps."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.startswith("logtrees"):
            out.update({(mod_name, key): value for key, value in vars(mod).items()})
    for cls in PATCHED_CLASSES:
        out.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return out


def test_install_patches_by_name_and_uninstall_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer as tracing

    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        during = _bindings()
        moved = {key for key, value in before.items() if during[key] is not value}
        # the names only --trace 1 reaches
        assert ("logtrees.roots", "quadtree_exponents") in moved
        assert ("logtrees.fixpoint", "sample_median") in moved
        assert ("SimStats", "merge") in moved
    finally:
        tracer.uninstall()
        sys.modules.pop("tracer", None)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
