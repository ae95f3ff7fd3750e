"""
The benchmark tracer (perfbench/tracer.py) patches dilutetl by name: a
class entry from that class's own __dict__, a module function in every
dilutetl module that binds it.  These tests pin the names it needs and
check that uninstall() puts every binding back.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def _bindings(tracer):
    """Every name bound in a dilutetl module or a traced class, with its value."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "dilutetl" or name.startswith("dilutetl."):
            out.update(((name, attr), val) for attr, val in vars(mod).items())
    for targets in tracer.OPS.values():
        for owner, attr in targets:
            if isinstance(owner, type):
                out.update(((owner, a), val) for a, val in vars(owner).items())
    return out


def test_every_traced_name_resolves(tracer):
    for op, targets in tracer.OPS.items():
        for owner, attr in targets:
            if isinstance(owner, type):
                assert attr in owner.__dict__, (op, owner.__name__, attr)
            else:
                assert callable(getattr(owner, attr, None)), (op, owner.__name__, attr)


def test_uninstall_restores_every_binding(tracer):
    import dilutetl.cli  # noqa: F401  (the tracer also patches the CLI's bindings)
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        t.install()
        assert _bindings(tracer) != before
    finally:
        t.uninstall()
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is val for key, val in before.items())
