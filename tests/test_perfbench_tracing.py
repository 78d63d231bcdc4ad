"""The benchmark's call tracer, ``perfbench/tracing.py``, wraps evslab
functions by name: every name it wraps must exist, or a traced run dies
in ``Tracer.install``, and uninstalling it must leave evslab as it
found it."""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("tracing")


def test_every_traced_name_exists(tracing):
    missing = [(owner.__name__, attr)
               for owner, attr, _, _ in tracing.TRACED
               if not (attr in vars(owner) if isinstance(owner, type)
                       else hasattr(owner, attr))]
    missing += [(module.__name__, attr)
                for module, attr in tracing.DESCRIPTOR_FACTORIES
                if not hasattr(module, attr)]
    assert missing == []


def _bindings(tracing) -> dict:
    """Every evslab module global and every attribute of a traced class,
    keyed by (owner, name)."""
    owners = [m for n, m in sys.modules.items() if m is not None
              and (n == "evslab" or n.startswith("evslab."))]
    owners += [o for o, _, _, _ in tracing.TRACED if isinstance(o, type)]
    return {(o, k): v for o in owners for k, v in vars(o).items()}


def test_uninstall_restores_every_rebound_name(tracing):
    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings(tracing)
    finally:
        tracer.uninstall()
    rebound = {key for key, v in before.items() if during[key] is not v}
    # each traced function, and each descriptor factory, was rebound
    assert {(o.__name__, a) for o, a, _, _ in tracing.TRACED} | {
        (m.__name__, a) for m, a in tracing.DESCRIPTOR_FACTORIES} <= {
        (o.__name__, k) for o, k in rebound}
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert [key for key, v in before.items() if after[key] is not v] == []
