"""Start-up cost: ``import evslab`` loads a submodule only when one of its
names is first read, no module generates code (``dataclasses``) when it
loads, and the command line loads neither ``click`` nor ``inspect``,
and no evslab module until a command runs it.  Each check runs in a
fresh interpreter, since this test process has already imported every
module."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_hygiene import README, _public_api

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = sorted(p.stem for p in (SRC / "evslab").glob("*.py")
                    if p.stem != "__init__")


def _fresh(code: str):
    """The JSON value that ``code`` prints last, run in a fresh
    interpreter that imports evslab from this checkout."""
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


_LOADED = "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


@pytest.fixture
def axioms_setup(monkeypatch):
    """The code the benchmark's ``axioms`` workload times as set-up."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    return workloads.Axioms.SETUP


def test_axioms_setup_loads_no_set_module_and_generates_no_code(
        axioms_setup):
    loaded = set(_fresh(axioms_setup + _LOADED))
    assert "evslab.instances" in loaded
    assert sorted(loaded & {
        "dataclasses", "inspect", "evslab.sets", "evslab.setlaws",
        "evslab.topology", "evslab.setexpr"}) == []


def test_cli_import_generates_no_code():
    loaded = set(_fresh("import evslab.cli" + _LOADED))
    # a command loads what it runs, when it runs it
    assert sorted(m for m in loaded if m.startswith("evslab")) == [
        "evslab", "evslab._backend", "evslab.cli"]
    # the command line is argparse: no click, and so no inspect
    assert sorted(loaded & {"dataclasses", "click", "inspect"}) == []


NO_SET_MODULE = ("evslab.sets", "evslab.topology", "evslab.setexpr")
HALFLINE_SETS = str(ROOT / "tests" / "golden" / "cli-input" /
                    "halfline-sets.txt")


UNLOADED_BY = [
    # no set is built: twisted:2 and the product have no separator, and
    # lattice2 is refuted from its absorbing characterisation
    (["all", "twisted:2"], NO_SET_MODULE),
    (["all", "lattice2"], NO_SET_MODULE),
    (["all", "product:(halfline,dict2)"], NO_SET_MODULE),
    # separators are sets, but nothing decides boundedness
    (["all", "cone:2"], ("evslab.topology",)),
    (["all", "dict2"], ("evslab.topology",)),
    (["sets", "halfline", "--input", HALFLINE_SETS], ("evslab.topology",)),
    # no file, so no set grammar
    (["all", "halfline"], ("evslab.setexpr",)),
]


@pytest.mark.parametrize("argv,unloaded", UNLOADED_BY,
                         ids=[" ".join(argv[:2]) for argv, _ in UNLOADED_BY])
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded):
    code, loaded = _fresh(f"""
import json, sys
import evslab.cli
try:
    evslab.cli.main({[*argv, "--budget", "20"]!r})
except SystemExit as exc:  # main always exits
    print(json.dumps([exc.code, sorted(sys.modules)]))
""")
    assert code in (0, 1)  # the checks ran; 1 reports a Refuted finding
    assert sorted(set(loaded) & set(unloaded)) == []


def test_lazy_exports_resolve_to_their_definitions():
    api = _public_api(README.read_text(encoding="utf-8"))
    defined_in = {name: module for module, names in api.items()
                  for name in names}
    found = _fresh(f"""
import importlib, json, sys
import evslab
bare = sorted(m for m in sys.modules if m.startswith("evslab."))
wrong = [name for name, module in {defined_in!r}.items()
         if getattr(evslab, name) is not getattr(
             importlib.import_module("evslab." + module), name)]
wrong += [module for module in {SUBMODULES!r}
          if getattr(evslab, module)
          is not importlib.import_module("evslab." + module)]
star = {{}}
exec("from evslab import *", star)
print(json.dumps({{
    "bare": bare, "wrong": wrong,
    "star": sorted(k for k, v in star.items()
                   if k != "__builtins__" and v is getattr(evslab, k)),
    "undir": sorted(set(evslab.__all__) - set(dir(evslab)))}}))
""")
    assert found["bare"] == ["evslab._backend"]
    assert found["wrong"] == []
    # the names and the public submodules, as before the exports were lazy
    assert found["star"] == sorted([*defined_in, *(
        module for module in api if not module.startswith("_"))])
    assert found["undir"] == []
