"""Source hygiene: every name a library module imports is used there
(``__init__.py`` is exempt because its imports are the package's public
re-exports), every function and upper-case constant is reached by
another module or named in the README's public API, which is exactly
``evslab.__all__``, every default of a function outside that API is
both overridden and used by some call, no verdict rests on an
``assert``, no decider samples, one function raises the deciders'
``ValueError("empty set")``, every seeded draw goes through the
``_backend`` draw helpers, ``core`` and ``setlaws`` build a Proven
only through ``outcome.check_law`` and no law outside ``outcome`` counts
its own cases.  Every check id an instance command
emits belongs to exactly one ``cli.CHECKS`` row, and every id of the
README's "Paper results" table is emitted by some command.  The
README's "Instances" table lists exactly the spec kinds ``make_instance``
builds.
"""

import ast
import importlib
import json
import pathlib
import re
import types

import pytest
from cli_runner import CliRunner

import evslab
from evslab import cli
from evslab.instances import (_NAMED, _SIZED, MORPHISMS, PLANTED_FAULTS,
                              half_line)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "evslab"
README = SRC.parent.parent / "README.md"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_sees_unused_and_used_names():
    assert _unused_imports("import os\nfrom typing import Optional\n") == \
        [(1, "os"), (2, "Optional")]
    assert _unused_imports("import os.path as p\nfrom . import sets as st\n"
                           "p.join(st.x)\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _names(node, skip=None) -> set:
    """Every name, attribute and imported name used in ``node``, except
    inside its subtree ``skip``."""
    out, stack = set(), [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _strings(node) -> set:
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _unreferenced_functions(sets_source: str, other_sources,
                            public=()) -> list:
    """Top-level functions, non-dunder methods and upper-case module
    constants of a library module that nothing reaches: not named in
    another module, nor anywhere in the module outside their own body
    or assignment, nor in ``public``.  A method is listed as
    ``Class.name``; its name in a string constant anywhere counts as
    reached, since ``sets.carrier_operation`` looks methods up by name.
    A decorator reaches nothing: a decorated top-level function is
    listed like any other.  The ``brute_*`` reference oracles and the
    ``random_*`` generators exist for tests and benchmarks, so they are
    exempt; a constant only tests read is not."""
    tree = ast.parse(sets_source)
    others = [ast.parse(s) for s in other_sources]
    elsewhere = set().union(*(_names(t) for t in others))
    strings = set().union(*(_strings(t) for t in [tree, *others]))
    candidates = [(fn.name, fn.name, fn) for fn in tree.body
                  if isinstance(fn, ast.FunctionDef)]
    candidates += [(f"{cls.name}.{fn.name}", fn.name, fn)
                   for cls in tree.body
                   if isinstance(cls, ast.ClassDef) for fn in cls.body
                   if isinstance(fn, ast.FunctionDef)
                   and not (fn.name.startswith("__")
                            and fn.name.endswith("__"))
                   and fn.name not in strings]
    candidates += [(t.id, t.id, node) for node in tree.body
                   if isinstance(node, (ast.Assign, ast.AnnAssign))
                   for t in (node.targets if isinstance(node, ast.Assign)
                             else [node.target])
                   if isinstance(t, ast.Name) and t.id.isupper()]
    out = []
    for label, name, node in candidates:
        if name.startswith(("brute_", "random_")):
            continue
        if name not in _names(tree, skip=node) | elsewhere | set(public):
            out.append(label)
    return out


def _public_api(readme: str) -> dict:
    """``{module: [name, ...]}`` from the README's "Public API" section,
    one bullet per module: ``- `pkg.module`: `name`, `name`, ...``.  A
    README without the section lists nothing."""
    section = readme.partition("\n## Public API\n")[2].partition("\n## ")[0]
    api = {}
    for item in re.split(r"\n(?=- )", section):  # a bullet may wrap
        if item.startswith("- `"):
            module, *names = re.findall(r"`([\w.]+)`", item)
            api[module.rsplit(".", 1)[-1]] = names
    return api


def _package_unreached(path: pathlib.Path, readme: str) -> list:
    """``_unreferenced_functions`` for the package module ``path``: the
    package's other modules reach a name by using it, the README by
    listing it in its public API, and ``__init__.py`` never, since its
    re-exports would reach every name it imports."""
    others = [p.read_text(encoding="utf-8")
              for p in sorted(path.parent.glob("*.py"))
              if p != path and p.name != "__init__.py"]
    return _unreferenced_functions(path.read_text(encoding="utf-8"), others,
                                   _public_api(readme).get(path.stem, ()))


def test_reachability_checker_sees_callers():
    sets_src = ("def used(): pass\ndef lonely(): pass\n"
                "def caller(): used()\ndef brute_x(): pass\n")
    assert _unreferenced_functions(sets_src, ["from .sets import caller\n"]) \
        == ["lonely"]
    assert _unreferenced_functions(sets_src, ["st.lonely(st.caller)\n"]) \
        == []


def test_reachability_checker_sees_methods():
    src = ("class C:\n"
           "    def __eq__(self, o): return self.used() and self.prop\n"
           "    def used(self): pass\n"
           "    @property\n"
           "    def prop(self): pass\n"
           "    def lonely(self): self.lonely()\n"
           "    def by_name(self): pass\n"
           "    def helper(self): pass\n"
           "def f(c): return getattr(c, 'by_name')\n")
    assert _unreferenced_functions(src, []) == \
        ["f", "C.lonely", "C.helper"]
    assert _unreferenced_functions(src, ["m.f(c.helper())\n"]) == \
        ["C.lonely"]


def test_reachability_checker_sees_constants():
    src = ("IDS = ('a', 'b')\n"
           "USED = 1\n"
           "TYPED: dict = {}\n"
           "_PRIVATE = 2\n"
           "lower = 3\n"
           "SELF = SELF_TOO = 4\n"
           "def f(): return USED\n")
    assert _unreferenced_functions(src, ["from .m import f\n"]) == \
        ["IDS", "TYPED", "_PRIVATE", "SELF", "SELF_TOO"]
    assert _unreferenced_functions(
        src, ["from .m import f, IDS\n", "m.TYPED[m._PRIVATE] = m.SELF\n",
              "g(SELF_TOO)\n"]) == []


def test_reachability_checker_reports_a_decorated_function():
    cli_src = ("@main.command()\ndef bounded(): pass\n"
               "def helper(): pass\n")
    assert _unreferenced_functions(cli_src, []) == ["bounded", "helper"]


def test_a_re_export_alone_reaches_nothing(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .m import listed, lonely, used\n")
    (tmp_path / "m.py").write_text(
        "def used(): pass\ndef lonely(): pass\ndef listed(): pass\n")
    (tmp_path / "n.py").write_text("from .m import used\nused()\n")
    readme = ("# toy\n\n## Public API\n\nIntro with `lonely`.\n\n"
              "- `toy.m`: `listed`\n- `toy.n`: `lonely`\n\n"
              "## Tests\n\n- `toy.m`: `lonely`\n")
    assert _public_api(readme) == {"m": ["listed"], "n": ["lonely"]}
    assert _package_unreached(tmp_path / "m.py", readme) == ["lonely"]
    assert _package_unreached(tmp_path / "m.py", "# toy\n") == \
        ["lonely", "listed"]
    assert _package_unreached(
        tmp_path / "m.py",
        readme.replace("`listed`\n", "`listed`,\n  `lonely`\n")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_sets_function_is_reached_from_the_library(path):
    assert _package_unreached(path, README.read_text(encoding="utf-8")) == []


def test_readme_public_api_is_the_package_exports():
    """``evslab.__all__``, submodules aside, is the README's list, and
    each listed name is the object its listed module defines."""
    api = _public_api(README.read_text(encoding="utf-8"))
    exported = [name for name in evslab.__all__
                if not isinstance(getattr(evslab, name), types.ModuleType)]
    assert sorted(exported) == sorted(n for names in api.values()
                                      for n in names)
    for module, names in api.items():
        mod = importlib.import_module(f"evslab.{module}")
        assert [n for n in names
                if getattr(evslab, n) is not getattr(mod, n, None)] == []


def _call_table(sources) -> dict:
    """``{name: [(args, keywords), ...]}`` for every call in ``sources``
    by a name or attribute; ``partial(f, ...)`` is a call of ``f``."""
    def name(func):
        return getattr(func, "id", getattr(func, "attr", None))

    table = {}
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                func, args = n.func, n.args
                if name(func) == "partial" and args:
                    func, args = args[0], args[1:]
                table.setdefault(name(func), []).append((args, n.keywords))
    return table


def _defaulted_parameters(source: str, public=()) -> list:
    """``(label, function, position, parameter)`` for each defaulted
    parameter of a non-dunder function or method of ``source`` whose
    name ``public`` does not list.  ``position`` indexes a call's
    positional arguments, a method's ``self`` already bound, and is None
    for a keyword-only parameter."""
    out = []

    def visit(node):
        for fn in ast.iter_child_nodes(node):
            if isinstance(fn, ast.FunctionDef) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                    or fn.name in public):
                in_class = isinstance(node, ast.ClassDef)
                label = f"{node.name}.{fn.name}" if in_class else fn.name
                bound = in_class and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in fn.decorator_list)
                a = fn.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                out.extend((f"{label}.{p.arg}", fn.name, i - bound, p.arg)
                           for i, p in enumerate(positional) if i >= first)
                out.extend((f"{label}.{p.arg}", fn.name, None, p.arg)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
            visit(fn)

    visit(ast.parse(source))
    return out


def _single_valued_defaults(source: str, calls: dict, public=()) -> list:
    """Labels of the defaulted parameters of ``source`` (see
    ``_defaulted_parameters``) that the calls of ``_call_table`` never
    override or never leave at their default: a setting with one value
    in use is a constant.  A call with ``*args`` or ``**kwargs`` that
    does not name the parameter does both."""
    out = []
    for label, fn, position, param in _defaulted_parameters(source, public):
        used = overridden = False
        for args, keywords in calls.get(fn, ()):
            plain = next((i for i, a in enumerate(args)
                          if isinstance(a, ast.Starred)), len(args))
            named = {k.arg for k in keywords}
            if position is not None and position < plain or param in named:
                overridden = True
            elif plain < len(args) or None in named:
                used = overridden = True
            else:
                used = True
        if not (used and overridden):
            out.append(label)
    return out


def test_default_checker_resolves_positions_keywords_and_stars():
    src = ("def f(a, b=1, *, c=2): pass\n"
           "class C:\n"
           "    def m(self, x=0): pass\n"
           "    @staticmethod\n"
           "    def s(x=0): pass\n"
           "    def __init__(self, y=0): pass\n"
           "def g(p=0):\n"
           "    def inner(q=0): pass\n"
           "def h(r=0): pass\n"
           "def listed(t=0): pass\n")
    calls = _call_table(["f(1)\nf(1, 2, c=3)\n", "obj.m()\nC.s(5)\n",
                         "g(*args)\n", "partial(h, 1)\n"])
    assert _single_valued_defaults(src, calls, ("listed",)) == \
        ["C.m.x", "C.s.x", "inner.q", "h.r"]
    calls = _call_table(["f(1)\nf(1, 2, c=3)\n", "obj.m()\nobj.m(1)\n",
                         "C.s(**kw)\n", "inner()\ninner(q=1)\n",
                         "g(*args)\n", "partial(h, 1)\nh()\n"])
    assert _single_valued_defaults(src, calls, ("listed",)) == []


def test_every_default_has_two_values_in_use():
    # callers include the benchmark, the tools and the tests, so that
    # the rule never forces a change to any of them
    root = SRC.parent.parent
    calls = _call_table(
        p.read_text(encoding="utf-8")
        for p in [*SRC.glob("*.py"), *(root / "perfbench").rglob("*.py"),
                  *(root / "tools").rglob("*.py"),
                  *(root / "tests").rglob("*.py")])
    api = _public_api(README.read_text(encoding="utf-8"))
    assert [f"{p.stem}.{label}" for p in sorted(SRC.glob("*.py"))
            for label in _single_valued_defaults(
                p.read_text(encoding="utf-8"), calls, api.get(p.stem, ()))
            ] == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so no verdict path may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Assert)] == []


# the position of each verdict constructor's samples count, whose
# keyword is ``samples``
_SAMPLES_ARG = {"proven": 1, "refuted": 1, "unfalsified": 0}


def _hand_counted_verdicts(name: str, source: str) -> list:
    """Line of every ``proven``, ``refuted`` or ``unfalsified`` call whose
    samples count (by position or as ``samples=``) is a local name that
    the calling function increments with ``+=``: a law loop counting its
    own cases.  ``outcome.py``, home of the one counting loop
    ``check_law``, is exempt."""
    if name == "outcome.py":
        return []
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        counters = {n.target.id for n in ast.walk(fn)
                    if isinstance(n, ast.AugAssign)
                    and isinstance(n.op, ast.Add)
                    and isinstance(n.target, ast.Name)}
        for call in ast.walk(fn):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            pos = _SAMPLES_ARG.get(f.attr if isinstance(f, ast.Attribute)
                                   else getattr(f, "id", None))
            if pos is None:
                continue
            args = [*call.args[pos:pos + 1],
                    *(k.value for k in call.keywords if k.arg == "samples")]
            if any(isinstance(a, ast.Name) and a.id in counters
                   for a in args):
                lines.add(call.lineno)
    return sorted(lines)


def test_hand_count_checker_sees_counted_loops():
    counted = ("def law(xs, seed):\n"
               "    tried = 0\n"
               "    for x in xs:\n"
               "        tried += 1\n"
               "        if x:\n"
               "            return refuted({}, tried, seed)\n"
               "    return oc.unfalsified(tried, seed)\n"
               "def other(n):\n"
               "    k = 0\n"
               "    k += n\n"
               "    return proven('p', samples=k)\n")
    assert _hand_counted_verdicts("topology.py", counted) == [6, 7, 11]
    assert _hand_counted_verdicts("outcome.py", counted) == []
    clean = ("def law(xs, seed):\n"
             "    total = 0\n"
             "    total += 1\n"
             "    return refuted({}, len(xs), seed, str(total))\n")
    assert _hand_counted_verdicts("topology.py", clean) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_hand_counted_law_loop(path):
    # every law's samples count comes from check_law or a fixed size, so
    # no loop builds its verdicts by hand
    assert _hand_counted_verdicts(
        path.name, path.read_text(encoding="utf-8")) == []


def _assertion_handlers(source: str) -> list:
    """Line of every ``except`` whose type is ``AssertionError`` or a
    tuple that names it."""
    def names(t):
        elts = t.elts if isinstance(t, ast.Tuple) else [t]
        return {getattr(e, "id", getattr(e, "attr", None)) for e in elts}
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ExceptHandler) and n.type is not None
            and "AssertionError" in names(n.type)]


def test_assertion_handler_checker_sees_handlers():
    src = ("try:\n    f()\nexcept AssertionError:\n    pass\n"
           "try:\n    f()\nexcept (ValueError, AssertionError) as e:\n"
           "    pass\n"
           "try:\n    f()\nexcept ValueError:\n    pass\n")
    assert _assertion_handlers(src) == [3, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_handler_catches_assertion_error(path):
    # a failed self-check raises AssertionError: a handler would turn a
    # kernel fault into a verdict
    assert _assertion_handlers(path.read_text(encoding="utf-8")) == []


_DECIDERS = ("balanced", "absorbing", "bounded")


def _sampling_deciders(source: str) -> list:
    """``Class.method`` for every ``balanced``, ``absorbing`` or
    ``bounded`` method that calls ``sample`` or ``sample_scalars``,
    directly or in a nested function or lambda."""
    out = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in _DECIDERS):
                continue
            calls = {n.func.attr if isinstance(n.func, ast.Attribute)
                     else getattr(n.func, "id", None)
                     for n in ast.walk(fn) if isinstance(n, ast.Call)}
            if calls & {"sample", "sample_scalars"}:
                out.append(f"{cls.name}.{fn.name}")
    return out


def test_sampling_checker_sees_samplers():
    src = ("class C:\n"
           "    def absorbing(self, E):\n"
           "        return (lambda s: E.sample(s, 4))(0)\n"
           "    def balanced(self):\n"
           "        return sample_scalars(1, 4, 0)\n"
           "    def bounded(self, seed): return seed\n"
           "    def member(self, E): return E.sample(0, 1)\n")
    assert _sampling_deciders(src) == ["C.absorbing", "C.balanced"]


def test_deciders_never_sample():
    # a Proven or Refuted from a decider rests on an exact argument
    assert _sampling_deciders((SRC / "sets.py").read_text(
        encoding="utf-8")) == []


def _raises_empty_set(node) -> bool:
    exc = node.exc if isinstance(node, ast.Raise) else None
    return (isinstance(exc, ast.Call)
            and getattr(exc.func, "id", None) == "ValueError"
            and [getattr(a, "value", None) for a in exc.args] == ["empty set"])


def _empty_set_raisers(source: str) -> list:
    """The dotted name of each function or method whose own body raises
    ``ValueError("empty set")``, ``<module>`` for a module-level raise."""
    out = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if name == "<module>"
                      else f"{name}.{child.name}")
                continue
            if _raises_empty_set(child) and name not in out:
                out.append(name)
            visit(child, name)

    visit(ast.parse(source), "<module>")
    return out


def test_empty_set_checker_sees_functions_and_methods():
    src = ("class C:\n"
           "    def balanced(self):\n"
           "        if not self.x:\n"
           "            raise ValueError('empty set')\n"
           "        raise ValueError('empty set')\n"
           "def f():\n"
           "    def g():\n"
           "        raise ValueError('empty set')\n"
           "    raise ValueError('empty interval')\n"
           "raise ValueError('empty set')\n")
    assert _empty_set_raisers(src) == ["C.balanced", "f.g", "<module>"]


def test_the_empty_set_rule_is_stated_once():
    # is_balanced and is_bounded_set reject an empty set in one place,
    # after the carrier lookup, not in each decider
    assert [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
            for name in _empty_set_raisers(p.read_text(encoding="utf-8"))
            ] == ["sets.require_nonempty"]


_SLOW_DRAWS = ("randint", "randrange", "choice")


def _slow_draws(source: str) -> list:
    """``(line, method)`` for every call of a method named ``randint``,
    ``randrange`` or ``choice``: seeded draws go through
    ``_backend.draw_int``, which gives the same value from the same
    stream without ``randrange``'s argument checks."""
    return sorted((n.lineno, n.func.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr in _SLOW_DRAWS)


def test_draw_checker_sees_method_calls():
    src = ("rng.randint(1, 6)\n"
           "x = random.Random(0).choice([1, 2])\n"
           "f(rng.randrange)\n"
           "draw_int(rng, 0, 3) + rng.random()\n"
           "self.rng.randrange(9)\n")
    assert _slow_draws(src) == [(1, "randint"), (2, "choice"),
                                (5, "randrange")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_seeded_draws_use_the_draw_helpers(path):
    assert _slow_draws(path.read_text(encoding="utf-8")) == []


def _outcome_calls(source: str, constructors: set) -> list:
    """Lines that call one of the ``outcome`` functions named in
    ``constructors``: by a name imported from ``outcome`` (aliases
    included) or as an attribute of the module."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module and node.module.endswith("outcome") \
                        and alias.name in constructors:
                    names.add(alias.asname or alias.name)
                elif alias.name == "outcome":
                    modules.add(alias.asname or alias.name)
    return sorted(
        n.lineno for n in ast.walk(tree) if isinstance(n, ast.Call)
        and (isinstance(n.func, ast.Name) and n.func.id in names
             or isinstance(n.func, ast.Attribute)
             and n.func.attr in constructors
             and isinstance(n.func.value, ast.Name)
             and n.func.value.id in modules))


_VERDICTS = {"proven", "refuted", "unfalsified"}


def test_proven_call_checker_sees_names_aliases_and_attributes():
    src = ("from .outcome import proven, refuted\n"
           "from . import outcome as oc\n"
           "from .outcome import proven as ok\n"
           "proven('a')\n"
           "x = st.is_absorbing(A).proven\n"
           "oc.proven('b')\n"
           "ok('c')\n"
           "refuted({}, detail='d')\n"
           "check_law(cases, holds, w, 'e', 0, proven_detail='f')\n"
           "from .outcome import unfalsified as nothing\n"
           "oc.unfalsified(3, 0)\n"
           "nothing(1, 0)\n"
           "oc.refuted({})\n"
           "y = out.refuted\n")
    assert _outcome_calls(src, {"proven"}) == [4, 6, 7]
    assert _outcome_calls(src, {"refuted"}) == [8, 13]
    assert _outcome_calls(src, {"unfalsified"}) == [11, 12]
    assert _outcome_calls(src, _VERDICTS) == [4, 6, 7, 8, 11, 12, 13]
    assert _outcome_calls("def proven(): pass\nproven()\n", _VERDICTS) == []


@pytest.mark.parametrize("name", ["core.py", "setlaws.py"])
def test_law_drivers_prove_only_through_check_law(name):
    # every Proven of the axiom, law, radial and transport checkers is
    # check_law's proven_detail, the one place a Proven is built for them
    assert _outcome_calls((SRC / name).read_text(encoding="utf-8"),
                          {"proven"}) == []


def test_core_builds_every_outcome_through_check_law():
    # the axioms, primitive scaling and the order-morphism laws are all
    # check_law runs, so core.py builds no verdict of its own
    assert _outcome_calls((SRC / "core.py").read_text(encoding="utf-8"),
                          _VERDICTS) == []


# ------------------------------------------------------ the check registry

def _claims(row) -> str:
    """A regex for the check ids the ``cli.CHECKS`` row ``row`` emits:
    ``{i}`` stands for any index, and a driver's ids are read from one
    small run on the half line, where every row applies."""
    if "{i}" in row.check_id:
        return r"\d+".join(map(re.escape, row.check_id.split("{i}")))
    out = row.driver(half_line(), 8, 0, None)
    keys = out if isinstance(out, dict) else [""]
    return "|".join(re.escape(row.check_id + key) for key in keys)


@pytest.fixture(scope="module")
def claims():
    return [(row, _claims(row)) for row in cli.CHECKS]


def _records(*args) -> list:
    res = CliRunner().invoke(cli.main, [*args, "--budget", "20", "--seed",
                                        "7", "--format", "jsonlines",
                                        "--findings-ok"])
    assert res.exit_code in (0, 1), res.output
    return [json.loads(ln) for ln in res.output.splitlines()]


def _rows_of(check_id, claims) -> list:
    return [row for row, regex in claims if re.fullmatch(regex, check_id)]


def test_every_instance_check_id_has_exactly_one_row(tmp_path, claims):
    sets_file = tmp_path / "sets.txt"
    sets_file.write_text("[0,1)\n[1,2)\n")
    family = tmp_path / "family.txt"
    family.write_text("[0,1)\n[0,1/2)\n")
    specs = ("halfline", "cone:2", "twisted:2", "dict2", "lattice2",
             "product:(halfline,dict2)", *PLANTED_FAULTS)
    records = [r for spec in specs for r in _records("all", spec)]
    records += _records("sets", "halfline", "--input", str(sets_file))
    records += _records("bounded", "halfline", "--input", str(sets_file))
    records += _records("localbase", "halfline", "--input", str(family))
    ids = {r["checkId"] for r in records}
    assert {c: len(_rows_of(c, claims)) for c in ids} == dict.fromkeys(
        ids, 1)
    # and no row is dead
    assert [row for row, regex in claims
            if not any(re.fullmatch(regex, c) for c in ids)] == []


_ROMAN = ("i", "ii", "iii", "iv", "v")


def _paper_ids(readme: str) -> set:
    """The check ids of the README's "Paper results" table: its check-id
    column, with ``<name>`` read as each shipped morphism its row names,
    and each ``a.ii``–``a.v`` range of local-base conditions."""
    section = readme.partition("\n## Paper results\n")[2].partition(
        "\n## ")[0]
    ids = set()
    for row in section.splitlines():
        if not row.startswith("| ("):
            continue
        _, check, decides = (c.strip() for c in row.strip("|").split("|"))
        names = [n for n in re.findall(r"`([\w.<>-]+)`", decides)
                 if n in MORPHISMS]
        for c in re.findall(r"`([\w.<>-]+)`", check):
            ids |= {c.replace("<name>", n) for n in names} if "<name>" in c \
                else {c}
        for prefix, lo, hi in re.findall(
                r"`([\w.]+)\.(\w+)`–`\1\.(\w+)`", decides):
            ids |= {f"{prefix}.{n}" for n in
                    _ROMAN[_ROMAN.index(lo):_ROMAN.index(hi) + 1]}
    return ids


def test_paper_result_ids_are_emitted_and_registered(tmp_path, claims):
    ids = _paper_ids(README.read_text(encoding="utf-8"))
    assert {"localbase.i", "localbase.v", "radial", "audit.family",
            "morphism.doubling.transport.radial"} <= ids
    gens = tmp_path / "gens.txt"
    gens.write_text("[0,1)\n")
    records = _records("all", "halfline") + _records("audit", "--input",
                                                     str(gens))
    records += [r for name in MORPHISMS for r in _records("morphism", name)]
    suites = {r["checkId"]: r["suite"] for r in records}
    assert sorted(ids - suites.keys()) == []
    assert [c for c in ids if suites[c] not in ("morphism", "audit")
            and len(_rows_of(c, claims)) != 1] == []


def _spec_kinds(readme: str) -> set:
    """The kind of each row of the README's "Instances" table: its spec
    column up to the first ``:``."""
    section = readme.partition("\n## Instances\n")[2].partition("\n## ")[0]
    return {m[1] for m in re.finditer(r"^\| `(\w+)", section, re.M)}


def test_the_readme_lists_every_spec_kind():
    assert _spec_kinds(README.read_text(encoding="utf-8")) == {
        *_NAMED, *_SIZED, "product"}
