"""Source hygiene: every name a library module imports is used there.

``__init__.py`` is exempt because its imports are the package's public
re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "evslab"
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


def _unreferenced_functions(sets_source: str, other_sources) -> list:
    """Top-level functions of a library module that nothing reaches: not
    named in another module, nor anywhere in the module outside their
    own body.  A decorated function counts as reached, since its
    decorator registers it (click reaches the ``cli`` commands that way).
    The ``brute_*`` reference oracles and the ``random_*`` generators
    exist for tests and benchmarks, so they are exempt."""
    tree = ast.parse(sets_source)

    def names(node):
        return {n.id if isinstance(n, ast.Name) else
                n.attr if isinstance(n, ast.Attribute) else n.name
                for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    elsewhere = set().union(*(names(ast.parse(s)) for s in other_sources))
    top = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    out = []
    for fn in top:
        if fn.decorator_list or fn.name.startswith(("brute_", "random_")):
            continue
        inside = set().union(*(names(n) for n in tree.body if n is not fn))
        if fn.name not in inside and fn.name not in elsewhere:
            out.append(fn.name)
    return out


def test_reachability_checker_sees_callers():
    sets_src = ("def used(): pass\ndef lonely(): pass\n"
                "def caller(): used()\ndef brute_x(): pass\n")
    assert _unreferenced_functions(sets_src, ["from .sets import caller\n"]) \
        == ["lonely"]
    assert _unreferenced_functions(sets_src, ["st.lonely(st.caller)\n"]) \
        == []


def test_reachability_checker_counts_a_decorated_function_as_reached():
    cli_src = ("@main.command()\ndef bounded(): pass\n"
               "def helper(): pass\n")
    assert _unreferenced_functions(cli_src, []) == ["helper"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_sets_function_is_reached_from_the_library(path):
    others = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))
              if p != path]
    assert _unreferenced_functions(path.read_text(encoding="utf-8"),
                                   others) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so no verdict path may rest on one
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Assert)] == []
