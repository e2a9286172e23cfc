"""Every wordctc name the benchmark harness reads resolves.

perfbench/run.py imports from wordctc inside the functions it runs, so a
rename in src/ would pass every other test here and fail only when the
benchmark runs.  This reads perfbench/*.py with `ast` and resolves each
`from wordctc... import name`, and each attribute read off a name bound to
a wordctc module (`network.Network`, `w.train`, `wordctc.network.X`).
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


def _lookup(module, name):
    """`module.name`, importing it if it is a submodule not yet loaded."""
    if not hasattr(module, name) and hasattr(module, "__path__"):
        importlib.import_module("%s.%s" % (module.__name__, name))
    return getattr(module, name)


def _chain(node):
    """['w', 'network', 'Network'] for `w.network.Network`, or None when
    the chain does not start at a bare name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return [node.id, *reversed(attrs)] if isinstance(node, ast.Name) else None


def _unresolved(path):
    tree = ast.parse(path.read_text(), str(path))
    bound = {}  # local name -> the wordctc module it is bound to
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wordctc":
                    if alias.asname:
                        bound[alias.asname] = importlib.import_module(alias.name)
                    else:
                        bound["wordctc"] = importlib.import_module("wordctc")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wordctc":
            module = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    value = _lookup(module, alias.name)
                except (AttributeError, ImportError):
                    missing.append("line %d: %s.%s" % (node.lineno, node.module, alias.name))
                    continue
                if isinstance(value, types.ModuleType):
                    bound[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if not chain or chain[0] not in bound:
            continue
        value = bound[chain[0]]
        for i, attr in enumerate(chain[1:], 1):
            if not isinstance(value, types.ModuleType):
                break
            try:
                value = _lookup(value, attr)
            except (AttributeError, ImportError):
                missing.append("line %d: %s" % (node.lineno, ".".join(chain[: i + 1])))
                break
    return missing


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_wordctc_names_resolve(path):
    assert not _unresolved(path)


def test_the_sources_import_wordctc():
    # a guard that reads no file, or no import, would pass vacuously
    imports = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("wordctc")]
    assert any(node.module == "wordctc.cli" for node in imports)
