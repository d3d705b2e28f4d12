"""Every public name in frozencol has a consumer outside the tests.

A public module-level function or class, or a public method, must be used in
its own module beyond its definition, in another frozencol module, in the
benchmark's perfbench/*.py, or in README.md. A name only the tests reach is
library code without a program consumer, and goes. In the package, a use is a
name, an attribute or an import in the code; the benchmark names its tracer
targets in strings and the README in prose, so those are searched as text.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frozencol"

# name -> why it stays without a program consumer
ALLOWED = {
    "empty_graph": "constructors the tests build graphs with",
    "complete_graph": "constructors the tests build graphs with",
    "path_graph": "constructors the tests build graphs with",
}


def _is_command(node: ast.AST) -> bool:
    """True for a function registered as a CLI subcommand by @main.command."""
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if (isinstance(target, ast.Attribute) and target.attr == "command"
                and isinstance(target.value, ast.Name) and target.value.id == "main"):
            return True
    return False


def _public_defs(tree: ast.Module):
    """(name, is a method) for each public def and class, and public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and not _is_command(node):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, True


def _code_uses(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names and imported names, attribute names) read in a module's code."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def _unused() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = {name: _code_uses(tree) for name, tree in trees.items()}
    text = "\n".join(path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py")))
    text += (ROOT / "README.md").read_text()
    unused = []
    for module, tree in trees.items():
        for name, method in _public_defs(tree):
            if name in ALLOWED or re.search(rf"\b{name}\b", text):
                continue
            # a method is reached through an attribute; a function or class by
            # its name, an import, or an attribute of its module
            if not any(name in attrs or (not method and name in names)
                       for names, attrs in uses.values()):
                unused.append(f"{module}: {name}")
    return unused


def test_public_names_have_a_program_consumer():
    assert _unused() == []
