"""Every public name in frozencol has a consumer outside the tests.

A public module-level function or class, or a public method, must be used in
its own module beyond its definition, in another frozencol module, in the
benchmark's perfbench/*.py, or in README.md. A name only the tests reach is
library code without a program consumer, and goes. In the package, a use is a
name or an import in the code; an attribute read counts for a method, and for
a module-level name only when it is read off a frozencol module (`str.join`
does not use `graph.join`). In the benchmark, a use is an import from
frozencol, an attribute of a frozencol module, or an entry of the tracer's
TARGETS; its own helpers of the same name do not count. The README names
things in prose, so it is searched as text.
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
    "join": "constructors the tests build graphs with",
    "relabel": "constructors the tests build graphs with",
}
MODULES = {path.stem for path in SRC.glob("*.py")}


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


def _dotted(node: ast.AST) -> str | None:
    """'a.b.c' for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _code_uses(tree: ast.Module) -> tuple[set[str], set[str], set[str], set[str]]:
    """(names imported from frozencol, names read, attribute names read, and
    attribute names read off a frozencol module) in a module's code."""
    imported, names, modules = set(), set(), {"frozencol"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name.split(".")[0] == "frozencol"}
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "frozencol":
                imported |= {a.name for a in node.names}
                modules |= {a.asname or a.name for a in node.names if a.name in MODULES}
        elif isinstance(node, ast.Name):
            names.add(node.id)
    attrs, module_attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if _dotted(node.value) in modules:
                module_attrs.add(node.attr)
    return imported, names, attrs, module_attrs


def _bench_uses() -> set[str]:
    """Names the benchmark imports from frozencol, reads off a frozencol
    module, or traces: each part of a TARGETS attribute such as
    "BlockPartition.from_colours"."""
    used = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, _, _, module_attrs = _code_uses(tree)
        used |= imported | module_attrs
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
                for _, attr, _ in ast.literal_eval(node.value):
                    used |= set(attr.split("."))
    return used


def _unused() -> list[str]:
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = {name: _code_uses(tree) for name, tree in trees.items()}
    bench = _bench_uses()
    readme = (ROOT / "README.md").read_text()
    unused = []
    for module, tree in trees.items():
        for name, method in _public_defs(tree):
            if name in ALLOWED or name in bench or re.search(rf"\b{name}\b", readme):
                continue
            # a method is reached through any attribute; a function or class by
            # its name, an import, or an attribute of a frozencol module
            if not any(name in (attrs if method else imported | names | module_attrs)
                       for imported, names, attrs, module_attrs in uses.values()):
                unused.append(f"{module}: {name}")
    return unused


def test_public_names_have_a_program_consumer():
    assert _unused() == []
