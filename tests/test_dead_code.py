"""Every function and class of the engine is used somewhere.

A definition counts as used when its name is referred to in code other
than its own definition: a name, an attribute, an import or an
identifier string (as in `monkeypatch.setattr(module, "name", ...)`)
anywhere in src/ or tests/, or an entry of the benchmark tracer's
`TRACED` table.  Docstrings and comments do not count.  Dunder methods
are called by the language and are left out.
"""

import ast
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENGINE = sorted((ROOT / "src" / "operpop").glob("*.py"))

TRACING = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))


def _references(tree: ast.AST) -> set[str]:
    out = set()
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and not isinstance(parent, ast.Expr):
                # a bare string statement (a docstring) refers to nothing
                if node.value.isidentifier():
                    out.add(node.value)
    return out


def test_every_definition_is_referred_to():
    used = {part for names in TRACING["TRACED"].values() for name in names for part in name.split(".")}
    for path in [*ENGINE, *sorted((ROOT / "tests").glob("*.py"))]:
        used |= _references(ast.parse(path.read_text()))
    dead = []
    for path in ENGINE:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in used:
                    dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
