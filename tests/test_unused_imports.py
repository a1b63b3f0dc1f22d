"""No module of the package imports a name it never uses.

No linter ships with the project, so this is a small ``ast`` check: a name
bound by an import counts as used when it appears anywhere else in the
module as a name, an attribute's root, or inside an annotation, including
one written as a string. Every module reads its annotations lazily
(``from __future__ import annotations``), so a name may be imported for
annotations alone.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autolabel3d"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                        a.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never uses, in order of import."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                used |= {m.id for m in ast.walk(ast.parse(n.value, mode="eval"))
                         if isinstance(m, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_counts_annotations_and_flags_the_rest():
    source = '''from __future__ import annotations
import os.path
from typing import Optional
from dataclasses import dataclass, field
from .core import Box2D, Box3D as B3, Frame

def f(x: Optional[int], *rest: "Box2D") -> "list[Frame]":
    y: B3 = None
    return os.path.join("field")
'''
    assert unused_imports(source) == ["dataclass", "field"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
