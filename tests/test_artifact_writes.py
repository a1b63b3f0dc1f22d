"""Every file the package writes goes through ``ArtifactStore.write``.

That method writes a temporary file and moves it onto the artifact's name,
so a failure part way leaves no truncated artifact. This ``ast`` check
keeps a later artifact from bypassing it: outside that method, no module
under ``src/autolabel3d`` may call ``write_text``, ``write_bytes``, or
``open`` (the builtin or a ``.open`` method) with a mode that writes. A mode
that is not a string literal counts as one that writes.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "autolabel3d"
ALLOWED = ("ArtifactStore", "write")  # (class, method)


def _mode(call: ast.Call):
    """The mode argument of an ``open`` call, or None when it has none."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    # builtin open(file, mode); a path's .open(mode)
    position = 1 if isinstance(call.func, ast.Name) else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def file_writes(source: str) -> list[str]:
    """``line: scope`` of each call that writes a file outside the allowed
    method, where the scope is the enclosing ``class.function`` names."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and _writes(child) \
                    and scope != ALLOWED:
                found.append(f"{child.lineno}: {'.'.join(scope) or '<module>'}")
            visit(child, inner)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_each_kind_of_write():
    source = '''from pathlib import Path

class ArtifactStore:
    def write(self, name, chunks):
        with open(name, "w") as fh:
            Path(name).write_text("allowed")

    def put(self, name):
        Path(name).write_bytes(b"")

def read(path, mode):
    open(path).read()
    open(path, "rb").read()
    Path(path).open().read()
    Path(path).read_text()

def append(path, mode):
    open(path, "a")
    open(path, mode=mode)
    Path(path).open("x")
    open(path, "r+")
'''
    assert file_writes(source) == ["9: ArtifactStore.put", "18: append",
                                   "19: append", "20: append", "21: append"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_files_are_written_only_by_the_artifact_store(module):
    assert file_writes((PACKAGE / module).read_text()) == []


def test_the_artifact_store_writes():
    # the allowed method exists, so the check above guards something
    source = (PACKAGE / "cli.py").read_text()
    tree = ast.parse(source)
    store = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                 and n.name == ALLOWED[0])
    method = next(n for n in store.body if isinstance(n, ast.FunctionDef)
                  and n.name == ALLOWED[1])
    assert any(isinstance(n, ast.Call) and _writes(n)
               for n in ast.walk(method))
