"""Every function and method of the package has a use outside the tests.

A function or method that only tests (or nothing) call is a dead helper: it
either belongs on a code path of the engine or should be deleted.  The
package, the benchmark under bench/ and the generators under tools/ count
as uses.  Dunder methods are called by the language and are not checked.
"""

import ast
from pathlib import Path

import voaf

SRC = Path(voaf.__file__).parent
ROOT = SRC.parents[1]
USERS = [ROOT / "bench", ROOT / "tools"]


def _name(node: ast.AST):
    """The name a node refers to, if it is a name, attribute or import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _definitions(tree: ast.Module):
    """(qualified name, node) of the module-level functions and of the
    methods of module-level classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, fn.name), fn


def _unused(src=SRC, users=USERS):
    """The functions and methods under `src` that nothing in `src` or in the
    `users` directories refers to, outside their own bodies."""
    paths = sorted(src.glob("*.py"))
    others = sorted(p for d in users for p in d.glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths + others}
    refs = [(id(node), _name(node)) for tree in trees.values() for node in ast.walk(tree)]
    unused = []
    for path in paths:
        for qual, fn in _definitions(trees[path]):
            own = {id(node) for node in ast.walk(fn)}
            if not any(name == fn.name and i not in own for i, name in refs):
                unused.append("%s.%s" % (path.stem, qual))
    return unused


def test_every_module_level_function_is_referenced():
    assert [name for name in _unused() if name.count(".") == 1] == []


def test_every_method_is_referenced():
    assert [name for name in _unused() if name.count(".") == 2] == []


def test_the_scan_sees_methods(tmp_path):
    """A method that nothing calls is reported; a call anywhere clears it."""
    (tmp_path / "m.py").write_text(
        "class K:\n    def used(self):\n        return self\n\n"
        "    def dead(self):\n        return 0\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "def f():\n    return K().used()\n\n"
        "f()\n"
    )
    assert _unused(tmp_path, []) == ["m.K.dead"]
