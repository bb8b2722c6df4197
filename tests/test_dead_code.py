"""Every module-level function of the package has a use inside it.

A function that only tests (or nothing) call is a dead helper: it either
belongs on a code path of the engine or should be deleted.
"""

import ast
from pathlib import Path

import voaf

SRC = Path(voaf.__file__).parent


def _name(node: ast.AST):
    """The name a node refers to, if it is a name, attribute or import."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_module_level_function_is_referenced():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    refs = [(id(node), _name(node)) for tree in trees for node in ast.walk(tree)]
    unused = []
    for path, tree in zip(sorted(SRC.glob("*.py")), trees):
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(name == fn.name and i not in own for i, name in refs):
                unused.append("%s.%s" % (path.stem, fn.name))
    assert unused == []
