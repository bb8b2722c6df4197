"""Guard: no module under src/voaf imports sympy.

Walks the syntax tree of every module under src/voaf and lists each import of
sympy with the function that holds it.  Every exact check runs on the
engine's own arithmetic; the step-3 closures are stored ideal-membership
certificates checked by `MultiPoly` products.  sympy is a test dependency
only, as a reference for the engine.
"""

import ast
from pathlib import Path

import voaf

SRC = Path(voaf.__file__).parent
ALLOWED: set = set()


def _is_sympy(name: str) -> bool:
    return name == "sympy" or name.startswith("sympy.")


def _sympy_imports(tree: ast.AST, module: str):
    """Yield (node, qualified name of the enclosing scope) per sympy import."""

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module or ""]
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, (ast.Name, ast.Attribute))
                and getattr(child.func, "id", getattr(child.func, "attr", None))
                in ("__import__", "import_module")
                and child.args
                and isinstance(child.args[0], ast.Constant)
                and isinstance(child.args[0].value, str)
            ):
                names = [child.args[0].value]
            if any(_is_sympy(n) for n in names):
                yield child, ".".join((module,) + scope)
            yield from walk(child, scope)

    return walk(tree, ())


def test_guard_finds_sympy_imports():
    src = (
        "import sympy\n"
        "def _to_sympy():\n    import sympy\n"
        "def helper():\n    from sympy import Rational\n"
        "class K:\n    def m(self):\n        return __import__('sympy.abc')\n"
    )
    scopes = [scope for _, scope in _sympy_imports(ast.parse(src), "fusion")]
    assert scopes == ["fusion", "fusion._to_sympy", "fusion.helper", "fusion.K.m"]


def test_no_sympy_in_engine():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, scope in _sympy_imports(tree, path.stem):
            if scope not in ALLOWED:
                found.append("%s:%d: sympy imported in %s" % (path.name, node.lineno, scope))
    assert not found, "\n".join(found)
