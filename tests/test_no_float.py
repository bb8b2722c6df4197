"""Guard: the engine computes over exact rationals only.

Walks the syntax tree of every module under src/voaf and rejects float
literals and calls to float(), round() and math.sqrt.  Exact square roots go
through scalars.rational_sqrt.
"""

import ast
from pathlib import Path

import voaf

SRC = Path(voaf.__file__).parent
BANNED_CALLS = {"float", "round"}


def _float_nodes(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, "float literal %r" % node.value
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in BANNED_CALLS:
                yield node, "call to %s()" % fn.id
            elif (
                isinstance(fn, ast.Attribute)
                and fn.attr == "sqrt"
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "math"
            ):
                yield node, "call to math.sqrt()"


def test_guard_flags_float_usage():
    src = "import math\nr = int(round(n ** 0.5))\nx = float(n) + math.sqrt(n)\n"
    assert len(list(_float_nodes(ast.parse(src)))) == 4


def test_no_float_in_engine():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node, what in _float_nodes(tree):
            found.append("%s:%d: %s" % (path.name, node.lineno, what))
    assert not found, "\n".join(found)
