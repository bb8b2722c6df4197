"""Every function and method of the package has a use outside the tests,
and every parameter with a default is set by some caller outside them.

A function or method that only tests (or nothing) call is a dead helper: it
either belongs on a code path of the engine or should be deleted.  A
default that no caller overrides is a constant, and any other value of it
is a path nothing runs.  The package, the benchmark under bench/ and the
generators under tools/ count as uses.  Dunder methods are called by the
language and are not checked.
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


def _defaults(fn: ast.FunctionDef, is_method: bool):
    """(name, position) of each parameter of fn that has a default; position
    counts the arguments a call writes before it (self and cls excluded),
    and is None for a keyword-only parameter."""
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    skip = 1 if is_method and not static else 0
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _unset(src=SRC, users=USERS):
    """The parameters with defaults of the functions and methods under `src`
    that no call in `src` or in the `users` directories passes, by position
    or by keyword.  Calls match by name; a call with *args or **kwargs
    counts as passing every parameter it could reach."""
    paths = sorted(src.glob("*.py"))
    others = sorted(p for d in users for p in d.glob("*.py"))
    trees = {p: ast.parse(p.read_text()) for p in paths + others}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func), []).append(node)

    def passes(call: ast.Call, name: str, pos) -> bool:
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        if pos is not None and (starred or pos < len(call.args)):
            return True
        return any(k.arg in (name, None) for k in call.keywords)

    unset = []
    for path in paths:
        for qual, fn in _definitions(trees[path]):
            for name, pos in _defaults(fn, "." in qual):
                if not any(passes(c, name, pos) for c in calls.get(fn.name, [])):
                    unset.append("%s.%s.%s" % (path.stem, qual, name))
    return unset


def test_every_parameter_with_a_default_is_set_by_some_caller():
    """A default that no caller outside the tests overrides is a constant
    dressed as an option."""
    assert _unset() == []


def test_the_parameter_scan_reads_positions_and_keywords(tmp_path):
    """Self and cls take no call position, keyword-only parameters are set
    only by keyword, and *args or **kwargs set what they can reach."""
    (tmp_path / "m.py").write_text(
        "def f(a, b=1, *, c=2):\n    return a\n\n"
        "def g(a=0, b=0):\n    return a\n\n"
        "def h(a, *, c=0):\n    return a\n\n"
        "class K:\n"
        "    def m(self, x=0, y=0):\n        return x\n\n"
        "    @staticmethod\n"
        "    def s(p=0, q=0):\n        return p\n\n"
        "f(1, 2)\n"
        "g(*[1])\n"
        "h(*[1], c=3)\n"
        "K().m(y=1)\n"
        "K.s(3, **{})\n"
    )
    assert _unset(tmp_path, []) == ["m.f.c", "m.K.m.x"]
