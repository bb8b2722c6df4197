"""The generated relation module and the tool that writes it.

tools/relation_polys.py derives the star, circle and second circle
relations of a charged module by sampling concrete contractions in
Q(sqrt(s)) and interpolating in s; src/voaf/relation_polys.py is its output.
"""

import ast
import importlib.util
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from voaf import relation_polys

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "relation_polys.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("relation_polys_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_module_regenerates_byte_for_byte_in_under_two_seconds():
    start = time.perf_counter()
    text = _load_tool().render()
    elapsed = time.perf_counter() - start
    assert text.encode("utf-8") == Path(relation_polys.__file__).read_bytes()
    assert elapsed < 2.0


def test_tool_imports_no_sympy():
    tree = ast.parse(TOOL.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    assert names and not any(n == "sympy" or n.startswith("sympy.") for n in names)


def test_kac_roots_at_levels_four_and_five():
    """K_4 = s^4 (s-1/2)^4 (s-2)^2 (s-9/2)^2 and K_5 = s^6 (s-1/2)^6 (s-2)^4
    (s-9/2)^2 (s-8)^2: degrees 12 and 20, the numbers of parts in all the
    partitions of 4 and of 5."""
    tool = _load_tool()
    F = Fraction
    assert tool.kac_roots(4) == {F(0): 4, F(1, 2): 4, F(2): 2, F(9, 2): 2}
    assert tool.kac_roots(5) == {F(0): 6, F(1, 2): 6, F(2): 4, F(9, 2): 2, F(8): 2}


def test_help_does_not_import_the_relations():
    code = (
        "import sys, contextlib, io\n"
        "from voaf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['--help'])\n"
        "print('voaf.relation_polys' in sys.modules)\n"
    )
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert out.stdout == "False\n"
