"""The generated data files and the tools that write them.

tools/relation_polys.py derives the star, circle and second circle
relations of a charged module by sampling concrete contractions in
Q(sqrt(s)) and interpolating in s, and the constraint systems of the
modules those relations do not cover on Fock vectors; src/voaf/
relation_polys.json and src/voaf/systems.json are its output.
tools/step3_cofactors.py writes src/voaf/step3_cofactors.json.
"""

import ast
import importlib.util
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "relation_polys.py"

# each generated data file, the tool that writes it and the tool's function
# that renders its text
DATA_FILES = [
    ("relation_polys.json", TOOL, "render_relations"),
    ("systems.json", TOOL, "render_systems"),
    ("step3_cofactors.json", ROOT / "tools" / "step3_cofactors.py", "render"),
]


def _load_tool(path=TOOL):
    spec = importlib.util.spec_from_file_location(path.stem + "_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("name, tool, render", DATA_FILES, ids=[d[0] for d in DATA_FILES])
def test_data_file_regenerates_byte_for_byte_in_under_two_seconds(name, tool, render):
    start = time.perf_counter()
    text = getattr(_load_tool(tool), render)()
    elapsed = time.perf_counter() - start
    committed = (ROOT / "src" / "voaf" / name).read_bytes()
    assert text.encode("utf-8") == committed
    assert len(committed) < 10_000
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
        "from voaf import cli, fusion\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['--help'])\n"
        "print(fusion._read_json.cache_info().currsize > 0)\n"
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
