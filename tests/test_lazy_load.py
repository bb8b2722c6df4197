"""What each command loads, and what the benchmark's tracer still sees.

The verify suites (`voaf.suites`), the generic-charge identity suite
(`voaf.step3`) and the state grammar of `reduce` (`voaf.reduce`) are
imported inside the functions that first need them, and `json` only where
JSON is read or written, so a cold `voaf` process compiles and imports
only what its command runs.  Each command runs in a fresh interpreter as
`__main__`, as `python -m voaf.cli` runs it: the modules this test process
has already imported would hide what the command loads.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_RUN = textwrap.dedent(
    """
    import io, runpy, sys
    from contextlib import redirect_stdout
    sys.argv = ["voaf"] + sys.argv[1:]
    with redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("voaf.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    # listed before this script imports json itself
    modules = sorted(n for n in sys.modules if n.startswith("voaf") or n == "json")
    import json
    print(json.dumps({"code": code, "modules": modules}))
    """
)


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("VOAF_CUTOFF", None)
    return env


def _loaded(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _RUN] + argv,
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["code"] == 0, proc.stderr
    return set(out["modules"])


_NO_SUITES = {
    "help": ["--help"],
    "fusion": ["fusion", "--m", "M(s=2)", "--n", "M(s=1/2)", "--l", "M(s=9/2)"],
    "fusion-table": ["fusion-table", "--lambda-squares", "1/3,1/2,2,9/2,8,5"],
    "char": ["char", "--module", "M+", "--cutoff", "12"],
    "reduce": ["reduce", "--module", "M-", "--expr", "h(-3)|0>"],
}


@pytest.mark.parametrize("argv", _NO_SUITES.values(), ids=_NO_SUITES.keys())
def test_commands_that_do_not_verify_load_no_suite(argv):
    loaded = _loaded(argv)
    assert "voaf.fusion" in loaded
    assert not loaded & {"voaf.suites", "voaf.step3"}
    assert "voaf.cli" not in loaded


@pytest.mark.parametrize(
    "argv, wanted, unwanted",
    [
        (["table41"], {"voaf.suites"}, {"voaf.step3"}),
        (["verify", "--suite", "zhu"], {"voaf.suites"}, {"voaf.step3"}),
        (["verify", "--suite", "step3"], {"voaf.suites", "voaf.step3"}, set()),
    ],
    ids=["table41", "verify-zhu", "verify-step3"],
)
def test_suites_load_on_first_use(argv, wanted, unwanted):
    loaded = _loaded(argv)
    assert wanted <= loaded
    assert not loaded & unwanted
    # a module that imported voaf.cli would compile and run it a second
    # time beside __main__
    assert "voaf.cli" not in loaded


# every command loads the engine: `import voaf.cli` must load each module
# that bench/tracer.py wraps (tests/test_tracer_targets.py)
_ENGINE = {
    "voaf", "voaf.characters", "voaf.fock", "voaf.fusion", "voaf.labels", "voaf.linalg",
    "voaf.multipoly", "voaf.scalars", "voaf.vertexops", "voaf.virasoro", "voaf.zhu",
}

# each subcommand, and the modules it loads beyond the engine
_BEYOND_ENGINE = {
    "help": (["--help"], set()),
    "table41": (["table41", "--json"], {"voaf.suites"}),
    "char": (["char", "--module", "Mtheta+", "--cutoff", "12", "--json"], set()),
    "fusion": (
        ["fusion", "--m", "M(s=3)", "--n", "M(s=5/4)", "--l", "M(s=22/9)", "--certificate"],
        set(),
    ),
    "fusion-table": (["fusion-table", "--lambda-squares", "1/3,1/2,2", "--format", "json"], set()),
    "reduce": (["reduce", "--module", "M(s=2)", "--expr", "h(-2)e^lam"], {"voaf.reduce"}),
    "verify-zhu": (["verify", "--suite", "zhu"], {"voaf.suites"}),
    "verify-step3": (["verify", "--suite", "step3"], {"voaf.suites", "voaf.step3"}),
}


@pytest.mark.parametrize("argv, extra", _BEYOND_ENGINE.values(), ids=_BEYOND_ENGINE.keys())
def test_each_command_loads_exactly_its_modules(argv, extra):
    loaded = {n for n in _loaded(argv) if n.startswith("voaf")}
    assert loaded == _ENGINE | extra


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["verify", "--suite", "zhu"], ["char", "--module", "M+", "--cutoff", "12"]],
    ids=["help", "verify-zhu", "char"],
)
def test_commands_that_neither_read_nor_write_json_do_not_import_it(argv):
    assert "json" not in _loaded(argv)


def test_a_command_that_writes_json_imports_it():
    # the check above would pass vacuously if the runner never saw json
    assert "json" in _loaded(["char", "--module", "M+", "--cutoff", "12", "--json"])


# the value layers import only what they compute with: a label, a character
# or a fusion decision loads no Fock code, the package loads no submodule,
# and polynomial division needs no heapq
_CLOSURES = {
    "voaf": {"voaf"},
    "voaf.multipoly": {"voaf", "voaf.multipoly"},
    "voaf.labels": {"voaf", "voaf.labels", "voaf.scalars"},
    "voaf.characters": {"voaf", "voaf.characters", "voaf.scalars"},
    "voaf.fusion": {
        "voaf", "voaf.fusion", "voaf.labels", "voaf.linalg", "voaf.multipoly", "voaf.scalars",
    },
}

_IMPORT = textwrap.dedent(
    """
    import importlib, json, sys
    importlib.import_module(sys.argv[1])
    print(json.dumps(sorted(n for n in sys.modules if n.startswith("voaf") or n == "heapq")))
    """
)


def _import_closure(module):
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT, module],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize("module", _CLOSURES)
def test_each_value_layer_loads_exactly_its_imports(module):
    assert _import_closure(module) == _CLOSURES[module]


# bench/tracer.py wraps cli.suite_step3 and fusion.verify_step3_generic,
# which forward to the lazily loaded suites; both must still record a span
_TRACE = textwrap.dedent(
    """
    import importlib.util, io, sys
    from contextlib import redirect_stdout
    spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    rec = tracer.Recorder()
    tracer.install(rec)
    import voaf.cli
    with redirect_stdout(io.StringIO()):
        assert voaf.cli.main(["verify", "--suite", "step3"]) == 0

    def spans(name):
        nid = rec.name_ids.get(name)
        return [i for i, n in enumerate(rec.name) if n == nid]

    def inside(i, j):
        while i >= 0 and i != j:
            i = rec.parent[i]
        return i == j

    (suite,) = spans("cli.suite_step3")
    (generic,) = spans("fusion.verify_step3_generic")
    assert inside(generic, suite)
    # the identity suite still calls the traced fusion functions
    for name in ("fusion.generic_relation_polys", "fusion.constraint_system"):
        found = spans(name)
        assert found and all(inside(i, generic) for i in found), name
    print("ok")
    """
)


def test_tracer_still_records_the_forwarded_suites():
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, str(ROOT / "bench" / "tracer.py")],
        env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr


_CHARACTERS = textwrap.dedent(
    """
    import json, sys
    from voaf.characters import graded_dimension
    from voaf.labels import mlam, mplus, mtheta_minus
    from fractions import Fraction
    for label in (mplus(), mlam(Fraction(7, 3)), mtheta_minus()):
        graded_dimension(label, Fraction(12))
    print(json.dumps(sorted(n for n in sys.modules if n.startswith("voaf"))))
    """
)


def test_characters_of_labels_load_no_fock_code():
    """A label's character reads its twist and top weight off the label,
    not off a Fock sector."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHARACTERS], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == _CLOSURES["voaf.characters"] | {"voaf.labels"}
