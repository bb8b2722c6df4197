"""What each command loads, and what the benchmark's tracer still sees.

The verify suites (`voaf.suites`) and the generic-charge identity suite
(`voaf.step3`) are imported inside the functions that first need them, so
a cold `voaf` process that does not verify never compiles them.  Each
command runs in a fresh interpreter as `__main__`, as `python -m voaf.cli`
runs it: the modules this test process has already imported would hide
what the command loads.
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
    import io, json, runpy, sys
    from contextlib import redirect_stdout
    sys.argv = ["voaf"] + sys.argv[1:]
    with redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("voaf.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    print(json.dumps({"code": code, "modules": sorted(n for n in sys.modules if n.startswith("voaf"))}))
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
