"""The benchmark's tracer still finds what it wraps.

bench/tracer.py wraps the functions in its TARGETS table by looking each
one up in the `voaf` module it names; a target that no longer resolves
breaks every traced benchmark run.  It also classifies each Scalar it sees
by field from the `num`, `den` and `mod` attributes, and it relies on
`import voaf.cli` loading every module it wraps.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from voaf.scalars import Scalar

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = _tracer()


@pytest.mark.parametrize(
    "modname,qual", [(t[0], t[1]) for t in TRACER.TARGETS], ids=lambda x: str(x)
)
def test_target_resolves(modname, qual):
    owner = importlib.import_module("voaf." + modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    assert callable(getattr(owner, parts[-1]))
    assert parts[-1] in vars(owner)


@pytest.mark.parametrize(
    "scalar,field",
    [
        (Scalar.of(Fraction(1, 3)), "FIELD_Q"),
        (Scalar.zero(), "FIELD_Q"),
        (Scalar.lam(Fraction(2)), "FIELD_QSQRT"),
        # a rational carries no modulus, so it counts as Q in every sector
        (Scalar(5, 0, 1, Fraction(2)), "FIELD_Q"),
        (Scalar(5, 1, 1, Fraction(2)), "FIELD_QSQRT"),
    ],
    ids=str,
)
def test_scalar_field(scalar, field):
    assert TRACER._scalar_field(None, (scalar,)) == getattr(TRACER, field)


# Run in a fresh interpreter: the modules this test process has already
# imported would hide a layer that `import voaf.cli` no longer loads.
_CONTRACT = textwrap.dedent(
    """
    import importlib.util, io, sys
    from contextlib import redirect_stdout
    spec = importlib.util.spec_from_file_location("bench_tracer", sys.argv[1])
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import voaf.cli
    missing = sorted({t[0] for t in tracer.TARGETS} - {n[5:] for n in sys.modules if n.startswith("voaf.")})
    assert not missing, missing
    rec = tracer.Recorder()
    tracer.install(rec)
    with redirect_stdout(io.StringIO()):
        assert voaf.cli.main(["char", "--module", "M+", "--cutoff", "4"]) == 0
    gd = rec.name_ids["characters.graded_dimension"]
    spans = [i for i, n in enumerate(rec.name) if n == gd]
    # the post hook counts the series terms
    assert len(spans) == 1 and rec.extra[spans[0]] == 4, list(rec.extra)
    print("ok")
    """
)


def test_cli_import_loads_every_target_and_install_succeeds():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("VOAF_CUTOFF", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT, str(ROOT / "bench" / "tracer.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr
