"""The benchmark's tracer still finds what it wraps.

bench/tracer.py wraps the functions in its TARGETS table by looking each
one up in the `voaf` module it names; a target that no longer resolves
breaks every traced benchmark run.  It also classifies each Scalar it sees
by field from the `num`, `den` and `mod` attributes.
"""

import importlib
import importlib.util
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
        (Scalar.of(5, Fraction(2)), "FIELD_QSQRT"),
    ],
    ids=str,
)
def test_scalar_field(scalar, field):
    assert TRACER._scalar_field(None, (scalar,)) == getattr(TRACER, field)
