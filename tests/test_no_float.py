"""Guard: the engine computes over exact rationals only.

Walks the syntax tree of every module under src/voaf and rejects float
literals and calls to float(), round() and math.sqrt.  Exact square roots go
through scalars.rational_sqrt.  Its dynamic companion hands a float to every
entry point that takes a number from outside the engine: each raises a
one-line TypeError (scalars.rational) instead of turning it into a binary
Fraction.
"""

import ast
from pathlib import Path

import pytest

import voaf
from voaf import characters, fusion, linalg, suites
from voaf.characters import QSeries
from voaf.fock import FockVector, Sector, double
from voaf.labels import mplus
from voaf.scalars import Scalar, interpolate, rational, rational_sqrt
from voaf.vertexops import gen_binom

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


FLOAT_ENTRY_POINTS = {
    "rational": lambda: rational(0.5),
    "double": lambda: double(0.5),
    "basis-depth": lambda: FockVector.basis(Sector.twisted_sector(), (0.5,)),
    "untwisted": lambda: Sector.untwisted(2.0),
    "scalar-modulus": lambda: Scalar(0, 1, 1, 2.0),
    "interpolate-x": lambda: interpolate([0.5], [1]),
    "interpolate-y": lambda: interpolate([1], [0.5]),
    "rational_sqrt": lambda: rational_sqrt(0.25),
    "gen_binom": lambda: gen_binom(0.1, 1),
    "qseries-coefficient": lambda: QSeries({0: 1.5}, 3),
    "qseries-exponent": lambda: QSeries({0.5: 1}, 3),
    "qseries-cutoff": lambda: QSeries({0: 1}, 3.0),
    "shift": lambda: QSeries.one(3).shift(0.5),
    "truncate": lambda: QSeries.one(3).truncate(2.5),
    "eta_inverse": lambda: characters.eta_inverse(3.0),
    "char_virasoro_c1": lambda: characters.char_virasoro_c1(0.25, 3),
    "graded_dimension": lambda: characters.graded_dimension(mplus(), 3.0),
    "decomposition_weights": lambda: characters.decomposition_weights(mplus(), 3.0),
    "basis_at": lambda: mplus().basis_at(2.0),
    "charge_closure": lambda: fusion.charge_closure([0.5]),
    "base_labels": lambda: fusion.base_labels([0.5]),
    "verify_decomposition": lambda: suites.verify_decomposition(mplus(), [(0, 1)], 3.0),
    "jacobi_triple_check": lambda: suites.jacobi_triple_check(3.0),
    "twisted_character_identity": lambda: suites.twisted_character_identity(3.0),
}


@pytest.mark.parametrize("name", sorted(FLOAT_ENTRY_POINTS))
def test_float_is_refused(name):
    with pytest.raises(TypeError) as info:
        FLOAT_ENTRY_POINTS[name]()
    assert "\n" not in str(info.value)
    assert str(info.value).startswith("expected an int or a Fraction, not ")


def test_rational_keeps_ints_and_fractions():
    from fractions import Fraction

    half = Fraction(1, 2)
    assert rational(half) is half
    assert rational(3) == Fraction(3) and type(rational(3)) is Fraction
    assert rational(True) == 1


# an int matrix eliminates in Fractions: the kernel inverts a pivot as
# Fraction(1) / pivot, never as 1 / pivot
INT_MATRIX_CALLS = {
    "solve": lambda: linalg.solve([[2, 1], [1, 3]], [1, 2]),
    "nullspace": lambda: linalg.nullspace([[2, 4]], 2),
    "rank": lambda: [linalg.rank([[2, 3]])],
    "row_reduction": lambda: linalg.row_reduction([[2]]),
}


def _leaves(x):
    if isinstance(x, (list, tuple)):
        for y in x:
            yield from _leaves(y)
    else:
        yield x


@pytest.mark.parametrize("name", sorted(INT_MATRIX_CALLS))
def test_int_matrix_gives_ints_and_fractions(name):
    from fractions import Fraction

    values = list(_leaves(INT_MATRIX_CALLS[name]()))
    assert values and all(type(v) in (int, Fraction) for v in values), values
