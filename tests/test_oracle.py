"""Every verdict and character against the engine-free oracle, on random
draws.

bench/oracle.py derives the fusion rules of the orbifold modules and their
graded dimensions from closed forms and imports nothing from `voaf`.  It is
loaded here by path, as tests/test_tracer_targets.py loads the tracer.
Triples are drawn from M+, M-, Mtheta+, Mtheta- and M(s), with s among
generic rationals, the ladder charges n^2/2, the special charges 1/2, 2,
9/2 and 8, and the t_n partners of the ladder; triples of matched charges
(sqrt(s) +- sqrt(t))^2, equal pairs and the ladder triples
(M(n^2/2), M(t_n), M(t_n)) are drawn on purpose.  Each triple is decided
in all six orderings.  All these modules are self-dual, so the verdict is
the same for every ordering, and the orderings are decided by different
arrangements.

The same draws check that each verdict agrees with the constraint rows it
rests on, re-evaluated here from `constraint_system` at the labels' top
weights: a verdict-0 certificate quotes what the rows really give, and a
verdict-1 triple leaves every arrangement's rows short of a zero proof.
"""

import importlib.util
import itertools
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from voaf import characters, fusion
from voaf.labels import ModuleLabel

ROOT = Path(__file__).resolve().parents[1]


def _oracle():
    spec = importlib.util.spec_from_file_location("bench_oracle", ROOT / "bench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


ORACLE = _oracle()

UNCHARGED = ["M+", "M-", "Mtheta+", "Mtheta-"]
# t_n with n^2/2: both star rows of M(n^2/2) vanish at N = L = M(t_n)
T_N = {4: Fraction(9, 58), 12: Fraction(7, 38)}

_GENERIC = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)
# ladder charges n^2/2 are drawn for n <= LADDER_N
LADDER_N = 12
_LADDER = st.integers(1, LADDER_N).map(lambda n: Fraction(n * n, 2))
_CHARGE = st.one_of(
    _GENERIC.filter(lambda s: s > 0),
    _LADDER,
    st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(9, 2), Fraction(8)]),
    st.sampled_from(sorted(T_N.values())),
)
_LABEL = st.one_of(st.sampled_from(UNCHARGED), _CHARGE.map(ORACLE.label))


@st.composite
def _triple(draw):
    shape = draw(st.sampled_from(["any", "equal pair", "matched", "ladder"]))
    if shape == "any":
        return tuple(draw(_LABEL) for _ in range(3))
    if shape == "equal pair":
        x = draw(_LABEL)
        return x, x, draw(_LABEL)
    if shape == "matched":
        # t = s*k^2 makes sqrt(st) = s*k rational; u = (sqrt(s) +- sqrt(t))^2
        s = draw(_CHARGE)
        k = draw(st.fractions(min_value=Fraction(1, 6), max_value=6, max_denominator=6))
        u = s * (1 + k) ** 2 if draw(st.booleans()) or k == 1 else s * (1 - k) ** 2
        return ORACLE.label(s), ORACLE.label(s * k * k), ORACLE.label(u)
    n = draw(st.sampled_from(sorted(T_N)))
    t = ORACLE.label(T_N[n])
    return ORACLE.label(Fraction(n * n, 2)), t, t


@given(_triple())
@settings(max_examples=300, deadline=None)
def test_decide_agrees_with_the_oracle_in_every_ordering(texts):
    labels = [ModuleLabel.parse(x) for x in texts]
    want = ORACLE.fusion_verdict(*texts)
    for perm in itertools.permutations(range(3)):
        got = fusion.decide(*(labels[i] for i in perm)).verdict
        assert got == want == ORACLE.fusion_verdict(*(texts[i] for i in perm)), perm


def _row_at(row, signs, N, L):
    """The row's values at the triple's top weights: an ordinary row at
    (x, y, z) = (a_L, a_N, b_L), a mirror row at (a_N, a_L, b_N) with the
    system's per-column signs."""
    if row.mirror:
        point = {"x": N.a_M(), "y": L.a_M(), "z": N.b_M()}
    else:
        point, signs = {"x": L.a_M(), "y": N.a_M(), "z": L.b_M()}, (1,) * len(row.polys)
    return [p.evaluate(point) * sign for p, sign in zip(row.polys, signs)]


def _rank(matrix):
    """Rank over Q by Gauss-Jordan elimination on Fractions."""
    rows = [list(r) for r in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, r in enumerate(rows):
            if i != rank and r[c]:
                f = r[c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(r, rows[rank])]
        rank += 1
    return rank


def _check_zero_proof(cert):
    """Re-derive what a verdict-0 certificate quotes."""
    M, N, L = (getattr(cert, slot) for slot in cert.permutation)
    reason = cert.reason
    if reason["type"] == "invariant-separation":
        want = {"a_N": N.a_M(), "b_N": N.b_M(), "a_L": L.a_M(), "b_L": L.b_M()}
        assert M.kind == "M+" and reason["point"] == {k: str(v) for k, v in want.items()}
        assert (want["a_N"], want["b_N"]) != (want["a_L"], want["b_L"])
        return
    system = fusion.constraint_system(M)
    if reason["type"] == "nonzero-constraint":
        assert system.ngens == system.ncols == 1
        (value,) = _row_at(next(r for r in system.walk() if r.name == reason["row"]), system.signs, N, L)
        assert value != 0 and str(value) == reason["value"]
        return
    rows = system.rows
    matrix = [_row_at(r, system.signs, N, L) for r in rows]
    assert reason["matrix"] == [[str(v) for v in row] for row in matrix]
    if reason["type"] == "generator-column-forced":
        assert system.ngens == 1 and reason["rows"] == [r.name for r in rows]
        assert _rank(matrix) == _rank([row[1:] for row in matrix]) + 1
        return
    assert reason["type"] == "full-rank" and _rank(matrix) == system.ncols
    named = {r.name: v for r, v in zip(rows, matrix)}
    ri, rj = (named[name] for name in reason["determinant"]["rows"])
    det = ri[0] * rj[1] - ri[1] * rj[0]
    assert det != 0 and str(det) == reason["determinant"]["value"]


def _check_no_zero_proof(labels):
    """No arrangement of a verdict-1 triple proves the rule zero: the vacuum
    slot sees equal invariants, every row of a one-column system vanishes,
    and no system forces every generator coordinate to zero."""
    for M, N, L in itertools.permutations(labels):
        if M.kind == "M+":
            assert (N.a_M(), N.b_M()) == (L.a_M(), L.b_M())
        system = fusion.constraint_system(M)
        matrix = [_row_at(r, system.signs, N, L) for r in system.rows]
        rank = _rank(matrix)
        # rank 0 on one column: every row vanishes.  On more columns decide
        # accepts rank >= 1, so some rows may not vanish
        assert rank < system.ncols, (M, N, L)
        if system.ngens == 1:
            assert rank != _rank([row[1:] for row in matrix]) + 1, (M, N, L)


@given(_triple())
@settings(max_examples=300, deadline=None)
def test_each_verdict_agrees_with_its_constraint_rows(texts):
    labels = [ModuleLabel.parse(x) for x in texts]
    certs = [fusion.decide(*(labels[i] for i in perm)) for perm in itertools.permutations(range(3))]
    if certs[0].verdict == 1:
        _check_no_zero_proof(labels)
    for cert in certs:
        if cert.verdict == 0:
            _check_zero_proof(cert)


@given(st.one_of(st.sampled_from(UNCHARGED + ["Mtheta"]), _CHARGE.map(ORACLE.label)),
       st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_char_agrees_with_the_oracle(module, cutoff):
    label = module if module == "Mtheta" else ModuleLabel.parse(module)
    series = characters.graded_dimension(label, Fraction(cutoff))
    assert series.to_json() == ORACLE.char_terms(module, cutoff)
