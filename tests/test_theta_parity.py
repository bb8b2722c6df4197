"""The theta-parity basis of fock.parity_rows.

theta (h(n) -> -h(n), e^lam -> e^(-lam)) with lam -> -lam fixes every
L(n), so a theta-even vector of a charged sector has the coefficient
lam^(k mod 2) times a rational on each k-part monomial.  Every elimination
of Fock vectors builds its rows in the basis lam^(k mod 2) h(-parts)e^lam,
where those columns are rational; these tests check that the rescale
changes no coordinate and that no lam part reaches a coefficient column.
"""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf import linalg, virasoro, zhu
from voaf.fock import FockVector, Sector, parity_rows, partitions_of
from voaf.labels import mlam
from voaf.scalars import Scalar

F = Fraction
ROOT = Path(__file__).resolve().parents[1]


def _reference_express(v, generators):
    """virasoro.express_in_descendants on the plain monomial rows, whose
    entries keep lam parts in a charged sector: the reference that the
    theta-parity rows are compared with."""
    gen_degs = [g.max_degree() for g in generators]
    coords = {}
    for deg in v.degrees():
        comp = v.homogeneous_component(deg)
        words, images = [], []
        for gi, g in enumerate(generators):
            lvl = deg - gen_degs[gi]
            if lvl < 0 or lvl.denominator != 1:
                continue
            for w in virasoro.words_at_level(gi, int(lvl)):
                words.append(w)
                images.append(virasoro.L_word(w.ms, g))
        basis_parts = sorted({p for img in images for p in img.terms} | set(comp.terms))
        rows = [[img.terms.get(p, 0) for img in images] for p in basis_parts]
        rhs = [comp.terms.get(p, 0) for p in basis_parts]
        if not words:
            if comp.terms:
                raise virasoro.NotInSpan("degree %s component has no candidate words" % deg)
            continue
        try:
            sol = linalg.solve(rows, rhs)
        except linalg.InconsistentSystem:
            raise virasoro.NotInSpan("degree %s component not in descendant span" % deg)
        for w, c in zip(words, sol):
            if c:
                coords[w] = c
    return coords


def _outcome(express, v, gens):
    try:
        return express(v, gens)
    except virasoro.NotInSpan:
        return virasoro.NotInSpan


_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
# the ladder charges with extra generators, rational squares (Q(sqrt(s))
# has zero divisors there) and generic charges
_CHARGES = st.one_of(
    st.sampled_from([F(1, 2), F(2), F(9, 2)]),
    st.sampled_from([F(1), F(4), F(9, 4)]),
    st.fractions(min_value=F(1, 12), max_value=50, max_denominator=12).filter(lambda s: s > 0),
)


@st.composite
def _state_and_generators(draw):
    """A charge, a prefix of its module's expansion generators, and a
    theta-even, theta-odd or mixed state of degree at most 6."""
    label = mlam(draw(_CHARGES))
    sector = label.sector()
    lam = sector.lam_scalar()
    gens = zhu._generators(label)[0]
    gens = gens[: draw(st.integers(1, len(gens)))]
    keys = [p for d in range(7) for p in partitions_of(d, sector)]
    parts = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=4, unique=True))
    kind = draw(st.sampled_from(["even", "odd", "mixed"]))
    terms = {}
    for p in parts:
        c = Scalar.of(draw(_COEFFS))
        if kind == "mixed":
            c = c + lam * draw(_COEFFS)
        elif (len(p) + (kind == "odd")) % 2:
            c = c * lam
        terms[p] = c
    return FockVector(sector, terms), gens


class TestParityRows:
    def test_uncharged_rows_are_the_coefficients(self):
        sector = Sector.untwisted(None)
        v = FockVector(sector, {(F(1),): 3, (F(2), F(1)): F(1, 2)})
        keys = sorted(v.terms) + [(4,)]
        assert parity_rows([v], keys) == [[v.terms[k]] for k in sorted(v.terms)] + [[0]]

    def test_charged_odd_rows_are_divided_by_lam(self):
        sector = Sector.untwisted(F(3))
        lam = sector.lam_scalar()
        even = FockVector(sector, {(): 2, (F(1),): lam * F(1, 3), (F(1), F(1)): F(5)})
        odd = even.scale(lam)
        keys = sorted(even.terms)
        assert parity_rows([even, odd], keys) == [
            [Scalar.of(2), lam * 2],
            [Scalar.of(F(1, 3)), lam * F(1, 3)],
            [Scalar.of(5), lam * 5],
        ]

    @given(_state_and_generators())
    @settings(max_examples=60, deadline=None)
    def test_express_matches_the_plain_rows(self, case):
        v, gens = case
        assert _outcome(virasoro.express_in_descendants, v, gens) == _outcome(
            _reference_express, v, gens
        )

    def test_charged_membership_reads_its_right_hand_side_in_the_same_basis(self):
        """o_membership on a charged module: the circle product of omega with
        h(-1)e^lam is a member, and its combination sums back to it."""
        label = mlam(F(3))
        omega = FockVector.basis(Sector.untwisted(None), (1, 1), F(1, 2))
        v = zhu.circ(omega, FockVector.basis(label.sector(), (1,)))
        res = zhu.o_membership(v, label, cutoff=4)
        assert res.member
        total = FockVector.zero(label.sector())
        for a, u, c in res.combination:
            total = total + zhu.circ(a, u).scale(c)
        assert total == v


# linalg._rref wrapped in a fresh interpreter: the matrices it reduces, and
# those with a lam part in one of the first ncols (coefficient) columns
_GUARD = textwrap.dedent(
    """
    import io, json, sys
    from contextlib import redirect_stdout
    import voaf.cli
    from voaf import linalg

    real = linalg._rref
    seen = {"matrices": 0, "lam": 0}

    def wrapped(a, ncols):
        seen["matrices"] += 1
        if any(getattr(c, "a1", 0) for row in a for c in row[:ncols]):
            seen["lam"] += 1
        return real(a, ncols)

    linalg._rref = wrapped
    with redirect_stdout(io.StringIO()):
        assert voaf.cli.main(sys.argv[1:]) == 0
    print(json.dumps(seen))
    """
)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "all"],
        ["reduce", "--module", "M(s=3)", "--expr", "h(-10)e^lam"],
        ["reduce", "--module", "M(s=1/2)", "--expr", "h(-2)e^lam"],
    ],
    ids=["verify", "reduce-M(s=3)", "reduce-M(s=1/2)"],
)
def test_eliminations_are_rational(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("VOAF_CUTOFF", None)
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD] + argv, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["matrices"] > 0 and seen["lam"] == 0, seen
