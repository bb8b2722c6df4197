"""Sugawara Virasoro operators, descendant coordinates, singular vectors."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf.fock import FockVector, Sector, basis_at_degree, halve
from voaf.labels import mlam, mminus, mtheta_minus, mtheta_plus
from voaf.virasoro import (
    DescendantWord,
    L,
    L_word,
    NotInSpan,
    express_in_descendants,
    words_at_level,
)
from voaf.suites import reconstruct
from voaf.scalars import Scalar

UNT = Sector.untwisted(None)
TW = Sector.twisted_sector()


def _reference_L(n: int, v: FockVector) -> FockVector:
    """L(n) as a sum of Heisenberg mode pairs, one FockVector per pair."""
    sector = v.sector
    if v.is_zero():
        return v
    out = FockVector.zero(sector)
    # k is a doubled mode index and maxdeg a doubled degree.  Off-diagonal
    # pairs (n-k/2, k/2) with k/2 > n/2; h(k/2) first keeps the product
    # normal ordered.  Positive k/2 beyond the deepest term annihilates v.
    maxdeg = max(sum(p) for p in v.terms)
    par = sector.depth_parity()
    k = n + 1 if (n + 1) % 2 == par else n + 2
    while k <= maxdeg or k <= 0:
        out = out + v.apply_mode(halve(k)).apply_mode(halve(2 * n - k))
        k += 2
    # diagonal term k = n when n/2 is a legal mode index
    if n % 2 == par and not (n == 0 and sector.s is None):
        half = halve(n)
        out = out + v.apply_mode(half).apply_mode(half).scale(Fraction(1, 2))
    if sector.twisted and n == 0:
        out = out + v.scale(Fraction(1, 16))
    return out


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _coefficient(sector):
    """Random nonzero coefficients in the sector's scalar field."""
    if sector.s is not None:
        c = st.tuples(_small, _small).map(
            lambda ab: Scalar.of(ab[0]) + Scalar.lam(sector.s) * ab[1]
        )
    else:
        c = _small.map(Scalar.of)
    return c.filter(bool)


def _monomial(sector):
    depths = (
        st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2)])
        if sector.twisted
        else st.integers(1, 4)
    )
    return st.tuples(st.lists(depths, max_size=4), _coefficient(sector))


_L_SECTORS = {
    "vacuum": UNT,
    "charged s=2": Sector.untwisted(Fraction(2)),
    "charged s=4": Sector.untwisted(Fraction(4)),
    "twisted": TW,
    "charged s=1/3": Sector.untwisted(Fraction(1, 3)),
}


def _all_vectors(sector, max_deg):
    step = Fraction(1, 2) if sector.twisted else Fraction(1)
    d = Fraction(0)
    while d <= max_deg:
        for part in basis_at_degree(sector, d):
            yield FockVector.basis(sector, part)
        d += step


class TestVirasoroAction:
    @pytest.mark.parametrize("name", sorted(_L_SECTORS))
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), n=st.integers(-6, 6))
    def test_matches_mode_pair_reference(self, name, data, n):
        sector = _L_SECTORS[name]
        terms = data.draw(st.lists(_monomial(sector), min_size=1, max_size=4))
        v = FockVector.zero(sector)
        for parts, c in terms:
            v = v + FockVector.basis(sector, parts, c)
        got = L(n, v)
        assert got == _reference_L(n, v)
        assert all(not c.is_zero() for c in got.terms.values())

    @pytest.mark.parametrize("sector", [UNT, TW], ids=["untwisted", "twisted"])
    def test_central_charge_one_commutators(self, sector):
        for w in _all_vectors(sector, 4):
            for m in range(-3, 4):
                for n in range(m + 1, 4):
                    lhs = L(m, L(n, w)) - L(n, L(m, w))
                    rhs = L(m + n, w).scale(Fraction(m - n))
                    if m + n == 0:
                        rhs = rhs + w.scale(Fraction(m**3 - m, 12))
                    assert (lhs - rhs).is_zero(), (m, n, w)

    def test_l0_grading_untwisted(self):
        v = FockVector.basis(UNT, (3, 2, 1))
        assert L(0, v) == v.scale(Fraction(6))

    def test_l0_twisted_offset(self):
        v = FockVector.basis(TW, (Fraction(1, 2),))
        assert L(0, v) == v.scale(Fraction(1, 2) + Fraction(1, 16))

    def test_l0_charged_offset(self):
        sec = Sector.untwisted(Fraction(3))
        e = FockVector.basis(sec)
        assert L(0, e) == e.scale(Fraction(3, 2))

    def test_lowest_weight_tops(self):
        for label, weight in [
            (mminus(), Fraction(1)),
            (mtheta_plus(), Fraction(1, 16)),
            (mtheta_minus(), Fraction(9, 16)),
            (mlam(Fraction(2)), Fraction(1)),
        ]:
            v = label.top_vector()
            assert L(0, v) == v.scale(weight), label
            for n in range(1, 5):
                assert L(n, v).is_zero(), (label, n)


class TestDescendants:
    def test_words_at_level_count(self):
        # integer partitions of n: 1,1,2,3,5,7
        for n, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7)]:
            assert len(words_at_level(0, n)) == count

    def test_words_at_level_order(self):
        """Every partition once, largest parts first (descending
        lexicographic order), which fixes the pivots of the descendant
        solve."""
        for n in range(16):
            words = words_at_level(2, n)
            ms = [w.ms for w in words]
            assert ms == sorted(set(ms), reverse=True)
            assert all(w.gen == 2 and sum(w.ms) == n for w in words)
            assert all(list(m) == sorted(m, reverse=True) and min(m, default=1) >= 1 for m in ms)
        assert [w.ms for w in words_at_level(0, 4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert len(words_at_level(0, 15)) == 176

    def test_express_and_reconstruct(self):
        v = mminus().top_vector()
        target = (
            L_word((2, 1), v).scale(Fraction(3, 2))
            + L_word((4,), v).scale(Fraction(-1, 3))
            + v
        )
        coords = express_in_descendants(target, [v])
        back = reconstruct(coords, [v])
        assert (back - target).is_zero()

    def test_express_rejects_foreign_vector(self):
        v = mminus().top_vector()
        outside = FockVector.basis(UNT, (2, 2))  # even parity, not a descendant
        with pytest.raises(NotInSpan):
            express_in_descendants(outside, [v])

    def test_descendant_word_ordering(self):
        w = DescendantWord(0, (3, 1))
        assert w.ms == (3, 1)
        assert sum(w.ms) == 4


def _image(combo, v):
    """sum_i c_i L(-m_{i,1})...L(-m_{i,k_i}) applied to v."""
    return reconstruct({DescendantWord(0, ms): c for c, ms in combo}, [v])


class TestSingularVectors:
    def test_weight_one_image_vanishes(self):
        v = mminus().top_vector()
        img = _image(
            [(2, (3,)), (-4, (2, 1)), (1, (1, 1, 1))], v
        )
        assert img.is_zero()

    def test_weight_quarter_image_vanishes(self):
        v = mlam(Fraction(1, 2)).top_vector()
        img = _image([(1, (1, 1)), (-1, (2,))], v)
        assert img.is_zero()

    def test_weight_nine_quarters_image_vanishes(self):
        v = mlam(Fraction(9, 2)).top_vector()
        img = _image(
            [
                (18, (4,)),
                (-14, (3, 1)),
                (-9, (2, 2)),
                (10, (2, 1, 1)),
                (-1, (1, 1, 1, 1)),
            ],
            v,
        )
        assert img.is_zero()

    def test_generic_charge_has_no_singular_vector(self):
        # at squared charge 1/3 the weight is 1/6, not a quarter-square;
        # the level-2 descendants stay independent
        v = mlam(Fraction(1, 3)).top_vector()
        a = L_word((2,), v)
        b = L_word((1, 1), v)
        # no rational combination of a, b vanishes
        coeffs = set()
        for part in sorted(set(a.terms) | set(b.terms)):
            ca = a.terms.get(part)
            cb = b.terms.get(part)
            if cb is not None and not cb.is_zero():
                if ca is None:
                    coeffs.add(None)
                else:
                    coeffs.add((ca / cb).as_rat())
        assert len(coeffs) > 1
