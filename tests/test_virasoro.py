"""Sugawara Virasoro operators, descendant coordinates, singular vectors."""

from fractions import Fraction

import pytest

from voaf.fock import FockVector, Sector, basis_at_degree
from voaf.labels import mlam, mminus, mtheta_minus, mtheta_plus
from voaf.virasoro import (
    DescendantWord,
    L,
    L_word,
    NotInSpan,
    express_in_descendants,
    reconstruct,
    singular_vector_image,
    words_at_level,
)

UNT = Sector.untwisted(None)
TW = Sector.twisted_sector()


def _all_vectors(sector, max_deg):
    step = Fraction(1, 2) if sector.twisted else Fraction(1)
    d = Fraction(0)
    while d <= max_deg:
        for part in basis_at_degree(sector, d):
            yield FockVector.basis(sector, part)
        d += step


class TestVirasoroAction:
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


class TestSingularVectors:
    def test_weight_one_image_vanishes(self):
        v = mminus().top_vector()
        img = singular_vector_image(
            [(2, (3,)), (-4, (2, 1)), (1, (1, 1, 1))], v
        )
        assert img.is_zero()

    def test_weight_quarter_image_vanishes(self):
        v = mlam(Fraction(1, 2)).top_vector()
        img = singular_vector_image([(1, (1, 1)), (-1, (2,))], v)
        assert img.is_zero()

    def test_weight_nine_quarters_image_vanishes(self):
        v = mlam(Fraction(9, 2)).top_vector()
        img = singular_vector_image(
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
