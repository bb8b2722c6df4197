"""Zhu products, ideal membership, the anti-map, contraction polynomials."""

from fractions import Fraction

import pytest

from voaf import virasoro, zhu
from voaf.suites import e_L1, phi, relation_element, star_right
from voaf.fock import FockVector, Sector
from voaf.labels import mminus, mplus, mtheta_plus
from voaf.multipoly import MultiPoly
from voaf.scalars import Scalar
from voaf.vertexops import omega
from voaf.virasoro import L_word, express_in_descendants

UNT = Sector.untwisted(None)
H3H1 = FockVector.basis(UNT, (3, 1))


class TestStarProducts:
    def test_vacuum_is_identity(self):
        v = mminus().top_vector()
        one = FockVector.basis(UNT)
        assert zhu.star_left(one, v) == v
        assert star_right(v, one) == v

    def test_eight_term_quartic_expansion(self):
        """h(-3)h(-1)|0> * v on the odd module equals the known Virasoro
        descendant combination."""
        v = mminus().top_vector()
        prod = zhu.star_left(H3H1, v)
        expected = (
            v.scale(Fraction(3))
            + L_word((1,), v).scale(Fraction(12))
            + L_word((1, 1), v).scale(Fraction(12))
            + L_word((3,), v).scale(Fraction(-8))
            + L_word((2, 1), v).scale(Fraction(16))
            + L_word((4,), v).scale(Fraction(-1, 2))
            + L_word((3, 1), v).scale(Fraction(1, 4))
            + L_word((2, 1, 1), v).scale(Fraction(3, 2))
        )
        assert (prod - expected).is_zero()

    def test_omega_star_expansion(self):
        # omega * v = (L(-2) + 2L(-1) + L(0)) v; the L(0) term contributes
        # the lowest weight
        v = mminus().top_vector()
        prod = zhu.star_left(omega(), v)
        expected = (
            virasoro.L(-2, v) + virasoro.L(-1, v).scale(Fraction(2)) + v
        )
        assert (prod - expected).is_zero()


class TestMembership:
    def test_relation_element_is_member(self):
        res = zhu.o_membership(relation_element(), mplus(), cutoff=6)
        assert res.member
        # the certificate reproduces the element
        acc = FockVector.zero(UNT)
        for a, u, c in res.combination:
            acc = acc + zhu.circ(a, u).scale(c)
        assert (acc - relation_element()).is_zero()

    def test_nonmember_detected(self):
        # the conformal vector itself is not in the span of circle products
        res = zhu.o_membership(omega(), mplus(), cutoff=5)
        assert not res.member

    def test_rewrite_membership(self):
        for elem in _rewrite_elements():
            assert zhu.o_membership(elem, mminus(), cutoff=6).member


def _rewrite_elements():
    """The four L(-n) rewrites on the M- top vector, n = 1..4."""
    v = mminus().top_vector()
    elems = []
    for n in range(1, 5):
        rewrite = (
            zhu.star_left(omega(), v)
            + star_right(v, omega()).scale(Fraction(-n))
            + v.scale(Fraction(-1))
        ).scale(Fraction((-1) ** (n - 1)))
        elems.append(virasoro.L(-n, v) - rewrite)
    return elems


@pytest.fixture
def circ_calls(monkeypatch):
    """Clear the membership columns and count the circle products built."""
    zhu._membership_columns.cache_clear()
    calls = []
    real = zhu.circ

    def counted(a, u):
        calls.append((a, u))
        return real(a, u)

    monkeypatch.setattr(zhu, "circ", counted)
    yield calls
    zhu._membership_columns.cache_clear()


class TestSharedColumns:
    def test_rewrites_build_the_columns_once(self, circ_calls):
        for elem in _rewrite_elements():
            assert zhu.o_membership(elem, mminus(), cutoff=6).member
        assert len(circ_calls) == 19

    def test_results_match_a_cold_build(self, circ_calls):
        elems = _rewrite_elements()
        warm = [zhu.o_membership(e, mminus(), cutoff=6) for e in elems]
        for elem, res in zip(elems, warm):
            zhu._membership_columns.cache_clear()
            cold = zhu.o_membership(elem, mminus(), cutoff=6)
            assert res.member == cold.member
            assert res.combination == cold.combination

    def test_each_module_and_cutoff_builds_its_own_columns(self, circ_calls):
        # a o u with wt(a) = 5 on the M- top vector: a member at cutoff 6,
        # past the columns of cutoff 5
        far = zhu.circ(FockVector.basis(UNT, (4, 1)), mminus().top_vector())
        del circ_calls[:]
        assert zhu.o_membership(far, mminus(), cutoff=6).member
        counts = [len(circ_calls)]
        zhu.o_membership(relation_element(), mplus(), cutoff=6)
        counts.append(len(circ_calls))
        assert not zhu.o_membership(far, mminus(), cutoff=5).member
        counts.append(len(circ_calls))
        assert 0 < counts[0] < counts[1] < counts[2]
        assert zhu._membership_columns.cache_info().currsize == 3

    def test_nonmember_detected_with_a_warm_cache(self, circ_calls):
        assert zhu.o_membership(relation_element(), mplus(), cutoff=5).member
        built = len(circ_calls)
        assert not zhu.o_membership(omega(), mplus(), cutoff=5).member
        assert len(circ_calls) == built


class TestPhi:
    def test_involution_up_to_phase(self):
        v = mtheta_plus().top_vector()
        img = phi(v)
        assert img.phase == Fraction(1, 16) and type(img.phase) is Fraction
        again = phi(img.vector)
        assert (again.vector - v).is_zero()

    def test_e_l1_on_lowest_weight_is_identity(self):
        v = mminus().top_vector()
        assert e_L1(v) == v


class TestContractionPolynomials:
    def test_descendant_to_poly_level_one(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = zhu.descendant_to_poly((1,), Fraction(1))
        assert p == x - y - 1

    def test_descendant_to_poly_level_two_sign(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = zhu.descendant_to_poly((2,), Fraction(1))
        assert p == (x - y * 2 - 1) * Fraction(-1)

    def test_nested_weights_accumulate(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = zhu.descendant_to_poly((2, 1), Fraction(1))
        # inner L(-1) raises the weight to 2 before the outer L(-2) factor
        inner = x - y - 1
        outer = (x - y * 2 - 2) * Fraction(-1)
        assert p == outer * inner

    def test_coords_to_polys_rational(self):
        v = mminus().top_vector()
        prod = zhu.star_left(H3H1, v)
        coords = express_in_descendants(prod, [v])
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        expected = (
            x**3 * Fraction(-3, 2) + x * x * y * 6 - x * y * y * Fraction(15, 2) + y**3 * 3
            + x * x * Fraction(21, 4) + x * y * Fraction(1, 2) - y * y * Fraction(23, 4)
            - x * Fraction(3, 4) + y * Fraction(11, 4)
        )
        assert zhu.coords_to_polys(coords, [Fraction(1)], 1) == [expected]

    def test_coords_to_polys_rejects_irrational(self):
        sec = Sector.untwisted(Fraction(2))
        v = FockVector.basis(sec)
        coords = express_in_descendants(v.scale(Scalar.lam(Fraction(2))), [v])
        with pytest.raises(ValueError):
            zhu.coords_to_polys(coords, [Fraction(1)], 1)
