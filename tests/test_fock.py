"""Fock-space sectors, mode actions, and the contravariant form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf.fock import (
    FockVector,
    Sector,
    basis_at_degree,
    contravariant_form,
    partitions_of,
)
from voaf.vertexops import delta_apply, omega, vertex_op_coeff
from voaf.virasoro import L

UNT = Sector.untwisted(None)
TW = Sector.twisted_sector()

# partition numbers p(0..10)
PARTITIONS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


class TestBases:
    @pytest.mark.parametrize("n", range(11))
    def test_untwisted_basis_counts(self, n):
        assert len(basis_at_degree(UNT, Fraction(n))) == PARTITIONS[n]

    def test_parity_split(self):
        for n in range(1, 8):
            full = len(basis_at_degree(UNT, Fraction(n)))
            even = len(basis_at_degree(UNT, Fraction(n), parity=0))
            odd = len(basis_at_degree(UNT, Fraction(n), parity=1))
            assert even + odd == full

    def test_twisted_grid(self):
        # dims of the full twisted space at degrees 0, 1/2, 1, 3/2, 2
        dims = [
            len(basis_at_degree(TW, Fraction(k, 2))) for k in range(5)
        ]
        assert dims == [1, 1, 1, 2, 2]

    def test_twisted_partitions_half_odd(self):
        for part in basis_at_degree(TW, Fraction(7, 2)):
            assert all(p.denominator == 2 for p in part)

    def test_partitions_no_illegal_depths(self):
        assert partitions_of(Fraction(1, 2), UNT) == []


class TestModes:
    def test_creation_then_annihilation(self):
        v = FockVector.basis(UNT)
        w = v.apply_mode(Fraction(-3)).apply_mode(Fraction(3))
        assert w == v.scale(Fraction(3))

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_heisenberg_commutator_untwisted(self, m, n, deg):
        for part in basis_at_degree(UNT, Fraction(deg)):
            w = FockVector.basis(UNT, part)
            lhs = w.apply_mode(Fraction(-n)).apply_mode(Fraction(m)) - w.apply_mode(
                Fraction(m)
            ).apply_mode(Fraction(-n))
            rhs = w.scale(Fraction(m)) if m == n else FockVector.zero(UNT)
            assert (lhs - rhs).is_zero()

    def test_heisenberg_commutator_twisted(self):
        for k in range(4):
            for part in basis_at_degree(TW, Fraction(k, 2)):
                w = FockVector.basis(TW, part)
                for m2 in (Fraction(1, 2), Fraction(3, 2)):
                    for n2 in (Fraction(1, 2), Fraction(3, 2)):
                        lhs = w.apply_mode(-n2).apply_mode(m2) - w.apply_mode(
                            m2
                        ).apply_mode(-n2)
                        rhs = w.scale(m2) if m2 == n2 else FockVector.zero(TW)
                        assert (lhs - rhs).is_zero()

    def test_charged_zero_mode(self):
        sec = Sector.untwisted(Fraction(9, 4))
        e = FockVector.basis(sec)
        w = e.apply_mode(Fraction(0))
        assert w == e.scale(sec.lam_scalar())

    def test_grading(self):
        v = FockVector.basis(UNT, (3, 1))
        assert v.max_degree() == 4
        assert v.apply_mode(Fraction(-2)).max_degree() == 6
        assert v.apply_mode(Fraction(1)).max_degree() == 3


class TestTheta:
    def test_theta_squares_to_identity(self):
        for deg in range(4):
            for part in basis_at_degree(UNT, Fraction(deg)):
                w = FockVector.basis(UNT, part)
                assert (w.theta().theta() - w).is_zero()

    def test_theta_sign(self):
        v = FockVector.basis(TW, (Fraction(3, 2), Fraction(1, 2)))
        assert v.theta() == v
        u = FockVector.basis(TW, (Fraction(1, 2),))
        assert u.theta() == u.scale(Fraction(-1))


class TestScale:
    @pytest.mark.parametrize("root", [2, 3])
    def test_zero_divisor_product_is_dropped(self, root):
        """For s = root^2, (lam - root)(lam + root) = s - root^2 = 0 in Q(sqrt(s))."""
        sec = Sector.untwisted(Fraction(root * root))
        lam = sec.lam_scalar()
        v = FockVector.basis(sec, (1,), lam - root).scale(lam + root)
        assert v.terms == {}
        assert v.is_zero()
        assert v == FockVector.zero(sec)

    def test_nonzero_terms_kept(self):
        sec = Sector.untwisted(Fraction(4))
        lam = sec.lam_scalar()
        v = FockVector.basis(sec, (1,), lam - 2) + FockVector.basis(sec, (2,))
        w = v.scale(lam + 2)
        assert w == FockVector.basis(sec, (2,), lam + 2)


class TestContravariantForm:
    def test_gram_diagonal_positive_untwisted(self):
        for deg in range(5):
            parts = basis_at_degree(UNT, Fraction(deg))
            vecs = [FockVector.basis(UNT, p) for p in parts]
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    val = contravariant_form(vi, vj)
                    if i == j:
                        assert val.as_rat() > 0
                    else:
                        assert val.is_zero()

    def test_gram_diagonal_positive_twisted(self):
        d = Fraction(0)
        while d <= 4:
            parts = basis_at_degree(TW, d)
            vecs = [FockVector.basis(TW, p) for p in parts]
            for i, vi in enumerate(vecs):
                for j, vj in enumerate(vecs):
                    val = contravariant_form(vi, vj)
                    if i == j:
                        assert val.as_rat() > 0
                    else:
                        assert val.is_zero()
            d += Fraction(1, 2)

    def test_contravariance_sample(self):
        # (h(m) u | v) = (u | h(-m) v)
        u = FockVector.basis(UNT, (2, 1))
        v = FockVector.basis(UNT, (2, 2))
        m = Fraction(1)
        lhs = contravariant_form(u.apply_mode(m), v)
        rhs = contravariant_form(u, v.apply_mode(-m))
        assert lhs == rhs


def _assert_int_keys(v: FockVector):
    """Every key is a decreasing tuple of doubled depths: positive ints, even
    in untwisted sectors and odd in the twisted one."""
    par = 1 if v.sector.twisted else 0
    for key in v.terms:
        assert type(key) is tuple
        assert all(type(k) is int and k > 0 and k % 2 == par for k in key), key
        assert list(key) == sorted(key, reverse=True)


class TestIntKeys:
    SECTORS = [UNT, Sector.untwisted(Fraction(2)), TW, Sector.untwisted(Fraction(1, 3))]

    @staticmethod
    def _sample(sector):
        """h(-1)h(-2)top + h(-3)top, shifted to half-odd depths when twisted."""
        half = Fraction(1, 2) if sector.twisted else 0
        top = FockVector.basis(sector)
        return top.apply_mode(-2 + half).apply_mode(-1 + half) + top.apply_mode(-3 + half)

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_apply_mode_and_L(self, sector):
        v = self._sample(sector)
        assert not v.is_zero()
        modes = [Fraction(k, 2) for k in range(-7, 8, 2)] if sector.twisted else range(-3, 4)
        for m in modes:
            _assert_int_keys(v.apply_mode(m))
        for n in range(-3, 4):
            _assert_int_keys(L(n, v))

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    def test_vertex_op_coeff(self, sector):
        v = self._sample(sector)
        for offset in (-3, -2, -1, 0):
            if sector.twisted:
                offset += Fraction(1, 2)
            _assert_int_keys(vertex_op_coeff(omega(), v, offset))
        w = vertex_op_coeff(omega(), v, -2)  # o(omega) = L(0)
        assert w == L(0, v)

    def test_delta_apply(self):
        a = FockVector.basis(UNT, (2, 1)) + omega()
        comps = delta_apply(a)
        assert all(type(j) is int for j in comps)
        for w in comps.values():
            _assert_int_keys(w)

    def test_natural_depths_at_the_boundary(self):
        v = FockVector.basis(TW, (Fraction(1, 2), Fraction(5, 2)), 3)
        assert list(v.terms) == [(5, 1)]
        assert v.terms[(5, 1)] == 3
        assert str(v) == "(3) h(-5/2)h(-1/2)1_tw"
        assert v.max_degree() == 3 and v.degrees() == [3]
        u = FockVector(UNT, {(1, 3): 2})
        assert list(u.terms) == [(6, 2)]
        assert str(u) == "(2) h(-3)h(-1)|0>"
        with pytest.raises(ValueError):
            FockVector(UNT, {(Fraction(1, 2),): 1})
        with pytest.raises(ValueError):
            FockVector.basis(TW, (1,))


_odd_depths = st.lists(st.sampled_from([1, 3, 5, 7]), max_size=4)  # doubled
_half_odd_modes = st.sampled_from([Fraction(k, 2) for k in range(-7, 8, 2)])


@given(_odd_depths, _half_odd_modes, _half_odd_modes)
@settings(max_examples=60, deadline=None)
def test_twisted_heisenberg_commutator_property(parts, m, n):
    # [h(m), h(n)] = m delta_{m+n,0} on a random twisted monomial
    w = FockVector.basis(TW, [Fraction(k, 2) for k in parts])
    lhs = w.apply_mode(n).apply_mode(m) - w.apply_mode(m).apply_mode(n)
    rhs = w.scale(m) if m + n == 0 else FockVector.zero(TW)
    assert lhs == rhs


@given(
    _odd_depths,
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_twisted_virasoro_commutator_property(parts, m, n):
    # [L(m), L(n)] = (m - n) L(m + n) + (m^3 - m)/12 delta_{m+n,0}, c = 1
    w = FockVector.basis(TW, [Fraction(k, 2) for k in parts])
    lhs = L(m, L(n, w)) - L(n, L(m, w))
    rhs = L(m + n, w).scale(Fraction(m - n))
    if m + n == 0:
        rhs = rhs + w.scale(Fraction(m**3 - m, 12))
    assert lhs == rhs
