"""Vertex operator modes, the degree-correction table, and zero modes."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import rs_log, rs_nth_root
from sympy.polys.rings import ring

from voaf.fock import FockVector, Sector, basis_at_degree, double, halve, partition_keys
from voaf import vertexops
from voaf.labels import mlam, mminus, mtheta_minus, mtheta_plus
from voaf.scalars import Scalar
from voaf.vertexops import (
    J_state,
    cmn_table,
    delta_apply,
    gen_binom,
    mode,
    modes,
    o_apply,
    omega,
    vertex_op_coeff,
    weight,
)
from voaf.zhu import star_left

UNT = Sector.untwisted(None)
TW = Sector.twisted_sector()
VACUUM = FockVector.basis(UNT)


# ----------------------------------------------------------------------
# The mode-tuple enumeration that `vertexops._product` replaced, kept as the
# reference.  Degrees, depths and mode indices are doubled ints.  For each
# pair of monomials it enumerates every tuple of k mode indices and applies
# the modes, annihilations first, between the two halves of E(lam_a, z),
# whose coefficients it takes from the multinomial expansion of each half
# rather than from the engine's graded exponential.


def _apply_modes(v, ms):
    """The modes h(m) for the natural indices m in `ms` applied to v, the
    first first."""
    for m in ms:
        if v.is_zero():
            break
        v = v.apply_mode(m)
    return v


def _multinomial(parts, lam_a, negative):
    """Coefficient of the multiset `parts` of doubled depths in
    exp(+-sum_n lam_a h(-+n)/n z^{+-n}): the product over distinct depths d
    of (+-2 lam_a/d)^p / p! for multiplicity p."""
    acc = Scalar.one()
    for d in set(parts):
        p = parts.count(d)
        acc = acc * (lam_a * Fraction(-2 if negative else 2, d)) ** p / math.factorial(p)
    return acc


def _reference_tuples(sector, k, dA, deg_out, fixed_sum, target):
    """Tuples (m_1..m_k) of legal mode indices: annihilation total bounded by
    dA, each creation depth bounded by deg_out; the total is -target if
    fixed_sum, and at least -target otherwise."""
    start = -deg_out if -deg_out % 2 == sector.depth_parity() else -deg_out + 1
    values = [m for m in range(start, dA + 1, 2) if m != 0 or not sector.twisted]

    def rec(i, pos_used, total):
        if i == k:
            if total == -target or (not fixed_sum and total > -target):
                yield ()
            return
        remaining = k - i - 1
        for m in values:
            if m > 0 and pos_used + m > dA:
                continue
            t = total + m
            if t + remaining * dA < -target:
                continue
            if fixed_sum and t - remaining * deg_out > -target:
                continue
            for rest in rec(i + 1, pos_used + max(m, 0), t):
                yield (m,) + rest

    return rec(0, 0, 0)


def _reference_term(ns, lam_a, part, cu, E, sector_u):
    out = FockVector.zero(sector_u)
    du, N, k = sum(part), sum(ns), len(ns)
    deg_out = du + E + N
    if deg_out < 0 or cu.is_zero():
        return out
    lam_zero = lam_a.is_zero()
    base = FockVector(sector_u)
    base.terms = {part: cu}
    step = 1 if sector_u.twisted else 2
    for sA in [0] if lam_zero else range(0, du + 1, step):
        for A in partition_keys(sA, sector_u):
            vA = _apply_modes(base, [halve(d) for d in A])
            if vA.is_zero():
                continue
            coefA = _multinomial(A, lam_a, negative=True)
            for ms in _reference_tuples(sector_u, k, du - sA, deg_out, lam_zero, E + sA + N):
                sB = E + sA + sum(ms) + N
                if sB < 0 or (lam_zero and sB != 0):
                    continue
                vM = _apply_modes(vA, [halve(m) for m in sorted(ms, reverse=True)])
                if vM.is_zero():
                    continue
                coefM = Fraction(1)
                for m, n in zip(ms, ns):
                    j = n // 2 - 1
                    coefM *= (-1) ** j * gen_binom(Fraction(m + n - 2, 2), j)
                if coefM == 0:
                    continue
                for B in partition_keys(sB, sector_u):
                    coefB = _multinomial(B, lam_a, negative=False)
                    w = _apply_modes(vM, [-halve(b) for b in B])
                    out = out + w.scale(coefA * coefM * coefB)
    return out


def _reference_coeff(a, u, offset):
    """vertex_op_coeff(a, u, offset) by the mode-tuple enumeration."""
    lam_a = a.sector.lam_scalar()
    acc = FockVector.zero(u.sector)
    for j, comp in vertexops._operator(a, u).items():
        E = double(offset) + 2 * j
        for part, ca in comp.terms.items():
            for upart, cu in u.terms.items():
                acc = acc + _reference_term(part, lam_a, upart, ca * cu, E, u.sector)
    return acc


class TestBasics:
    def test_gen_binom(self):
        assert gen_binom(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert gen_binom(4, 2) == 6
        assert gen_binom(3, 5) == 0

    def test_weight(self):
        assert weight(omega()) == 2
        assert weight(J_state()) == 4

    def test_vacuum_mode_is_identity(self):
        for deg in range(4):
            for part in basis_at_degree(UNT, Fraction(deg)):
                w = FockVector.basis(UNT, part)
                assert mode(VACUUM, -1, w) == w

    def test_heisenberg_field_modes(self):
        h = FockVector.basis(UNT, (1,))
        v = FockVector.basis(UNT, (2,))
        # h_{(n)} agrees with the bare mode action h(n)
        for n in (-2, -1, 0, 1, 2):
            assert mode(h, n, v) == v.apply_mode(Fraction(n))


class TestCmnTable:
    def test_against_logarithmic_taylor_series(self):
        """c_mn is the x^m y^n coefficient of -log((sqrt(1+x) + sqrt(1+y))/2),
        read as the x^m y^n t^(m+n) coefficient of its ring series in t."""
        table = cmn_table(8)
        _, x, y, t = ring("x,y,t", QQ)
        half_sum = (rs_nth_root(1 + t * x, 2, t, 9) + rs_nth_root(1 + t * y, 2, t, 9)) / 2
        series = -rs_log(half_sum, t, 9)
        for m in range(9):
            for n in range(9 - m):
                if m + n == 0:
                    continue
                want = table.get((m, n), Fraction(0))
                got = series.coeff(x**m * y**n * t ** (m + n))
                assert got == QQ(want.numerator, want.denominator), (m, n)

    def test_symmetry(self):
        table = cmn_table(8)
        for (m, n), c in table.items():
            assert table.get((n, m)) == c

    def test_leading_values(self):
        table = cmn_table(4)
        # c_{11} = 1/16 drives the twisted lowest weight of omega
        assert table[(1, 1)] == Fraction(1, 16)
        assert table[(1, 0)] == Fraction(-1, 4)


class TestDeltaApply:
    def test_vacuum_untouched(self):
        comps = delta_apply(VACUUM)
        assert list(comps) == [Fraction(0)]
        assert comps[Fraction(0)] == VACUUM

    def test_omega_correction_constant(self):
        # e^Delta omega = omega + (1/16) z^{-2} |0>; the shift produces the
        # twisted lowest weight 1/16
        comps = delta_apply(omega())
        assert comps[Fraction(2)] == VACUUM.scale(Fraction(1, 16))

    def test_correction_reaches_the_full_degree(self):
        # the one contraction h(7)h(7) of h(-7)^2|0> lowers the degree by
        # 14, so e^Delta needs the c_mn up to total 14, not a fixed cap
        a = FockVector.basis(UNT, (7, 7))
        comps = delta_apply(a)
        assert sorted(comps) == [0, 14]
        assert comps[0] == a
        assert comps[14] == VACUUM.scale(98 * cmn_table(14)[(7, 7)])


class TestZeroModes:
    def test_zero_mode_eigenvalues_match_table(self):
        for label, a, b in [
            (mminus(), Fraction(1), Fraction(-6)),
            (mtheta_plus(), Fraction(1, 16), Fraction(3, 128)),
            (mtheta_minus(), Fraction(9, 16), Fraction(-45, 128)),
        ]:
            v = label.top_vector()
            assert o_apply(omega(), v) == v.scale(a)
            assert o_apply(J_state(), v) == v.scale(b)

    @staticmethod
    def _o_mixed(a, v):
        acc = FockVector.zero(v.sector)
        for d in a.degrees():
            acc = acc + o_apply(a.homogeneous_component(d), v)
        return acc

    def test_zero_mode_multiplicative_on_top_level(self):
        # o(a*b) v = o(a) o(b) v on a lowest-weight vector
        v = mminus().top_vector()
        a, b = omega(), omega()
        lhs = self._o_mixed(star_left(a, b), v)
        rhs = o_apply(a, o_apply(b, v))
        assert (lhs - rhs).is_zero()

    def test_zero_mode_multiplicative_twisted(self):
        v = mtheta_minus().top_vector()
        lhs = self._o_mixed(star_left(omega(), omega()), v)
        rhs = o_apply(omega(), o_apply(omega(), v))
        assert (lhs - rhs).is_zero()

    def test_zero_mode_of_a_state_above_degree_twelve(self):
        tv = FockVector.basis(TW)
        a = FockVector.basis(UNT, (7, 7))
        assert o_apply(a, tv) == tv.scale(Fraction(1288287, 8388608))


class TestTwistedIntertwiner:
    def test_leading_coefficients(self):
        sec = Sector.untwisted(Fraction(2))
        a = FockVector.basis(sec)
        tv = FockVector.basis(TW)
        lead = vertex_op_coeff(a, tv, Fraction(0))
        assert list(lead.terms) == [()]
        assert lead.terms[()].as_rat() == 1
        # annihilation side: coefficient of the lowering power is -lam
        hv = FockVector.basis(TW, (Fraction(1, 2),))
        low = vertex_op_coeff(a, hv, Fraction(-1, 2))
        assert list(low.terms) == [()]
        assert low.terms[()] == -Scalar.lam(Fraction(2))

    def test_both_parities_hit(self):
        sec = Sector.untwisted(Fraction(1, 3))
        a = FockVector.basis(sec)
        tv = FockVector.basis(TW)
        even = vertex_op_coeff(a, tv, Fraction(0))
        odd = vertex_op_coeff(a, tv, Fraction(1, 2))
        assert not even.is_zero()
        assert not odd.is_zero()

    def test_charged_state_rejected_on_an_untwisted_module(self):
        a = mlam(Fraction(2)).top_vector()
        u = mlam(Fraction(8)).top_vector()
        with pytest.raises(ValueError, match="only on the twisted module"):
            vertex_op_coeff(a, u, 1)


class TestModes:
    @pytest.mark.parametrize(
        "u",
        [
            mtheta_plus().top_vector(),
            mtheta_minus().top_vector(),
            FockVector.basis(TW, (Fraction(3, 2), Fraction(1, 2))),
            mminus().top_vector(),
            mlam(Fraction(2)).top_vector(),
        ],
        ids=["Mtheta+", "Mtheta-", "twisted-level-2", "M-", "M(s=2)"],
    )
    @pytest.mark.parametrize("a", [J_state(), omega()], ids=["J", "omega"])
    def test_modes_equal_single_modes(self, a, u, monkeypatch):
        ns = [-2, -1, 0, 1, 2, 3]
        if u.sector.twisted:
            ns += [Fraction(1, 2), Fraction(-3, 2)]
        expansions = []
        real = vertexops.delta_apply
        monkeypatch.setattr(vertexops, "delta_apply", lambda b: expansions.append(b) or real(b))
        got = modes(a, ns, u)
        # e^Delta a is expanded once for the whole list, and only on a twisted u
        assert len(expansions) == (1 if u.sector.twisted else 0)
        assert got == [mode(a, n, u) for n in ns]
        assert got == [vertex_op_coeff(a, u, -n - 1) for n in ns]

    def test_modes_rejects_a_charged_state(self):
        a = mlam(Fraction(2)).top_vector()
        for u in (mminus().top_vector(), mlam(Fraction(8)).top_vector(), mtheta_plus().top_vector()):
            with pytest.raises(ValueError):
                modes(a, [0], u)


# ----------------------------------------------------------------------
# the recursion against the mode-tuple reference


def _monomials(sector, max_degree):
    return [p for d in range(2 * max_degree + 1)
            for p in basis_at_degree(sector, Fraction(d, 2))]


def _state(sector, max_degree):
    """Sums of up to two monomials of the sector, coefficients in its field."""
    if sector.s is None:
        coeffs = st.integers(-3, 3).map(Scalar.of)
    else:
        lam = Scalar.lam(sector.s)
        coeffs = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(
            lambda c: Scalar.of(c[0]) + lam * c[1])
    term = st.tuples(st.sampled_from(_monomials(sector, max_degree)), coeffs)
    return st.lists(term, min_size=1, max_size=2).map(
        lambda ts: sum((FockVector.basis(sector, p, c) for p, c in ts), FockVector.zero(sector)))


def _delta_series(a):
    """sum_k Delta^k a / k! as {j: component with z^{-j} attached}, Delta =
    sum c_mn h(m)h(n) z^{-m-n} applied again until it gives zero."""
    table = cmn_table(int(a.max_degree()))
    out, term, k = {}, {0: a}, 0
    while term:
        for j, w in term.items():
            out[j] = out.get(j, FockVector.zero(a.sector)) + w
        k += 1
        nxt = {}
        for j, w in term.items():
            for (m, n), c in table.items():
                v = w.apply_mode(n).apply_mode(m).scale(c / k)
                nxt[j + m + n] = nxt.get(j + m + n, FockVector.zero(a.sector)) + v
        term = {j: w for j, w in nxt.items() if not w.is_zero()}
    return {j: w for j, w in out.items() if not w.is_zero()}


@given(st.one_of(
    st.just(FockVector.basis(UNT, (2, 1)) + omega()),
    st.sampled_from([UNT, Sector.untwisted(Fraction(2)), Sector.untwisted(Fraction(1, 3))])
    .flatmap(lambda s: _state(s, 5))))
@settings(max_examples=40, deadline=None)
def test_delta_apply_is_the_exponential_series(a):
    assert delta_apply(a) == _delta_series(a)


# vacuum, Q(sqrt 2), Q(sqrt 4) (zero divisors) and the twisted sector
_U_SECTORS = [UNT, Sector.untwisted(Fraction(2)), Sector.untwisted(Fraction(4)), TW]


class TestProductRecursion:
    @given(_state(UNT, 4), st.sampled_from(_U_SECTORS).flatmap(lambda s: _state(s, 3)))
    @settings(max_examples=40, deadline=None)
    def test_modes_match_the_reference(self, a, u):
        # a_n u vanishes once n > deg(a) + deg(u) - 1, and below n = -2 only
        # creation depths grow; halves act on the twisted module
        top = int(a.max_degree() + u.max_degree())
        step = Fraction(1, 2) if u.sector.twisted else 1
        ns = [-2 + k * step for k in range(int((top + 2) / step) + 1)]
        got = modes(a, ns, u)
        assert got == [_reference_coeff(a, u, -n - 1) for n in ns]
        assert [vertex_op_coeff(a, u, -n - 1) for n in ns] == got

    @given(st.sampled_from([Fraction(2), Fraction(1, 3), Fraction(5, 4), Fraction(9)])
           .flatmap(lambda s: _state(Sector.untwisted(s), 2)), _state(TW, 1))
    @settings(max_examples=15, deadline=None)
    def test_charged_words_on_the_twisted_module(self, a, u):
        for k in range(-5, 5):
            assert vertex_op_coeff(a, u, Fraction(k, 2)) == _reference_coeff(a, u, Fraction(k, 2))

    @pytest.mark.parametrize("u", [FockVector.basis(UNT, (2, 1)),
                                   FockVector.basis(TW, (Fraction(3, 2), Fraction(1, 2)))],
                             ids=["vacuum", "twisted"])
    def test_one_memo_computes_each_key_once(self, u, monkeypatch):
        computed, memos = [], set()
        real = vertexops._product

        def counting(ns, lam_a, E, part, sector, memo):
            memos.add(id(memo))
            if (ns, E, part) not in memo:
                computed.append((ns, E, part))
            return real(ns, lam_a, E, part, sector, memo)

        monkeypatch.setattr(vertexops, "_product", counting)
        modes(J_state(), range(-2, 8), u)
        assert len(memos) == 1
        assert computed and len(computed) == len(set(computed))

    def test_one_operator_call_builds_each_grade_list_once(self, monkeypatch):
        # a = h(-2)e^lam + h(-1)^2 e^lam at s = 9 on a two-term twisted u: the
        # charged base case reaches the same monomials at many E, and every
        # grade list of E(lam, z) it extends is the one the operator's memo
        # keeps under (monomial, A), each grade computed once
        a = FockVector(Sector.untwisted(Fraction(9)), {(2,): 1, (1, 1): 1})
        u = FockVector(TW, {(Fraction(1, 2),): 1, (Fraction(3, 2),): 1})
        pieces = delta_apply(a)
        monkeypatch.setattr(vertexops, "delta_apply", lambda b: pieces)
        memos, lists, computed = [], {}, []
        real_pair, real_grades = vertexops._exp_pair, vertexops._exp_grades

        def pair(lam_a, E, part, sector, memo):
            if not any(m is memo for m in memos):
                memos.append(memo)
            return real_pair(lam_a, E, part, sector, memo)

        def grades(gs, top, step):
            lists.setdefault(id(gs), []).append(gs)
            computed.extend((id(gs), G) for G in range(len(gs), top + 1))
            return real_grades(gs, top, step)

        monkeypatch.setattr(vertexops, "_exp_pair", pair)
        monkeypatch.setattr(vertexops, "_exp_grades", grades)
        shared = 0
        for k in range(-6, 7):
            memos.clear(), lists.clear(), computed.clear()
            vertex_op_coeff(a, u, Fraction(k, 2))
            assert len(memos) == 1, k
            kept = {id(v): key for key, v in memos[0].items() if type(v) is list}
            assert lists and set(lists) == set(kept), k
            assert all(A is None or type(A) is int for _, A in kept.values()), k
            assert len(computed) == len(set(computed)), k
            shared += sum(len(calls) > 1 for calls in lists.values())
        assert shared
