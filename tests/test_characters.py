"""Formal q-series and the character identities."""

import json
from fractions import Fraction

import pytest

from voaf.characters import (
    QSeries,
    _partition_counts,
    char_virasoro_c1,
    decomposition_weights,
    eta_inverse,
    graded_dimension,
)
from voaf.suites import jacobi_triple_check, twisted_character_identity, verify_decomposition
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf.fock import Sector, basis_at_degree
from voaf.labels import ModuleLabel
from voaf.scalars import quarter_square_index

F = Fraction
M = ModuleLabel.parse


class TestQSeries:
    @pytest.mark.parametrize("s", [F(1, 5), F(3, 7), F(13, 11)])
    def test_any_rational_charge(self, s):
        # exponents s/2 - 1/24 + n leave every fixed grid as s varies
        assert graded_dimension(M("M(s=%s)" % s), 6) == char_virasoro_c1(s / 2, 6)

    def test_arithmetic_min_cutoff(self):
        a = QSeries({F(0): F(1)}, cutoff=5)
        b = QSeries({F(1): F(2)}, cutoff=3)
        assert (a + b).cutoff == 3
        assert (a * b).cutoff == 3

    def test_multiplication(self):
        a = QSeries({F(0): F(1), F(1, 2): F(1)}, cutoff=4)
        sq = a * a
        assert sq.coeffs.get(F(0), 0) == 1
        assert sq.coeffs.get(F(1, 2), 0) == 2
        assert sq.coeffs.get(F(1), 0) == 1

    def test_truncation_drops_high_terms(self):
        a = QSeries({F(0): F(1), F(6): F(1)}, cutoff=6)
        assert a.truncate(3).coeffs == {F(0): F(1)}

    def test_shift(self):
        a = QSeries({F(1): F(3)}, cutoff=4)
        b = a.shift(F(-1, 24))
        assert b.coeffs.get(F(1) - F(1, 24), 0) == 3

    def test_json_round_trip(self):
        a = QSeries({F(-1, 24): F(1), F(3, 2): F(5)}, cutoff=8)
        data = json.loads(json.dumps(a.to_json()))
        back = QSeries({F(e): F(c) for e, c in data}, cutoff=8)
        assert back == a

    def test_str_deterministic(self):
        a = QSeries({F(0): F(1), F(1, 2): F(2)}, cutoff=3)
        assert str(a) == "1 + 2 q^{1/2}"


class _RefSeries:
    """The dict-of-Fraction series QSeries replaced: exponent -> coefficient,
    both Fractions, and a rational cutoff."""

    def __init__(self, coeffs, cutoff):
        self.cutoff = F(cutoff)
        self.coeffs = {F(e): F(c) for e, c in coeffs.items() if c and F(e) <= self.cutoff}

    def __add__(self, other):
        cut = min(self.cutoff, other.cutoff)
        keys = set(self.coeffs) | set(other.coeffs)
        return _RefSeries({e: self.coeffs.get(e, 0) + other.coeffs.get(e, 0) for e in keys}, cut)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _RefSeries({e: c * other for e, c in self.coeffs.items()}, self.cutoff)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _RefSeries(out, min(self.cutoff, other.cutoff))

    def shift(self, e):
        return _RefSeries({k + e: c for k, c in self.coeffs.items()}, self.cutoff + e)

    def truncate(self, cutoff):
        return _RefSeries({e: c for e, c in self.coeffs.items() if e <= cutoff}, cutoff)

    def agrees_with(self, other):
        cut = min(self.cutoff, other.cutoff)
        for e in sorted(e for e in set(self.coeffs) | set(other.coeffs) if e <= cut):
            if self.coeffs.get(e, 0) != other.coeffs.get(e, 0):
                return False, e
        return True, None


# a few lattices, so terms collide; cutoffs on and off them
_EXPONENT = st.builds(F, st.integers(-12, 40), st.sampled_from([1, 2, 3, 8, 24]))
_CUTOFF = st.builds(F, st.integers(-3, 30), st.sampled_from([1, 2, 5, 7]))
_COEFF = st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=3))
_TERMS = st.dictionaries(_EXPONENT, _COEFF, max_size=8)


def _pair(terms, cutoff):
    return QSeries(terms, cutoff), _RefSeries(terms, cutoff)


def _same(series, ref):
    assert series.coeffs == ref.coeffs and series.cutoff == ref.cutoff
    assert len(series.coeffs) == len(series.terms)


class TestQSeriesAgainstFractions:
    @settings(max_examples=60, deadline=None)
    @given(_TERMS, _CUTOFF, _TERMS, _CUTOFF)
    def test_sum_and_product(self, t1, c1, t2, c2):
        (a, ra), (b, rb) = _pair(t1, c1), _pair(t2, c2)
        _same(a + b, ra + rb)
        _same(a - b, ra + rb * -1)
        _same(a * b, ra * rb)

    @settings(max_examples=60, deadline=None)
    @given(_TERMS, _CUTOFF, _COEFF)
    def test_scalar_product(self, t, c, k):
        a, ra = _pair(t, c)
        _same(a * k, ra * F(k))
        _same(k * a, ra * F(k))

    @settings(max_examples=60, deadline=None)
    @given(_TERMS, _CUTOFF, _EXPONENT, _CUTOFF)
    def test_shift_and_truncate(self, t, c, e, cut):
        a, ra = _pair(t, c)
        _same(a.shift(e), ra.shift(e))
        _same(a.truncate(cut), ra.truncate(cut))
        _same(a.shift(e).truncate(cut), ra.shift(e).truncate(cut))

    @settings(max_examples=60, deadline=None)
    @given(_TERMS, _CUTOFF, _TERMS, _CUTOFF, _EXPONENT)
    def test_agrees_with(self, t1, c1, t2, c2, e):
        (a, ra), (b, rb) = _pair(t1, c1), _pair(t2, c2)
        assert a.agrees_with(b) == ra.agrees_with(rb)
        # the same series on a finer lattice
        assert a.agrees_with(a.shift(e).shift(-e)) == (True, None)
        assert (a + b).agrees_with(b + a) == (True, None)

    def test_character_arithmetic_stays_on_ints(self):
        series = [graded_dimension(m, 8) for m in (M("M+"), "Mtheta", M("M(s=7/3)"))]
        series += [char_virasoro_c1(F(1), 8) * F(2), eta_inverse(8).shift(F(1, 16))]
        for s in series + [series[0] * series[1] - series[2]]:
            assert s.terms and all(type(c) is int for c in s.terms.values())
            assert all(type(k) is int for k in s.terms)

    def test_json_and_text_build_the_fractions(self):
        a = QSeries({F(-1, 24): 1, F(3, 2): F(5), F(0): F(-1, 3)}, 8)
        assert a.to_json() == [["-1/24", "1"], ["0", "-1/3"], ["3/2", "5"]]
        assert str(a) == "1 q^{-1/24} + -1/3 + 5 q^{3/2}"
        assert str(QSeries.zero(3)) == "0"


class TestEta:
    def test_partition_numbers(self):
        inv = eta_inverse(12)
        off = -F(1, 24)
        assert inv.coeffs.get(off + 4, 0) == 5
        assert inv.coeffs.get(off + 10, 0) == 42

    def test_eta_times_inverse_is_one(self):
        cutoff = F(10)
        inv = eta_inverse(cutoff)
        # eta = q^{1/24} prod (1 - q^k)
        eta = QSeries({F(0): F(1)}, cutoff + 1)
        k = 1
        while k <= cutoff + 1:
            eta = eta * QSeries({F(0): F(1), F(k): F(-1)}, cutoff + 1)
            k += 1
        eta = eta.shift(F(1, 24))
        prod = (eta * inv).truncate(cutoff)
        assert prod == QSeries.one(cutoff)


class TestVirasoroCharacters:
    def test_generic_weight(self):
        ch = char_virasoro_c1(F(1, 6), 6)
        inv = eta_inverse(6)
        assert ch == inv.shift(F(1, 6)).truncate(6)

    def test_quarter_square_weight_subtracts(self):
        ch = char_virasoro_c1(F(1), 8)
        inv = eta_inverse(9)
        want = (inv.shift(F(1)) - inv.shift(F(4))).truncate(8)
        assert ch == want

    def test_vacuum_graded_dims(self):
        # L(1,0): dims 1,0,1,1,2,2 at weights 0..5
        ch = char_virasoro_c1(F(0), 6)
        off = -F(1, 24)
        dims = [ch.coeffs.get(off + n, 0) for n in range(6)]
        assert dims == [1, 0, 1, 1, 2, 2]


class TestModuleCharacters:
    def test_even_module_dims(self):
        gd = graded_dimension(M("M+"), 6)
        off = -F(1, 24)
        assert [gd.coeffs.get(off + n, 0) for n in range(5)] == [1, 0, 1, 1, 3]

    def test_full_twisted_dims(self):
        gd = graded_dimension("Mtheta", 4)
        off = F(1, 16) - F(1, 24)
        assert [gd.coeffs.get(off + F(k, 2), 0) for k in range(4)] == [1, 1, 1, 2]

    def test_decompositions(self):
        for mod in map(M, ["M+", "M-", "Mtheta+", "Mtheta-", "M(s=1/3)", "M(s=2)"]):
            parts = decomposition_weights(mod, 21)
            ok, report = verify_decomposition(mod, parts, 20)
            assert ok, (mod, report)

    def test_decomposition_weights_forms(self):
        assert decomposition_weights(M("M+"), 20) == [(F(0), 1), (F(4), 1), (F(16), 1)]
        assert decomposition_weights(M("M-"), 10) == [(F(1), 1), (F(9), 1)]
        assert decomposition_weights(M("Mtheta+"), 4)[:2] == [
            (F(1, 16), 1),
            (F(49, 16), 1),
        ]
        assert decomposition_weights(M("Mtheta-"), 4)[:2] == [
            (F(9, 16), 1),
            (F(25, 16), 1),
        ]
        assert decomposition_weights(M("M(s=1/3)"), 10) == [(F(1, 6), 1)]
        assert decomposition_weights(M("M(s=2)"), 10) == [
            (F(1), 1),
            (F(4), 1),
            (F(9), 1),
        ]

    def test_degenerate_weight_beyond_float_range(self):
        # s = n^2/2 gives the degenerate weight n^2/4, whose singular
        # submodule starts at (n+2)^2/4
        n = 3**70 + 12345
        h2 = F((n + 2) ** 2, 4)
        assert decomposition_weights(ModuleLabel("Mlam", F(n * n, 2)), h2) == [
            (F(n * n, 4), 1),
            (h2, 1),
        ]

    def test_partition_counts_match_enumeration(self):
        for mod in ["M+", "M-", "M(s=2)", "Mtheta+", "Mtheta-", "Mtheta"]:
            if mod == "Mtheta":
                sector, parity = Sector.twisted_sector(), None
            else:
                label = ModuleLabel.parse(mod)
                sector, parity = label.sector(), label.parity()
            counts = _partition_counts(sector.twisted, 20, parity)
            assert len(counts) == 21
            for j, c in enumerate(counts):
                assert c == len(basis_at_degree(sector, F(j, 2), parity)), (mod, j)

    def test_mismatch_reported(self):
        ok, report = verify_decomposition(M("M+"), [(F(0), 1)], 6)
        assert not ok
        assert "exponent" in report

    def test_characters_distinct(self):
        names = [M(m) for m in ["M+", "M-", "Mtheta+", "Mtheta-", "M(s=1/3)"]]
        chars = {m: graded_dimension(m, 10) for m in names}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                assert not chars[a].agrees_with(chars[b])[0], (a, b)


def _reference_decomposition_weights(module, hmax):
    """decomposition_weights as one loop per module family."""
    if isinstance(module, str):
        module = ModuleLabel.parse(module)
    hmax = F(hmax)
    out = []

    def emit(h):
        if h <= hmax:
            out.append((h, 1))

    p = 0
    if module.kind == "M+":
        while F(4 * p * p) <= hmax:
            emit(F(4 * p * p))
            p += 1
    elif module.kind == "M-":
        while F((2 * p + 1) ** 2) <= hmax:
            emit(F((2 * p + 1) ** 2))
            p += 1
    elif module.kind == "Mtheta+":
        while F((8 * p + 1) ** 2, 16) <= hmax:
            emit(F((8 * p + 1) ** 2, 16))
            emit(F((8 * p + 7) ** 2, 16))
            p += 1
    elif module.kind == "Mtheta-":
        while F((8 * p + 3) ** 2, 16) <= hmax:
            emit(F((8 * p + 3) ** 2, 16))
            emit(F((8 * p + 5) ** 2, 16))
            p += 1
    else:
        h = module.s / 2
        n = quarter_square_index(h)
        if n is None:
            emit(h)
        else:
            while F((n + 2 * p) ** 2, 4) <= hmax:
                emit(F((n + 2 * p) ** 2, 4))
                p += 1
    return sorted(out)


class TestDecompositionTable:
    LABELS = (
        [ModuleLabel(k) for k in ("M+", "M-", "Mtheta+", "Mtheta-")]
        + [ModuleLabel("Mlam", F(n * n, 2)) for n in range(1, 13)]
        + [ModuleLabel("Mlam", s) for s in (F(1, 3), F(1), F(3, 2), F(8, 3), F(7))]
    )

    @pytest.mark.parametrize("label", LABELS, ids=str)
    def test_progressions_match_the_reference_loops(self, label):
        for k in range(-1, 16 * 60 + 1):
            hmax = F(k, 16)
            assert decomposition_weights(label, hmax) == _reference_decomposition_weights(
                label, hmax
            ), hmax


class TestIdentities:
    def test_jacobi_triple_product(self):
        assert jacobi_triple_check(20)

    def test_twisted_double_identity(self):
        assert twisted_character_identity(20)
