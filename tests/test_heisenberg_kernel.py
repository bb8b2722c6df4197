"""The integer Heisenberg kernel against the Scalar routes it replaced.

`virasoro.L` and `FockVector.apply_mode` work on the integers of the
coefficients and build each output Scalar once.  The
references below are the earlier routes, which multiply Scalars at every
mode: they are checked on random vectors in Q, in Q(sqrt(s)) for
non-square and square s (zero divisors), with a nilpotent lam (s = 0), and
in the twisted sector with rational and with Q(sqrt(s)) coefficients.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf.fock import FockVector, Sector, double, halve, mode_term, numerators
from voaf.scalars import Scalar
from voaf.virasoro import L

UNT = Sector.untwisted(None)
TW = Sector.twisted_sector()


def _reference_mode_term(k, p, c, lam):
    """h(k/2) on the monomial c*p through Scalar products: (key, coefficient)
    or None."""
    if k < 0:
        return tuple(sorted(p + (-k,), reverse=True)), c
    if k == 0:
        c = c * lam
        return (p, c) if c else None
    mult = p.count(k)
    if not mult:
        return None
    c = c * halve(k * mult)
    if not c:
        return None
    i = p.index(k)
    return p[:i] + p[i + 1 :], c


def _reference_apply_mode(v: FockVector, n) -> FockVector:
    k = double(n)
    lam = v.sector.lam_scalar() if k == 0 else None
    res = FockVector(v.sector)
    for p, c in v.terms.items():
        t = _reference_mode_term(k, p, c, lam)
        if t is not None:
            res.terms[t[0]] = t[1]
    return res


def _reference_L(n: int, v: FockVector) -> FockVector:
    """L(n) by one pass of Scalar products over the normal-ordered pairs."""
    sector = v.sector
    par = sector.depth_parity()
    lam = None if sector.twisted else sector.lam_scalar()
    first = n + 1 if (n + 1) % 2 == par else n + 2
    diagonal = n % 2 == par and not (n == 0 and sector.s is None)
    out = {}

    def add(p, c):
        out[p] = c if p not in out else out[p] + c

    def pair(k, p, c):
        t = _reference_mode_term(k, p, c, lam)
        if t is not None:
            t = _reference_mode_term(2 * n - k, t[0], t[1], lam)
            if t is not None:
                add(*t)

    for p, c in v.terms.items():
        for k in dict.fromkeys(p):
            if k > n:
                pair(k, p, c)
        for k in range(first, 1, 2):
            pair(k, p, c)
        if diagonal:
            pair(n, p, c * Fraction(1, 2))
        if sector.twisted and n == 0:
            add(p, c * Fraction(1, 16))
    res = FockVector(sector)
    res.terms = {p: c for p, c in out.items() if c}
    return res


# ----------------------------------------------------------------------
# random vectors

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)

# (sector, modulus of the coefficients)
_FIELDS = {
    "vacuum": (UNT, None),
    "charged s=2": (Sector.untwisted(Fraction(2)), Fraction(2)),
    "charged s=1/3": (Sector.untwisted(Fraction(1, 3)), Fraction(1, 3)),
    "charged s=4 (square)": (Sector.untwisted(Fraction(4)), Fraction(4)),
    "charged s=9/4 (square)": (Sector.untwisted(Fraction(9, 4)), Fraction(9, 4)),
    "charged s=0 (nilpotent)": (Sector.untwisted(Fraction(0)), Fraction(0)),
    "twisted": (TW, None),
    "twisted over Q(sqrt 2)": (TW, Fraction(2)),
    "twisted over Q(sqrt 9)": (TW, Fraction(9)),
}


def _pair(a: Fraction, b: Fraction, mod) -> Scalar:
    """a + b*lam over the common denominator of a and b."""
    d = a.denominator * b.denominator
    return Scalar(a.numerator * b.denominator, b.numerator * a.denominator, d, mod)


def _coefficient(mod):
    if mod is None:
        return _small.map(Scalar.of)
    return st.tuples(_small, _small).map(lambda ab: _pair(*ab, mod))


def _vector(sector, mod):
    depths = st.sampled_from([1, 3, 5, 7] if sector.twisted else [2, 4, 6, 8])
    keys = st.lists(depths, max_size=5).map(lambda ks: tuple(sorted(ks, reverse=True)))
    terms = st.dictionaries(keys, _coefficient(mod).filter(bool), min_size=1, max_size=5)

    def build(ts):
        v = FockVector(sector)
        v.terms = dict(ts)
        return v

    return terms.map(build)


def _canonical(v: FockVector) -> bool:
    """No stored zero, and every coefficient in the Scalar canonical form."""
    for c in v.terms.values():
        if not c.num or not c.num[-1] or len(c.num) > (1 if c.mod is None else 2):
            return False
        if not all(type(x) is Fraction for x in c.num):
            return False
        if not all(type(x) is int for x in (c.a0, c.a1, c.d)):
            return False
        if c.d <= 0 or math.gcd(c.a0, c.a1, c.d) != 1 or (c.mod is None) != (c.a1 == 0):
            return False
    return True


@pytest.mark.parametrize("field", sorted(_FIELDS))
class TestAgainstScalarRoutes:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), n=st.integers(-6, 6))
    def test_L(self, field, data, n):
        v = data.draw(_vector(*_FIELDS[field]))
        got = L(n, v)
        assert got == _reference_L(n, v)
        assert _canonical(got)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), k=st.integers(-4, 4))
    def test_apply_mode(self, field, data, k):
        sector, mod = _FIELDS[field]
        v = data.draw(_vector(sector, mod))
        k = 2 * k + sector.depth_parity()
        got = v.apply_mode(halve(k))
        assert got == _reference_apply_mode(v, halve(k))
        assert _canonical(got)


class TestRule:
    @pytest.mark.parametrize(
        "k,p,want",
        [
            (-3, (5, 1), ((5, 3, 1), 2)),
            (0, (2, 2), ((2, 2), 2)),
            (2, (4, 2, 2), ((4, 2), 4)),
            (3, (3, 3, 3, 1), ((3, 3, 1), 9)),
            (4, (2, 2), None),
        ],
    )
    def test_integer_factor_in_halves(self, k, p, want):
        assert mode_term(k, p) == want

    def test_numerators_share_one_denominator(self):
        sec = Sector.untwisted(Fraction(2))
        v = FockVector(sec, {(1,): _pair(Fraction(1, 2), Fraction(2, 3), 2), (2,): 3})
        den, mod, nums = numerators(v)
        assert (den, mod) == (6, Fraction(2))
        assert nums == [((2,), 3, 4), ((4,), 18, 0)]
