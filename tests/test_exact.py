"""Exact scalar field, multivariate polynomials, and linear algebra."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voaf import linalg
from voaf.fock import Sector
from voaf.multipoly import VARS, MultiPoly, Point
from voaf.scalars import (
    Scalar,
    interpolate,
    rational_sqrt,
    upoly_str,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


# zero, negative, integer and large-denominator values
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.integers(-30, 30).map(Fraction),
    rationals,
    st.builds(Fraction, st.integers(-(10**25), 10**25), st.integers(1, 10**25)),
)


def _expo(nvars, max_degree):
    return st.tuples(*[st.integers(0, max_degree)] * nvars).map(
        lambda e: e + (0,) * (len(VARS) - nvars)
    )


def _multipoly(nvars, max_degree, coeffs=wide_rationals):
    return st.dictionaries(_expo(nvars, max_degree), coeffs, max_size=8).map(MultiPoly)


def _built_multipoly():
    """Polynomials in x and y from every constructor and operation: dicts,
    const, var, +, -, *, **, subs and try_divide."""
    leaves = st.one_of(
        _multipoly(2, 2, rationals),
        rationals.map(MultiPoly.const),
        st.sampled_from(["x", "y"]).map(MultiPoly.var),
    )

    def pairs(children):
        return st.tuples(children, children)

    def quotient(ab):
        a, b = ab
        return (a * b).try_divide(b) if b else a

    def extend(children):
        return st.one_of(
            pairs(children).map(lambda ab: ab[0] + ab[1]),
            pairs(children).map(lambda ab: ab[0] - ab[1]),
            pairs(children).map(lambda ab: ab[0] * ab[1]),
            st.tuples(children, st.integers(0, 3)).map(lambda pk: pk[0] ** pk[1]),
            pairs(children).map(lambda ab: ab[0].subs({"x": ab[1]})),
            pairs(children).map(quotient),
        )

    return st.recursive(leaves, extend, max_leaves=5)


def _xy_point():
    """A rational point, or one with x in Q(sqrt(2))."""
    return st.one_of(
        st.fixed_dictionaries({"x": wide_rationals, "y": wide_rationals}),
        st.fixed_dictionaries({"x": _scalar(Fraction(2)), "y": rationals}),
    )


@st.composite
def _kernel_case(draw):
    """A polynomial using exactly 1, 2, 3 or all 6 of VARS (one term has
    every chosen variable), a rational point, and the same point with some
    chosen variables in Q(sqrt(2)) instead."""
    k = draw(st.sampled_from([1, 2, 3, len(VARS)]))
    chosen = draw(st.permutations(range(len(VARS))))[:k]
    max_degree = 4 if k <= 3 else 2

    def expo(degrees):
        e = [0] * len(VARS)
        for i, d in zip(chosen, degrees):
            e[i] = d
        return tuple(e)

    degrees = st.lists(st.integers(0, max_degree), min_size=k, max_size=k)
    terms = draw(st.dictionaries(degrees.map(expo), wide_rationals, max_size=7))
    full = expo(draw(st.lists(st.integers(1, max_degree), min_size=k, max_size=k)))
    terms[full] = draw(wide_rationals.filter(bool))
    point = draw(st.fixed_dictionaries({v: wide_rationals for v in VARS}))
    surds = draw(st.lists(st.sampled_from(chosen), max_size=2))
    mixed = dict(point, **{VARS[i]: draw(_scalar(Fraction(2))) for i in surds})
    return k, MultiPoly(terms), point, mixed


def _fractions(p: MultiPoly):
    """The coefficients of p as a {exponents: Fraction} dict."""
    return {e: Fraction(n, p.den) for e, n in p.num.items()}


def _evaluate_reference(p: MultiPoly, assign):
    """MultiPoly.evaluate as a term-by-term loop: each power of each value
    is rebuilt by repeated multiplication."""
    acc = None
    for e, c in sorted(_fractions(p).items()):
        term = c
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * assign[VARS[i]]
        acc = term if acc is None else acc + term
    return Fraction(0) if acc is None else acc


def _dict_clean(a):
    return {e: c for e, c in a.items() if c}


def _dict_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _dict_clean(out)


def _dict_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _dict_clean(out)


def _dict_subs(a, assign):
    """subs on {exponents: Fraction} dicts, term by term, each power of each
    value (a MultiPoly or a rational) rebuilt by repeated products."""
    one = (0,) * len(VARS)
    full = {v: {tuple(int(w == v) for w in VARS): Fraction(1)} for v in VARS}
    for v, q in assign.items():
        full[v] = _fractions(q) if isinstance(q, MultiPoly) else _dict_clean({one: Fraction(q)})
    out = {}
    for e, c in a.items():
        term = {one: c}
        for i, k in enumerate(e):
            for _ in range(k):
                term = _dict_mul(term, full[VARS[i]])
        out = _dict_add(out, term)
    return out


def _dict_divide(a, b):
    """Long division over Q in the order (total degree, exponents): the
    quotient when it is exact, else None."""
    order = lambda e: (sum(e), e)  # noqa: E731
    lead = max(b, key=order)
    rem, quot = dict(a), {}
    while rem:
        e = max(rem, key=order)
        diff = tuple(x - y for x, y in zip(e, lead))
        if min(diff) < 0:
            return None
        quot[diff] = rem[e] / b[lead]
        rem = _dict_add(rem, _dict_mul({diff: quot[diff]}, b), -1)
    return quot


def _dict_ratio(a, b):
    if not b:
        return Fraction(0) if not a else None
    if a.keys() != b.keys():
        return None
    ratios = {a[e] / b[e] for e in b}
    return ratios.pop() if len(ratios) == 1 else None


def _dict_str(a):
    """The text of a polynomial from its Fraction coefficients."""
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items(), key=lambda t: (-sum(t[0]), tuple(-k for k in t[0]))):
        mono = " ".join(v if k == 1 else "%s^%d" % (v, k) for v, k in zip(VARS, e) if k)
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(mono if c == 1 else "-" + mono)
        else:
            parts.append("%s %s" % (c, mono))
    return " + ".join(parts).replace("+ -", "- ")


def _canonical_poly(p: MultiPoly) -> MultiPoly:
    """Assert the canonical form: int den > 0, nonzero int numerators on
    exponent tuples of VARS, and gcd(den, numerators) = 1."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.num.values())
    assert all(len(e) == len(VARS) and min(e) >= 0 for e in p.num)
    assert math.gcd(p.den, *p.num.values()) == 1
    return p


def _same_poly(p: MultiPoly, ref) -> bool:
    return _fractions(_canonical_poly(p)) == _dict_clean(ref)


# coefficients as they enter: ints and Fractions, whose numerator and
# denominator may be near 10^25
_coefficient_inputs = st.one_of(
    wide_rationals,
    st.integers(-(10**25), 10**25),
    st.builds(
        Fraction,
        st.integers(-(10**25), 10**25),
        st.one_of(st.integers(-12, 12), st.integers(-(10**25), 10**25)).filter(bool),
    ),
)


@st.composite
def _related_pair(draw):
    """Two polynomials in x and y, the second often built from the first so
    that sums and differences cancel, down to the zero polynomial."""
    a = draw(_multipoly(2, 2))
    c = draw(wide_rationals)
    b = draw(
        st.one_of(
            _multipoly(2, 2),
            st.just(a),
            st.just(-a),
            st.just(MultiPoly()),
            _multipoly(2, 2).map(lambda r: r - a * c),
        )
    )
    return a, b


def _scalar(mod):
    return st.tuples(rationals, rationals).map(
        lambda ab: Scalar.of(ab[0]) + Scalar.lam(mod) * Scalar.of(ab[1])
    )


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += sign * y
    return out


def _trimmed(cs):
    """The coefficients as a tuple of Fractions without trailing zeros."""
    cs = [Fraction(c) for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _fold(p, mod):
    """The polynomial p in lam reduced modulo lam**2 - mod, as [c0, c1]."""
    out = [Fraction(0), Fraction(0)]
    for k, c in enumerate(p):
        out[k % 2] += c * mod ** (k // 2)
    return out


def _normalising_route(num, den, mod):
    """num/den for polynomials num and den in lam, by the polynomial route
    the package once took: fold both modulo lam**2 - mod, rationalise the
    denominator by its conjugate, divide out the constant that is left.
    Returns the canonical coefficients (c0, c1) of c0 + c1*lam, trailing
    zeros trimmed.  Without a modulus both must be constants."""
    if mod is None:
        num, den = _trimmed(num), _trimmed(den)
        if len(num) > 1 or len(den) > 1:
            raise ValueError("a polynomial in lam needs a modulus")
    else:
        num, den = _fold(num, mod), _fold(den, mod)
        # 1/(a + b*lam) = (a - b*lam)/(a^2 - b^2*mod)
        conj = (den[0], -den[1])
        num, den = _fold(_ref_mul(num, conj), mod), _fold(_ref_mul(den, conj), mod)
        num, den = _trimmed(num), _trimmed(den)
    if not den:
        raise ZeroDivisionError("the denominator vanishes modulo lam^2 - %s" % mod)
    return tuple(c / den[0] for c in num)


def _reference(op, a, b):
    """a op b by the normalising route on unreduced num/den: (coefficients,
    modulus).  The operands share their modulus, if they have any."""
    mod = b.mod if a.mod is None else a.mod
    if op == "+":
        num, den = _ref_add(_ref_mul(a.num, b.den), _ref_mul(b.num, a.den)), None
    elif op == "-":
        num, den = _ref_add(_ref_mul(a.num, b.den), _ref_mul(b.num, a.den), -1), None
    elif op == "*":
        num, den = _ref_mul(a.num, b.num), _ref_mul(a.den, b.den)
    else:
        if not b.num:
            raise ZeroDivisionError("scalar division by zero")
        num, den = _ref_mul(a.num, b.den), _ref_mul(a.den, b.num)
    if den is None:
        den = _ref_mul(a.den, b.den)
    return _canonical_ref(_normalising_route(num, den, mod), mod)


def _canonical_ref(num, mod):
    """(coefficients, modulus) of a reference value: a rational drops the
    modulus."""
    return num, (mod if len(num) > 1 else None)


def _build(cs, mod=None):
    """The Scalar c0 + c1*lam for rationals (c0[, c1]), by the constructor."""
    c0, c1 = (Fraction(c) for c in tuple(cs) + (0,) * (2 - len(cs)))
    d = c0.denominator * c1.denominator
    return Scalar(c0.numerator * c1.denominator, c1.numerator * c0.denominator, d, mod)


_OPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}

small = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _in_sqrt(mod):
    """Elements of Q(sqrt(mod)); for a rational square mod they include the
    zero divisors c*(r +- lam) with r**2 == mod."""
    generic = st.tuples(small, small).map(lambda ab: _build(ab, mod))
    r = rational_sqrt(mod)
    if r is None:
        return generic
    divisors = st.tuples(small, st.sampled_from([1, -1])).map(
        lambda cs: _build((cs[0] * r, cs[0] * cs[1]), mod)
    )
    return st.one_of(generic, divisors)


_FIELDS = {
    "Q": st.tuples(small).map(_build),
    "Q(sqrt 3)": _in_sqrt(Fraction(3)),
    "Q(sqrt 4)": _in_sqrt(Fraction(4)),
    "Q(sqrt 9/4)": _in_sqrt(Fraction(9, 4)),
}


@st.composite
def _operand_pair(draw):
    field = draw(st.sampled_from(sorted(_FIELDS)))
    a, b = draw(_FIELDS[field]), draw(_FIELDS[field])
    # a rational with no modulus combines with every field
    mix = draw(st.sampled_from(["same", "left", "right"]))
    if mix == "left":
        a = _build((draw(small),))
    elif mix == "right":
        b = _build((draw(small),))
    return a, b


def _canonical(sc):
    """The canonical form: int a0, a1 and d, d > 0, gcd 1, and a Fraction
    modulus exactly when a1 != 0."""
    assert all(type(x) is int for x in (sc.a0, sc.a1, sc.d))
    assert sc.d > 0 and math.gcd(sc.a0, sc.a1, sc.d) == 1
    assert (sc.mod is None) == (sc.a1 == 0)
    assert sc.mod is None or type(sc.mod) is Fraction


def _same(got, ref):
    """`got` is the reference value (coefficients, modulus) in canonical form."""
    num, mod = ref
    assert (got.num, got.den, got.mod, str(got)) == (num, (1,), mod, upoly_str(num, "lam"))
    assert all(type(c) is Fraction for c in got.num + got.den)
    _canonical(got)


class TestScalarArithmetic:
    """The integer arithmetic against the normalising polynomial route."""

    @given(_operand_pair(), st.sampled_from(sorted(_OPS)))
    @settings(max_examples=150, deadline=None)
    def test_matches_normalising_route(self, pair, op):
        a, b = pair
        _canonical(a)
        _canonical(b)
        assert (a == b) is (_reference("-", a, b)[0] == ())
        try:
            ref = _reference(op, a, b)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                _OPS[op](a, b)
            return
        _same(_OPS[op](a, b), ref)

    @given(st.sampled_from(sorted(_FIELDS)).flatmap(lambda f: _FIELDS[f]), small,
           st.sampled_from(sorted(_OPS)))
    @settings(max_examples=50, deadline=None)
    def test_int_and_fraction_operands(self, a, x, op):
        for plain in (x, int(x)):
            xs = Scalar.of(plain)
            for left, right, ref_args in ((a, plain, (a, xs)), (plain, a, (xs, a))):
                try:
                    ref = _reference(op, *ref_args)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        _OPS[op](left, right)
                    continue
                _same(_OPS[op](left, right), ref)

    @given(st.sampled_from(sorted(_FIELDS)).flatmap(lambda f: _FIELDS[f]))
    @settings(max_examples=30, deadline=None)
    def test_negation(self, a):
        _same(-a, (tuple(-c for c in a.num), a.mod))

    @pytest.mark.parametrize("mod", [Fraction(4), Fraction(9, 4)])
    def test_division_by_zero_divisor_raises(self, mod):
        r = rational_sqrt(mod)
        lam = Scalar.lam(mod)
        for divisor in (lam - r, lam + r, (lam + r) * Fraction(-3, 2)):
            for a in (Scalar.one(), Scalar.zero(), lam, Scalar.of(5)):
                with pytest.raises(ZeroDivisionError):
                    a / divisor
        with pytest.raises(ZeroDivisionError):
            lam / Scalar.zero()

    @pytest.mark.parametrize("mod", [Fraction(2), Fraction(4)])
    def test_denominator_vanishing_modulo_relation_raises(self, mod):
        # lam^2 - mod and lam^2 - lam^4/mod vanish; so does a zero d
        lam = Scalar.lam(mod)
        for num, den in (((1,), (-mod, 0, 1)), ((1, 1), (0, 0, 1, 0, -1 / mod))):
            with pytest.raises(ZeroDivisionError):
                _normalising_route(num, den, mod)
        with pytest.raises(ZeroDivisionError):
            Scalar.one() / (lam * lam - mod)
        with pytest.raises(ZeroDivisionError):
            (1 + lam) / (lam**2 - lam**4 / mod)
        with pytest.raises(ZeroDivisionError):
            Scalar(1, 1, 0, mod)

    def test_equal_numerators_over_different_denominators(self):
        mod = Fraction(3)
        lam, one = Scalar.lam(mod), Scalar.one()
        one_over = [one / den for den in (one, 1 + lam, 2 + lam, lam)]
        for i, a in enumerate(one_over):
            for j, b in enumerate(one_over):
                assert (a == b) is (i == j)

    @given(_FIELDS["Q(sqrt 3)"], st.sampled_from(["Q(sqrt 4)", "Q(sqrt 9/4)"]),
           st.data())
    @settings(max_examples=30, deadline=None)
    def test_mismatched_moduli_are_unequal(self, a, other, data):
        b = data.draw(_FIELDS[other])
        if a.is_rational() or b.is_rational():
            return
        assert not a == b and a != b
        assert not b == a and b != a
        for op in _OPS.values():
            with pytest.raises(ValueError):
                op(a, b)

    @given(st.sampled_from(sorted(_FIELDS)).flatmap(lambda f: _FIELDS[f]),
           small.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_equal_implies_equal_hash(self, a, c):
        rat = Scalar.of(c)
        candidates = [
            a * 1,
            Scalar(a.a0, a.a1, a.d, a.mod),
            Scalar(-3 * a.a0, -3 * a.a1, -3 * a.d, a.mod),
            (a + rat) - rat,
            (a * rat) / rat,
        ]
        if a.mod is not None:
            # 1 + lam is a unit in every extension drawn here
            quotient = _normalising_route(_ref_mul(a.num, (1, 1)), (1, 1), a.mod)
            candidates.append(_build(quotient, a.mod))
        if a.is_rational():
            q = a.as_rat()
            # a rational built with any modulus drops it
            candidates += [q] + [Scalar(q.numerator, 0, q.denominator, s) for s in (3, 4)]
            if q.denominator == 1:
                candidates.append(int(q))
        for b in candidates:
            assert a == b and b == a, b
            assert hash(a) == hash(b), b


class TestScalar:
    def test_rational_round_trip(self):
        assert Scalar.of(Fraction(3, 7)).as_rat() == Fraction(3, 7)
        lam = Scalar.lam(Fraction(2))
        assert Scalar.of(lam) is lam

    def test_lam_square_reduces(self):
        lam = Scalar.lam(Fraction(2))
        assert (lam * lam).as_rat() == 2

    def test_free_lam_has_no_square_reduction(self):
        """There is no free lam: without a modulus lam itself and any
        lam-part are errors, and the denominator divides out."""
        with pytest.raises(ValueError):
            Scalar.lam(None)
        with pytest.raises(ValueError):
            Scalar(0, 1, 1, None)
        with pytest.raises(ValueError):
            Scalar(1, 2, 2, None)
        sc = Scalar(3, 0, 6, None)
        assert (sc.num, sc.den, sc.mod) == ((Fraction(1, 2),), (1,), None)

    @given(_scalar(Fraction(3)), _scalar(Fraction(3)), _scalar(Fraction(3)))
    @settings(max_examples=60, deadline=None)
    def test_field_axioms_quadratic_extension(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        if not a.is_zero():
            assert (a / a).as_rat() == 1
            assert (b / a) * a == b

    @given(_scalar(Fraction(5, 3)))
    @settings(max_examples=40, deadline=None)
    def test_additive_inverse(self, a):
        assert (a - a).is_zero()

    def test_division_by_zero_divisor_raises(self):
        # lam^2 = 4 makes lam - 2 a zero divisor
        with pytest.raises(ZeroDivisionError):
            Scalar.one() / (Scalar.lam(Fraction(4)) - Scalar.of(2))

    @given(st.sampled_from([None, Fraction(3), Fraction(4)]),
           st.integers(-40, 40), st.integers(-40, 40),
           st.integers(-40, 40).filter(bool), st.integers(1, 12))
    @settings(max_examples=80, deadline=None)
    def test_constant_denominator_matches_gcd_route(self, mod, a0, a1, d, g):
        """Ints with a common factor g and a denominator of either sign
        reduce to the canonical form of the normalising route."""
        if mod is None:
            a1 = 0
        ref = _canonical_ref(_normalising_route((a0, a1), (d,), mod), mod)
        _same(Scalar(a0 * g, a1 * g, d * g, mod), ref)

    @given(st.lists(rationals, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interpolate_recovers_a_polynomial(self, coeffs, data):
        """Through deg + 1 or more distinct points, the polynomial itself."""
        p = _trimmed(coeffs)
        xs = data.draw(st.lists(rationals, min_size=len(p) + 1, max_size=len(p) + 3, unique=True))
        ys = [sum(c * x**k for k, c in enumerate(p)) for x in xs]
        got = interpolate(xs, ys)
        assert got == p
        assert all(type(c) is Fraction for c in got)


class TestMultiPoly:
    def test_arithmetic_and_str(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_evaluate(self):
        x, z = MultiPoly.var("x"), MultiPoly.var("z")
        p = z - x * x * 4 + x
        assert p.evaluate({"x": Fraction(1, 2), "z": Fraction(3)}) == Fraction(5, 2)

    def test_subs_polynomials(self):
        x, s = MultiPoly.var("x"), MultiPoly.var("s")
        p = x * x + 1
        q = p.subs({"x": s * Fraction(1, 2)})
        assert q == s * s * Fraction(1, 4) + 1

    def test_try_divide(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        num = (x - y) * (x + y * 2 + 3)
        assert num.try_divide(x - y) == x + y * 2 + 3
        assert num.try_divide(x + y) is None

    def test_proportionality(self):
        x = MultiPoly.var("x")
        p = x * x * 3 - x * 6
        q = x * x - x * 2
        assert p.proportionality(q) == 3
        assert p.proportionality(x * x) is None

    def test_quadratic_extension_point(self):
        # the roots alpha/2 +- lam/2 of w^2 - alpha w + beta, lam^2 = alpha^2 - 4 beta
        alpha, beta = Fraction(89, 12), Fraction(30625, 2304)
        lam = Scalar.lam(alpha * alpha - 4 * beta)
        w, cow = lam / 2 + alpha / 2, -lam / 2 + alpha / 2
        assert (w * w - w * alpha + beta).is_zero()
        assert w + cow == alpha
        assert w * cow == beta
        assert w - cow == lam

    def test_quadext_eval(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        alpha, beta = Fraction(89, 12), Fraction(30625, 2304)
        lam = Scalar.lam(alpha * alpha - 4 * beta)
        w, cow = lam / 2 + alpha / 2, -lam / 2 + alpha / 2  # conjugate roots
        assert (x * x - x * alpha + beta).evaluate({"x": w}) == 0
        assert (x * y - beta).evaluate({"x": w, "y": cow}) == 0
        assert (x + y - alpha).evaluate({"x": cow, "y": w}) == 0
        assert (x - y).evaluate({"x": w, "y": cow}) == lam

    @given(
        _multipoly(len(VARS), 4),
        st.fixed_dictionaries({v: wide_rationals for v in VARS}),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluate_matches_reference(self, p, point):
        got = p.evaluate(point)
        assert type(got) is Fraction
        assert got == _evaluate_reference(p, point)

    @pytest.mark.parametrize(
        "sector", [Sector.untwisted(Fraction(2)), Sector.untwisted(Fraction(4))], ids=str
    )
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_evaluate_scalar_point_matches_reference(self, sector, data):
        """x is a Scalar in Q(sqrt(2)) or in Q(sqrt(4)), which has zero
        divisors; y stays rational."""
        mod = sector.s
        p = data.draw(_multipoly(2, 3, rationals))
        xv = data.draw(_scalar(mod))
        point = {"x": xv, "y": data.draw(wide_rationals)}
        assert p.evaluate(point) == _evaluate_reference(p, point)

    @given(
        _multipoly(len(VARS), 2),
        st.dictionaries(
            st.sampled_from(VARS),
            st.one_of(_multipoly(3, 1), wide_rationals.map(MultiPoly.const), wide_rationals),
            max_size=4,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_subs_matches_reference(self, p, assign):
        """Constant and polynomial images, given as MultiPoly or as a bare
        rational, substituted at once."""
        assert _same_poly(p.subs(assign), _dict_subs(_fractions(p), assign))

    def test_subs_keeps_the_powers_of_an_image(self):
        """An image's powers are built once, kept on it, and extended only
        when a later polynomial has a higher degree."""
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        image = y * Fraction(1, 2) + 1
        assert (x * x).subs({"x": image}) == image * image
        kept = image._powers
        assert len(kept) == 3
        assert (x * x * x - x).subs({"x": image}) == image**3 - image
        assert image._powers is kept and len(kept) == 4
        assert (x * y).subs({"x": image}) == image * y and len(kept) == 4

    def test_subs_accepts_constants(self):
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        assert (x * x * y).subs({"x": Fraction(1, 2)}) == y * Fraction(1, 4)

    @given(_multipoly(2, 2, rationals), st.integers(0, 7))
    @settings(max_examples=50, deadline=None)
    def test_pow_matches_repeated_product(self, p, k):
        ref = {(0,) * len(VARS): Fraction(1)}
        for _ in range(k):
            ref = _dict_mul(ref, _fractions(p))
        assert _same_poly(p**k, ref)

    @pytest.mark.parametrize("k,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (8, 3)])
    def test_pow_product_count(self, k, products, monkeypatch):
        """Square-and-multiply with no product before the first bit or after
        the last: p ** 1 is p itself."""
        calls = []
        real = MultiPoly.__mul__

        def counted(a, b):
            calls.append(1)
            return real(a, b)

        p = MultiPoly.var("x") + 1
        monkeypatch.setattr(MultiPoly, "__mul__", counted)
        got = p ** k
        monkeypatch.undo()
        assert len(calls) == products
        assert _same_poly(got, _dict_subs(_fractions(MultiPoly.var("x") ** k), {"x": p}))

    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
    def test_scalar_pow_matches_repeated_product(self, k):
        a = Scalar.of(Fraction(2, 3)) + Scalar.lam(Fraction(2))
        ref = Scalar.one()
        for _ in range(abs(k)):
            ref = ref * a
        if k < 0:
            ref = Scalar.one() / ref
        assert a ** k == ref

    @given(_built_multipoly(), st.lists(_xy_point(), min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_repeated_evaluation_matches_reference(self, p, points):
        """The first evaluation builds the cleared form and later ones read
        it; every result is the term-by-term value."""
        for point in points:
            assert p.evaluate(point) == _evaluate_reference(p, point)
        form = p._cleared
        p.evaluate(points[0])
        assert p._cleared is form

    @given(_kernel_case())
    @settings(max_examples=150, deadline=None)
    def test_row_kernel_matches_reference(self, case):
        """The monomial vector of a support in 1, 2, 3 or 6 variables at a
        rational point, and at a point with values in Q(sqrt(2)), as a plain
        dict and as a Point that keeps its vectors."""
        k, p, rational, mixed = case
        assert sum(map(bool, p._clear()[0].degrees)) == k
        for point in (rational, mixed):
            want = _evaluate_reference(p, point)
            kept = Point(point)
            assert p.evaluate(point) == want
            assert p.evaluate(kept) == want
            assert p.evaluate(kept) == want  # from the kept vector

    def test_point_builds_each_table_once(self, monkeypatch):
        """Two polynomials with one set of monomials, built in different
        orders, share one interned support and one vector at a Point, which
        is built once; a polynomial with another set gets its own."""
        x, y = MultiPoly.var("x"), MultiPoly.var("y")
        p, q = x * x * y * y - x + 1, 7 - x * Fraction(2, 3) + x * x * y * y * 3
        r = x * y * y * 3 + x * x
        built = []
        real = Point.build_vector
        monkeypatch.setattr(Point, "build_vector", lambda pt, sup: built.append(sup) or real(pt, sup))
        point = Point({"x": Fraction(2, 3), "y": Fraction(-5, 7)})
        for poly in (p, q, r, p, q):
            assert poly.evaluate(point) == _evaluate_reference(poly, point)
        (support, _, _), (same, _, _) = p._cleared, q._cleared
        assert support is same and support.degrees == (2, 2, 0, 0, 0, 0)
        assert r._cleared[0] is not support
        assert built == [support, r._cleared[0]]
        assert len(point._vectors) == 2

    def test_supports_in_other_variables_do_not_collide(self):
        """x^2 y and x^2 z have one shape of exponents in different
        variables: two supports, and at one Point two vectors."""
        x, y, z = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("z")
        p, q = x * x * y, x * x * z
        point = Point({"x": Fraction(3), "y": Fraction(5), "z": Fraction(7)})
        assert (p.evaluate(point), q.evaluate(point)) == (45, 63)
        assert p._cleared[0] is not q._cleared[0]
        assert len(point._vectors) == 2

    @given(_multipoly(2, 3, rationals).filter(bool), _scalar(Fraction(2)), rationals)
    @settings(max_examples=40, deadline=None)
    def test_shared_vector_at_a_scalar_point_matches_reference(self, p, xv, yv):
        """p and -2/5 p share a support; at a Point with x in Q(sqrt(2)) they
        share its vector, and both match the term-by-term value."""
        q = p * Fraction(-2, 5)
        point = Point({"x": xv, "y": yv})
        for poly in (p, q):
            assert poly.evaluate(point) == _evaluate_reference(poly, point)
        assert p._cleared[0] is q._cleared[0]
        assert len(point._vectors) == 1

    def test_values_are_immutable(self):
        p = MultiPoly.var("x") + 1
        with pytest.raises(AttributeError):
            p.num = {}
        p.evaluate({"x": Fraction(2)})
        with pytest.raises(AttributeError):
            p._cleared = None

    def test_evaluate_zero_polynomial(self):
        got = MultiPoly().evaluate({})
        assert type(got) is Fraction and got == 0

    def test_evaluate_unassigned_variable_raises(self):
        p = MultiPoly.var("x") + MultiPoly.var("z")
        with pytest.raises(ValueError, match="unassigned"):
            p.evaluate({"x": Fraction(1)})

    def test_evaluate_ignores_extra_variables(self):
        p = MultiPoly.var("x") * 2 + 1
        assert p.evaluate({"x": Fraction(1, 2), "u": object()}) == 2


class TestMultiPolyReference:
    """Each operation on integer numerators over one denominator matches the
    same operation on {exponents: Fraction} dicts, and every result is in
    canonical form."""

    @given(st.dictionaries(_expo(2, 2), _coefficient_inputs, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_constructor_matches_reference(self, terms):
        ref = {e: Fraction(c) for e, c in terms.items()}
        assert _same_poly(MultiPoly(terms), ref)

    @given(_coefficient_inputs)
    @settings(max_examples=60, deadline=None)
    def test_const_matches_reference(self, c):
        assert _same_poly(MultiPoly.const(c), {(0,) * len(VARS): Fraction(c)})

    @given(_multipoly(len(VARS), 3))
    @settings(max_examples=60, deadline=None)
    def test_data_form_round_trips_through_json(self, p):
        data = json.loads(json.dumps(p.to_data()))
        assert data == [p.den, sorted([list(e), n] for e, n in p.num.items())]
        assert MultiPoly.from_data(data) == p

    @pytest.mark.parametrize(
        "data",
        [
            [0, [[[1, 0, 0, 0, 0, 0], 1]]],
            [2.0, [[[1, 0, 0, 0, 0, 0], 1]]],
            [1, [[[1, 0, 0], 1]]],
            [1, [[[-1, 0, 0, 0, 0, 0], 1]]],
            [1, [[[1, 0, 0, 0, 0, 0], 0]]],
            [1, [[[1, 0, 0, 0, 0, 0], 1.5]]],
            [1, [[[1, 0, 0, 0, 0, 0], 1], [[1, 0, 0, 0, 0, 0], 2]]],
        ],
        ids=["zero-den", "float-den", "short-exponents", "negative-exponent", "zero-term",
             "float-term", "repeated-exponents"],
    )
    def test_malformed_data_form_is_refused(self, data):
        with pytest.raises(ValueError):
            MultiPoly.from_data(data)

    def test_zero_polynomial_is_canonical(self):
        x = MultiPoly.var("x")
        zeros = [
            MultiPoly(),
            MultiPoly.const(0),
            MultiPoly({(1,) + (0,) * 5: 0}),
            x - x,
            (x * Fraction(1, 10**25)) * 0,
            x.subs({"x": 0}),
        ]
        for zero in zeros:
            assert _canonical_poly(zero).num == {} and zero.den == 1
            assert zero == 0 and hash(zero) == hash(MultiPoly()) and str(zero) == "0"

    @given(_related_pair(), wide_rationals)
    @settings(max_examples=120, deadline=None)
    def test_ring_operations_match_reference(self, ab, c):
        a, b = ab
        fa, fb, fc = _fractions(a), _fractions(b), {(0,) * len(VARS): c}
        assert _same_poly(a + b, _dict_add(fa, fb))
        assert _same_poly(a - b, _dict_add(fa, fb, -1))
        assert _same_poly(-a, _dict_add({}, fa, -1))
        assert _same_poly(a * b, _dict_mul(fa, fb))
        assert _same_poly(a + c, _dict_add(fa, fc))
        assert _same_poly(c - a, _dict_add(fc, fa, -1))
        assert _same_poly(a * c, _dict_mul(fa, fc))
        assert _same_poly(c * b, _dict_mul(fc, fb))
        assert _same_poly(a * b - b * a, {})

    @given(_multipoly(2, 2), _multipoly(2, 2).filter(bool), _multipoly(2, 2))
    @settings(max_examples=100, deadline=None)
    def test_try_divide_matches_reference(self, q, b, a):
        """An exact quotient is found, and an arbitrary division agrees with
        long division on Fractions, None included."""
        assert _same_poly((q * b).try_divide(b), _fractions(q))
        got, ref = a.try_divide(b), _dict_divide(_fractions(a), _fractions(b))
        assert (got is None) == (ref is None)
        if ref is not None:
            assert _same_poly(got, ref)

    def test_try_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            MultiPoly.var("x").try_divide(MultiPoly())

    @given(_related_pair(), wide_rationals)
    @settings(max_examples=100, deadline=None)
    def test_proportionality_matches_reference(self, ab, c):
        a, b = ab
        for p, q in ((a, b), (a * c, a), (a, a * c)):
            assert p.proportionality(q) == _dict_ratio(_fractions(p), _fractions(q))

    @given(_related_pair(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_eq_hash_and_str_match_reference(self, ab, rnd):
        """Polynomials are equal exactly when their Fraction coefficients
        are, whatever the order of their terms, with equal hashes; the text
        is that of the Fraction coefficients."""
        a, b = ab
        fa = _fractions(a)
        items = list(fa.items())
        rnd.shuffle(items)
        again = MultiPoly(dict(items))
        assert again == a and hash(again) == hash(a)
        assert (a == b) == (fa == _fractions(b))
        assert str(a) == _dict_str(fa) and str(b) == _dict_str(_fractions(b))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: MultiPoly({(0,) * len(VARS): 0.1}),
            lambda: MultiPoly.const(0.5),
            lambda: MultiPoly.var("x") * 0.5,
            lambda: MultiPoly.var("x") + 0.5,
            lambda: MultiPoly.var("x").subs({"x": 0.5}),
            lambda: MultiPoly.var("x").evaluate({"x": 0.5}),
            lambda: Scalar.of(0.5),
        ],
        ids=["dict", "const", "mul", "add", "subs", "evaluate", "scalar"],
    )
    def test_no_float_enters(self, make):
        with pytest.raises(TypeError) as info:
            make()
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("c", ["1/2", "3"])
    def test_no_string_coefficient(self, c):
        with pytest.raises(TypeError):
            MultiPoly({(1,) + (0,) * 5: c})
        with pytest.raises(TypeError):
            MultiPoly.const(c)


class TestLinalg:
    def _F(self, x):
        return Scalar.of(Fraction(x))

    def test_solve(self):
        zero, one = Scalar.zero(), Scalar.one()
        rows = [[self._F(1), self._F(2)], [self._F(3), self._F(4)]]
        rhs = [self._F(5), self._F(11)]
        sol = linalg.solve(rows, rhs, zero, one)
        assert [c.as_rat() for c in sol] == [1, 2]

    def test_solve_inconsistent(self):
        zero, one = Scalar.zero(), Scalar.one()
        rows = [[self._F(1)], [self._F(2)]]
        rhs = [self._F(1), self._F(3)]
        with pytest.raises(linalg.InconsistentSystem):
            linalg.solve(rows, rhs, zero, one)

    def test_rank(self):
        one = Scalar.one()
        rows = [
            [self._F(1), self._F(2), self._F(3)],
            [self._F(2), self._F(4), self._F(6)],
            [self._F(0), self._F(1), self._F(0)],
        ]
        assert linalg.rank(rows, one) == 2

    def test_nullspace(self):
        zero, one = Scalar.zero(), Scalar.one()
        rows = [[self._F(1), self._F(1), self._F(0)]]
        basis = linalg.nullspace(rows, 3, zero, one)
        assert len(basis) == 2
        for vec in basis:
            dot = sum((rows[0][j] * vec[j] for j in range(3)), zero)
            assert dot.is_zero()

    def test_empty_matrix(self):
        zero, one = Fraction(0), Fraction(1)
        assert linalg.rank([], one) == 0
        assert linalg.solve([], [], zero, one) == []
        assert linalg.nullspace([], 2, zero, one) == [[one, zero], [zero, one]]

    def test_more_columns_than_rows(self):
        zero, one = Fraction(0), Fraction(1)
        rows = [[Fraction(v) for v in r] for r in ([1, 2, 3, 4], [2, 4, 7, 9])]
        assert linalg.rank(rows, one) == 2
        # pivots in columns 0 and 2; free columns 1 and 3, in that order
        assert linalg.nullspace(rows, 4, zero, one) == [[-2, 1, 0, 0], [-1, 0, -1, 1]]
        assert linalg.solve(rows, [Fraction(1), Fraction(3)], zero, one) == [-2, 0, 1, 0]


class TestRationalSqrt:
    def test_zero(self):
        assert rational_sqrt(Fraction(0)) == 0

    def test_negative(self):
        assert rational_sqrt(Fraction(-4)) is None
        assert rational_sqrt(Fraction(-1, 9)) is None

    def test_squares_and_non_squares(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(4, 3)) is None

    def test_beyond_float_range(self):
        assert rational_sqrt(Fraction(10) ** 400) == Fraction(10) ** 200
        assert rational_sqrt(Fraction(10) ** 400 + 1) is None
        n = 3**70 + 12345
        assert rational_sqrt(Fraction(n * n, 4)) == Fraction(n, 2)
