"""Vertex operators on untwisted and twisted Fock sectors.

For a = h(-n1)...h(-nk) e^lam the operator is the normal-ordered product
of divided-power derivative fields with the exponential operator

    E(lam, z) = exp(sum_{n>0} lam h(-n)/n z^n) exp(-sum_{n>0} lam h(n)/n z^{-n})

A charged state acts only on the twisted module: on an untwisted module a
is uncharged, E = 1 and the powers of z are integers.  On the twisted
module E carries the prefactor z^{-lam^2/2}, the powers lie in half-integer
offsets, and the correction operator e^{Delta_z} is applied to a first, to
a's own degree.

Only single coefficients are extracted, by one memoised recursion on the
length of a: Y(h(-n)b, z) = :d^{(n-1)}h(z)/(n-1)! Y(b, z): (Kac 1998), and
on the twisted module the same product acts on e^{Delta_z} a (Li 1996).
Its base case is the exponential pair E(lam_a, z) alone.  E(lam_a, z) and
e^{Delta_z} are both exponentials of commuting graded modes, which one
routine builds grade by grade.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Tuple

from .fock import FockVector, Key, Sector, double, halve, mode_term
from .scalars import Scalar, rational


def gen_binom(x, k: int) -> Fraction:
    """Generalized binomial coefficient C(x, k) for rational x = p/q: the
    product of the p - i*q over q^k k!, reduced once."""
    x = rational(x)
    p, q = x.numerator, x.denominator
    num = 1
    for i in range(k):
        num *= p - i * q
    return Fraction(num, q**k * math.factorial(k))


@lru_cache(maxsize=None)
def _field_binom(m: int, n: int) -> Fraction:
    """C(-m/2 - 1, n/2 - 1): h(m/2) in d^{(n/2-1)}h(z)/(n/2-1)!, m and n doubled."""
    return gen_binom(Fraction(-m - 2, 2), n // 2 - 1)


# ----------------------------------------------------------------------
# the c_mn table: sum c_mn x^m y^n = -log(((1+x)^{1/2} + (1+y)^{1/2})/2)


@lru_cache(maxsize=None)
def cmn_table(max_total: int) -> Dict[Tuple[int, int], Fraction]:
    """The c_mn with 0 < m + n <= max_total, in closed form (FLM;
    Dong-Nagatomo): c_mn = C(-1/2, m) C(-1/2, n) / (2(m + n))."""
    binom = [gen_binom(Fraction(-1, 2), k) for k in range(max_total + 1)]
    return {
        (m, total - m): binom[m] * binom[total - m] / (2 * total)
        for total in range(1, max_total + 1)
        for m in range(total + 1)
    }


def _exp_grades(grades: List[FockVector], top: int, step) -> List[FockVector]:
    """The grades F_0, F_1, ... of exp(X) F_0 for commuting X = sum_{g>=1} X_g,
    X_g of grade g: the list `grades` is extended in place through `top` by
    G F_G = sum_g g X_g F_{G-g}, and returned.  step(g, v) is g X_g v, or
    None when X_g = 0."""
    for G in range(len(grades), top + 1):
        acc = FockVector.zero(grades[0].sector)
        for g in range(1, G + 1):
            prev = grades[G - g]
            w = None if prev.is_zero() else step(g, prev)
            if w is not None:
                acc = acc + w
        grades.append(acc.scale(Fraction(1, G)))
    return grades


def delta_apply(a: FockVector) -> Dict[int, FockVector]:
    """e^{Delta_z} a as a dict {j: component with z^{-j} attached}: the
    grades of the exponential of X_j = sum_{m+n=j} c_mn h(m)h(n).

    Each X_j lowers the degree by j >= 1, so exactly the c_mn with
    m + n <= deg(a) act, and the table is built to that total."""
    top = int(a.max_degree())
    table = cmn_table(top)

    def step(g: int, v: FockVector) -> FockVector:
        out = FockVector.zero(v.sector)
        for m in range(g + 1):
            out = out + v.apply_mode(g - m).apply_mode(m).scale(g * table[m, g - m])
        return out

    return {j: w for j, w in enumerate(_exp_grades([a], top, step)) if not w.is_zero()}


# ----------------------------------------------------------------------
# core coefficient extraction
#
# Degrees, depths and mode indices below are doubled ints, as in the keys
# of FockVector.terms: an int x stands for x/2.


def _product(
    ns: Key, lam_a: Scalar, E: int, part: Key, sector: Sector, memo: dict
) -> FockVector:
    """Coefficient of z^{E/2} (relative to the charge/prefactor power) of
    :d^{(n1-1)}h(z) ... d^{(nk-1)}h(z) E(lam_a, z): on the monomial `part`
    of `sector`, for doubled depths ns, by recursion on their number.  The
    `memo` is keyed by (ns, E, part) and shared by one operator's calls."""
    key = (ns, E, part)
    out = memo.get(key)
    if out is not None:
        return out
    out = FockVector.zero(sector)
    deg_out = sum(part) + E + sum(ns)
    if deg_out >= 0 and not ns:
        out = _exp_pair(lam_a, E, part, sector, memo)
    elif deg_out >= 0:
        n, rest = ns[0], ns[1:]
        # d^{(n-1)}h(z)/(n-1)! = sum_k C(-k-1, n-1) h(k) z^{-k-n}, for the
        # doubled mode m = 2k: a creation mode acts after the rest, of depth
        # at most deg_out; an annihilation mode (or h(0) = lam_u) before it
        parity = sector.depth_parity()
        for m in range(parity - 2, -deg_out - 1, -2):
            c = _field_binom(m, n)
            if c:
                w = _product(rest, lam_a, E + m + n, part, sector, memo)
                out = out + w.apply_mode(halve(m)).scale(c)
        lam_u = sector.lam_scalar()
        for m in set(part) if parity else set(part) | {0}:
            t = mode_term(m, part)
            c = _field_binom(m, n)
            if t is None or not c:
                continue
            c = lam_u * c if m == 0 else c * Fraction(t[1], 2)
            if c:
                out = out + _product(rest, lam_a, E + m + n, t[0], sector, memo).scale(c)
    memo[key] = out
    return out


def _exp_pair(lam_a: Scalar, E: int, part: Key, sector: Sector, memo: dict) -> FockVector:
    """Coefficient of z^{E/2} of E(lam_a, z) on the monomial `part`: the sum
    over the annihilation half's grades A of the creation half's grade E + A
    on each.  The grade lists live in the operator's memo under (part, None)
    and (part, A), so every E one operator call reaches extends the same lists."""
    base = FockVector(sector)
    base.terms = {part: Scalar.one()}
    if lam_a.is_zero():
        return base if E == 0 else FockVector.zero(sector)
    parity, two_lam = sector.depth_parity(), lam_a * 2

    # g X_g is -2 lam_a h(g/2) in the annihilation half and 2 lam_a h(-g/2)
    # in the creation half, for the doubled grades g legal in the sector
    def annihilate(g: int, v: FockVector):
        return v.apply_mode(halve(g)).scale(-two_lam) if g % 2 == parity else None

    def create(g: int, v: FockVector):
        return v.apply_mode(-halve(g)).scale(two_lam) if g % 2 == parity else None

    out = FockVector.zero(sector)
    ann = _exp_grades(memo.setdefault((part, None), [base]), sum(part), annihilate)
    for A, vA in enumerate(ann):
        if E + A >= 0 and not vA.is_zero():
            out = out + _exp_grades(memo.setdefault((part, A), [vA]), E + A, create)[E + A]
    return out


def _operator(a: FockVector, u: FockVector) -> Dict[int, FockVector]:
    """The state the operator for a expands on u, as {j: component with
    z^{-j} attached}: e^{Delta_z} a for twisted u, a itself otherwise.  The
    output lies in u's sector."""
    if u.sector.twisted:
        return delta_apply(a)
    if not a.sector.lam_scalar().is_zero():
        raise ValueError("a charged operator acts only on the twisted module")
    return {0: a}


def _coeff(
    pieces: Dict[int, FockVector], lam_a: Scalar, u: FockVector, offset, memo: dict
) -> FockVector:
    """Coefficient of z^{base + offset} of the operator expanded as `pieces`
    acting on u, through `_product` with the given memo."""
    offset = double(offset)
    acc = FockVector.zero(u.sector)
    for j, comp in pieces.items():
        E = offset + 2 * j
        for part, ca in comp.terms.items():
            for upart, cu in u.terms.items():
                acc = acc + _product(part, lam_a, E, upart, u.sector, memo).scale(ca * cu)
    return acc


def vertex_op_coeff(a: FockVector, u: FockVector, offset) -> FockVector:
    """Coefficient of z^{base + offset} of the (inter)twining operator for a
    acting on u.  The base power is <lam_a, lam_u> for untwisted u and
    -lam_a^2/2 for twisted u; both are tracked implicitly.  The offset is a
    multiple of 1/2.

    For twisted u the correction e^{Delta_z} is applied to a first.  A
    charged a acts only on the twisted module; on an untwisted u it raises
    ValueError."""
    return _coeff(_operator(a, u), a.sector.lam_scalar(), u, offset, {})


def modes(a: FockVector, ns: Iterable, u: FockVector) -> List[FockVector]:
    """The modes a_n, n in ns, of an uncharged state a in M(1), acting on u
    (either sector): the coefficients of z^{-n-1}.  On a twisted u the
    correction e^{Delta_z} a is expanded once, and one memo serves them all."""
    if not a.sector.lam_scalar().is_zero() or a.sector.twisted:
        raise ValueError("modes of a state need it in the vacuum charge sector")
    pieces = _operator(a, u)
    memo: dict = {}
    return [_coeff(pieces, a.sector.lam_scalar(), u, -n - 1, memo) for n in ns]


def mode(a: FockVector, n, u: FockVector) -> FockVector:
    """The mode a_n of an uncharged state a in M(1), acting on u (either
    sector): the coefficient of z^{-n-1}."""
    return modes(a, (n,), u)[0]


def weight(a: FockVector) -> Fraction:
    if not a.is_homogeneous():
        raise ValueError("vector %s is not homogeneous" % a)
    return a.max_degree() + a.sector.weight_offset_rat()


def o_apply(a: FockVector, v: FockVector) -> FockVector:
    """The degree-preserving zero-mode o(a) = a_{wt(a)-1} applied to v."""
    return mode(a, weight(a) - 1, v)


# ----------------------------------------------------------------------
# distinguished states of M(1)


def omega() -> FockVector:
    return FockVector.basis(Sector.untwisted(None), (1, 1), Fraction(1, 2))


def J_state() -> FockVector:
    s = Sector.untwisted(None)
    return FockVector(
        s,
        {
            (Fraction(1),) * 4: 1,
            (Fraction(3), Fraction(1)): -2,
            (Fraction(2), Fraction(2)): Fraction(3, 2),
        },
    )
