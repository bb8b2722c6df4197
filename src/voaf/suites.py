"""The verification suites behind `voaf verify`, their oracles, and the
recomputed lowest-weight table behind `voaf table41`.

The command line imports this module inside the subcommands that need it,
so `fusion`, `fusion-table`, `char`, `reduce` and `--help` never compile
it.  So the statements that only the suites check live here too.  Each
suite returns (name, ok, detail) checks.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import Check, _cutoff, characters, fusion, vertexops, virasoro, zhu
from .characters import QSeries, _floor, _series
from .fock import FockVector, Sector, basis_at_degree, contravariant_form
from .labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus
from .multipoly import NVARS, MultiPoly
from .scalars import Scalar, interpolate, rational, upoly_str
from .vertexops import J_state, cmn_table, gen_binom, modes, o_apply, omega, vertex_op_coeff


# ----------------------------------------------------------------------
# table of lowest weights and quartic-generator eigenvalues


def _eigenvalue(op: FockVector, v: FockVector):
    """Scalar e with o(op) v = e v, or None when the action is not scalar."""
    w = o_apply(op, v)
    key = next(iter(v.terms))
    c = w.terms.get(key)
    if c is None:
        return Scalar.zero() if w.is_zero() else None
    if (w - v.scale(c)).is_zero():
        return c
    return None


# o(omega) and o(J) on e^lam are even in lam of degree <= 4, so polynomials
# of degree <= 2 in s = lam^2: three charges fix them and a fourth checks
_TABLE_CHARGES = (Fraction(3), Fraction(5), Fraction(6), Fraction(7))


def _top_eigenvalues(label: ModuleLabel) -> Optional[Tuple[Fraction, Fraction]]:
    """(o(omega), o(J)) on the top vector, or None unless both act as
    rational scalars."""
    v = label.top_vector()
    pair = (_eigenvalue(omega(), v), _eigenvalue(J_state(), v))
    if any(e is None or not e.is_rational() for e in pair):
        return None
    return pair[0].as_rat(), pair[1].as_rat()


def table41_rows() -> Tuple[List[Tuple[str, str, str]], bool]:
    """Recomputed (module, a_M, b_M) rows, plus agreement with the stored
    lowest-weight data.  The charged row M(1,lam) is interpolated in s."""
    rows: List[Tuple[str, str, str]] = []
    ok = True
    for label in [mplus(), mminus(), None, mtheta_plus(), mtheta_minus()]:
        labels = [mlam(s) for s in _TABLE_CHARGES] if label is None else [label]
        name = "M(1,lam)" if label is None else str(label)
        pairs = [_top_eigenvalues(lab) for lab in labels]
        if None in pairs:
            ok = False
            rows.append((name, "?", "?"))
            continue
        ok = ok and all(p == (lab.a_M(), lab.b_M()) for lab, p in zip(labels, pairs))
        if label is None:
            polys = [interpolate(_TABLE_CHARGES, values) for values in zip(*pairs)]
            ok = ok and all(len(p) <= 3 for p in polys)
            rows.append((name, upoly_str(polys[0], "s"), upoly_str(polys[1], "s")))
        else:
            rows.append((name, str(pairs[0][0]), str(pairs[0][1])))
    return rows, ok


# ----------------------------------------------------------------------
# character identities


def verify_decomposition(
    module: ModuleLabel,
    parts: Sequence[Tuple[Fraction, int]],
    cutoff=Fraction(20),
) -> Tuple[bool, Optional[dict]]:
    """Compare the module character with a sum of irreducible characters.

    Returns (True, None) on coefficientwise agreement up to the cutoff, or
    (False, report) with the first mismatching exponent and both values.
    """
    cutoff = rational(cutoff)
    lhs = characters.graded_dimension(module, cutoff)
    rhs = QSeries.zero(cutoff)
    for h, mult in parts:
        rhs = rhs + characters.char_virasoro_c1(h, cutoff) * Fraction(mult)
    ok, at = lhs.agrees_with(rhs)
    if ok:
        return True, None
    return False, {
        "exponent": str(at),
        "module_coefficient": str(lhs.coeffs.get(at, Fraction(0))),
        "sum_coefficient": str(rhs.coeffs.get(at, Fraction(0))),
    }


def _half_odd_factors(cutoff: Fraction) -> Iterator[QSeries]:
    """The factors 1/(1-q^{k-1/2}), k >= 1, of prod 1/(1-q^{k-1/2}) below
    the cutoff, as geometric series."""
    top = _floor(cutoff, 2)
    for step in range(1, top + 1, 2):
        yield _series(dict.fromkeys(range(0, top + 1, step), 1), 2, cutoff)


def jacobi_triple_check(cutoff=Fraction(20)) -> bool:
    """prod_k (1-q^k)/(1-q^{k-1/2}) = sum_{p>=0} q^{p(p+1)/4}."""
    cutoff = rational(cutoff)
    lhs = QSeries.one(cutoff)
    # alternating the factors keeps the partial products sparse
    for k, geom in enumerate(_half_odd_factors(cutoff), 1):
        euler = QSeries({Fraction(0): Fraction(1), Fraction(k): Fraction(-1)}, cutoff)
        lhs = lhs * euler * geom
    top = _floor(cutoff, 4)
    rhs = {p * (p + 1): 1 for p in range(math.isqrt(max(top, 0)) + 1) if p * (p + 1) <= top}
    return lhs.agrees_with(_series(rhs, 4, cutoff))[0]


def twisted_character_identity(cutoff=Fraction(20)) -> bool:
    """The twisted-space character equals both closed forms:
    q^{1/16-1/24} prod 1/(1-q^{k-1/2}) and (1/eta) sum q^{(2p+1)^2/16}."""
    cutoff = rational(cutoff)
    lhs = characters.graded_dimension("Mtheta", cutoff)
    mid = QSeries.one(cutoff + 1)
    for geom in _half_odd_factors(cutoff + 1):
        mid = mid * geom
    mid = mid.shift(Fraction(1, 16) - Fraction(1, 24)).truncate(cutoff)
    inv = characters.eta_inverse(cutoff + 1)
    rhs = QSeries.zero(cutoff + 1)
    p = 0
    while Fraction((2 * p + 1) ** 2, 16) <= cutoff + 1:
        rhs = rhs + inv.shift(Fraction((2 * p + 1) ** 2, 16))
        p += 1
    rhs = rhs.truncate(cutoff)
    return lhs.agrees_with(mid)[0] and mid.agrees_with(rhs)[0]


# ----------------------------------------------------------------------
# the closed-form fusion table and the generator hypothesis


def expected_fusion(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> int:
    """Closed-form fusion table, stated independently of the decision
    procedure; used as a cross-check of decide()."""
    labels = (m, n, l)
    twisted = [x for x in labels if x.kind.startswith("Mtheta")]
    if len(twisted) % 2 == 1:
        return 0
    if len(twisted) == 2:
        other = next(x for x in labels if not x.kind.startswith("Mtheta"))
        same = twisted[0].kind == twisted[1].kind
        if other.kind == "M+":
            return 1 if same else 0
        if other.kind == "M-":
            return 0 if same else 1
        return 1
    charged = [x for x in labels if x.kind == "Mlam"]
    if len(charged) == 3:
        s, t, u = (Fraction(x.s) for x in charged)
        sym3 = s * s + t * t + u * u - 2 * s * t - 2 * s * u - 2 * t * u
        return 1 if sym3 == 0 else 0
    if len(charged) == 2:
        return 1 if charged[0].s == charged[1].s else 0
    if len(charged) == 1:
        return 0
    minus = sum(1 for x in labels if x.kind == "M-")
    return 1 if minus % 2 == 0 else 0


def verify_generator_hypothesis(label: ModuleLabel) -> bool:
    """Check that J_n g, n = 1, 2, 3, stays inside the Virasoro span of the
    generators."""
    gens = zhu.generator_set(label)
    try:
        for g in gens:
            for img in modes(J_state(), (1, 2, 3), g):
                virasoro.express_in_descendants(img, gens)
    except virasoro.NotInSpan:
        return False
    return True


# ----------------------------------------------------------------------
# the right product and the phi anti-map of the Zhu calculus


def star_right(u: FockVector, a: FockVector) -> FockVector:
    """u * a = sum_i C(wt a - 1, i) a_{i-1} u."""
    wa = zhu._integral_weight(a)
    # for wt(a) >= 1 the binomial kills i >= wt(a); for wt(a) = 0 the modes
    # a(i-1)u vanish once i exceeds wt(a) + deg(u)
    return zhu._mode_sum(a, u, wa - 1, -1, int(wa + u.max_degree()) + 2)


class PhiImage(NamedTuple):
    """exp(i*pi*phase) * vector with the rational phase in [0, 2); scalars
    absorb only rational (+-1) adjustments, the genuinely complex part stays
    in the phase."""

    phase: Fraction
    vector: FockVector


def e_L1(v: FockVector) -> FockVector:
    """e^{L(1)} v, the graded exponential of X_1 = L(1): finite, because
    L(1) lowers the degree by one."""
    grades = vertexops._exp_grades(
        [v], int(v.max_degree()), lambda g, w: virasoro.L(1, w) if g == 1 else None
    )
    return sum(grades, FockVector.zero(v.sector))


def phi(v: FockVector) -> PhiImage:
    """phi(v) = e^{L(1)} e^{i*pi*L(0)} v.

    Requires the conformal weights of the components of v to agree mod 2Z;
    the common phase is extracted and integer differences fold into signs.
    """
    if v.is_zero():
        return PhiImage(Fraction(0), v)
    offset = v.sector.weight_offset_rat()
    degs = v.degrees()
    w0 = degs[-1] + offset
    signed = FockVector.zero(v.sector)
    for d in degs:
        diff = d + offset - w0
        if diff.denominator != 1:
            raise ValueError("component weights differ by non-integers")
        comp = v.homogeneous_component(d)
        sign = -1 if int(diff) % 2 else 1
        signed = signed + comp.scale(Fraction(sign))
    return PhiImage(w0 % 2, e_L1(signed))


def reconstruct(
    coords: Dict[virasoro.DescendantWord, Scalar], generators: Sequence[FockVector]
) -> FockVector:
    """The vector with the given Virasoro descendant coordinates."""
    acc = FockVector.zero(generators[0].sector)
    for w, c in coords.items():
        acc = acc + virasoro.L_word(w.ms, generators[w.gen]).scale(c)
    return acc


# ----------------------------------------------------------------------
# verification suites


def suite_characters() -> List[Check]:
    cut = Fraction(_cutoff(None, 20))
    checks: List[Check] = []
    checks.append(
        (
            "triple-product identity prod (1-q^k)/(1-q^{k-1/2}) = sum q^{p(p+1)/4}",
            jacobi_triple_check(cut),
            "cutoff %s" % cut,
        )
    )
    checks.append(
        ("twisted character double identity", twisted_character_identity(cut), "cutoff %s" % cut)
    )
    mods = [ModuleLabel.parse(m) for m in ("M+", "M-", "Mtheta+", "Mtheta-", "M(s=1/3)", "M(s=2)")]
    for mod in mods:
        parts = characters.decomposition_weights(mod, cut + 1)
        ok, rep = verify_decomposition(mod, parts, cut)
        if ok:
            detail = "agrees to q^%s" % cut
        else:
            import json

            detail = json.dumps(rep, sort_keys=True)
        checks.append(("irreducible decomposition of %s" % mod, ok, detail))
    small = min(cut, Fraction(10))
    names = mods[:5]  # M(s=2) left out
    chars = {m: characters.graded_dimension(m, small) for m in names}
    distinct = all(
        not chars[a].agrees_with(chars[b])[0]
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    )
    checks.append(
        ("pairwise distinct characters", distinct, "cutoff %s" % small)
    )
    return checks


def _zhu_ideal_checks() -> List[Check]:
    x, y, s = MultiPoly.var("x"), MultiPoly.var("y"), MultiPoly.var("s")
    g1 = (y - x * x * 4 + x) * (y * 70 + x * x * 908 - x * 515 + 27)
    g2 = (y - x * x * 4 + x) * (x - 1) * (x - Fraction(1, 16)) * (x - Fraction(9, 16))
    points = [
        ("M+", 0, 0),
        ("M-", 1, -6),
        ("M(1,lam)", s * Fraction(1, 2), s * s - s * Fraction(1, 2)),
        ("Mtheta+", Fraction(1, 16), Fraction(3, 128)),
        ("Mtheta-", Fraction(9, 16), Fraction(-45, 128)),
    ]
    checks: List[Check] = []
    for gname, g in (("quartic ideal generator", g1), ("sextic ideal generator", g2)):
        for mname, a, b in points:
            val = g.subs({"x": a, "y": b})
            checks.append(
                (
                    "%s vanishes at the %s lowest-weight point" % (gname, mname),
                    val.is_zero(),
                    "value %s" % val,
                )
            )
    return checks


def relation_element() -> FockVector:
    """J - 4 omega*omega - 17 omega + 9 h(-3)h(-1)|0>."""
    h3h1 = zhu._h3h1()
    return (
        J_state()
        + zhu.star_left(omega(), omega()).scale(Fraction(-4))
        + omega().scale(Fraction(-17))
        + h3h1.scale(Fraction(9))
    )


def suite_zhu() -> List[Check]:
    cut = _cutoff(None, 6)
    checks: List[Check] = []
    rows, ok = table41_rows()
    checks.append(
        (
            "lowest-weight table recomputation",
            ok,
            "; ".join("%s:(%s,%s)" % r for r in rows),
        )
    )
    checks.extend(_zhu_ideal_checks())
    res = zhu.o_membership(relation_element(), mplus(), cutoff=cut)
    checks.append(
        (
            "quartic relation element lies in the degree-zero ideal",
            res.member,
            "cutoff %d, combination size %d" % (cut, len(res.combination or [])),
        )
    )
    # anti-map samples: phi(a*u) = phi(u)*phi(a), phi(a o u) = -phi(a) o phi(u)
    samples = [
        (omega(), mminus().top_vector()),
        (zhu._h3h1(), mminus().top_vector()),
        (omega(), mtheta_minus().top_vector()),
    ]
    def _per_component(binary, a, u):
        acc = FockVector.zero(u.sector)
        for d in a.degrees():
            acc = acc + binary(a.homogeneous_component(d), u)
        return acc

    def _phi_eq(lhs, base_phase, vec) -> bool:
        # compare e^{i pi r} lhs.vector with e^{i pi base} vec; the anchor
        # weights may differ by an integer, which folds into a sign
        if lhs.vector.is_zero():
            return vec.is_zero()
        diff = lhs.phase - base_phase
        if diff.denominator != 1:
            return False
        return (lhs.vector.scale(Fraction((-1) ** int(diff))) - vec).is_zero()

    for a, u in samples:
        pa, pu = phi(a), phi(u)
        if pa.phase.denominator != 1:
            raise ValueError("phase exp(i*pi*%s) is not real" % pa.phase)
        sign = (-1) ** pa.phase.numerator
        lhs = phi(zhu.star_left(a, u))
        rhs = _per_component(
            lambda b, w: star_right(w, b), pa.vector, pu.vector
        ).scale(Fraction(sign))
        ok1 = _phi_eq(lhs, pu.phase, rhs)
        lhs2 = phi(zhu.circ(a, u))
        rhs2 = _per_component(zhu.circ, pa.vector, pu.vector).scale(Fraction(-sign))
        ok2 = _phi_eq(lhs2, pu.phase, rhs2)
        checks.append(
            (
                "anti-map exchanges the two products (sample wt %s on %s)"
                % (a.max_degree(), "twisted" if u.sector.twisted else "untwisted"),
                ok1 and ok2,
                "",
            )
        )
    # rewrite of L(-n)v modulo the degree-zero ideal, n <= 4
    v = mminus().top_vector()
    for n in range(1, 5):
        rewrite = (
            zhu.star_left(omega(), v)
            + star_right(v, omega()).scale(Fraction(-n))
            + v.scale(Fraction(-1))
        ).scale(Fraction((-1) ** (n - 1)))
        elem = virasoro.L(-n, v) - rewrite
        res = zhu.o_membership(elem, mminus(), cutoff=cut)
        checks.append(
            (
                "L(-%d) rewrite is a member of the degree-zero ideal" % n,
                res.member,
                "cutoff %d" % cut,
            )
        )
    return checks


def suite_virasoro() -> List[Check]:
    max_degree = 6
    checks: List[Check] = []
    sectors = [
        ("untwisted", Sector.untwisted(None)),
        ("twisted", Sector.twisted_sector()),
    ]
    for sname, sec in sectors:
        ok_h = True
        ok_v = True
        step = Fraction(1, 2) if sec.twisted else Fraction(1)
        degs = []
        d = Fraction(0)
        while d <= max_degree:
            degs.append(d)
            d += step
        half = Fraction(1, 2) if sec.twisted else Fraction(0)
        hmodes = [k + half for k in range(-2, 3)] if sec.twisted else list(range(-2, 3))
        hmodes = [m for m in hmodes if m != 0 or not sec.twisted]
        for deg in degs:
            for part in basis_at_degree(sec, deg):
                w = FockVector.basis(sec, part)
                # Each inner image h(n)w and L(k)w is computed once.  Modes
                # and L keep no zero coefficients, so a commutator holds
                # exactly when its two sides compare equal.
                himages = {h: w.apply_mode(h) for h in hmodes}
                for i, hm in enumerate(hmodes):
                    for hn in hmodes[i + 1 :]:
                        rhs = (
                            w.scale(hm)
                            if hm + hn == 0
                            else FockVector.zero(sec)
                        )
                        if himages[hn].apply_mode(hm) != himages[hm].apply_mode(hn) + rhs:
                            ok_h = False
                images = {k: virasoro.L(k, w) for k in range(-5, 6)}
                for m in range(-3, 4):
                    for n in range(m + 1, 4):
                        rhs = images[m + n].scale(Fraction(m - n))
                        if m + n == 0:
                            rhs = rhs + w.scale(Fraction(m**3 - m, 12))
                        if virasoro.L(m, images[n]) != virasoro.L(n, images[m]) + rhs:
                            ok_v = False
        checks.append(
            (
                "Heisenberg commutators on the %s sector" % sname,
                ok_h,
                "degree <= %d" % max_degree,
            )
        )
        checks.append(
            (
                "Virasoro commutators (central charge 1) on the %s sector" % sname,
                ok_v,
                "degree <= %d" % max_degree,
            )
        )
    singulars = [
        ("weight 1", mminus().top_vector(), [(2, (3,)), (-4, (2, 1)), (1, (1, 1, 1))]),
        ("weight 1/4", mlam(Fraction(1, 2)).top_vector(), [(1, (1, 1)), (-1, (2,))]),
        (
            "weight 9/4",
            mlam(Fraction(9, 2)).top_vector(),
            [
                (18, (4,)),
                (-14, (3, 1)),
                (-9, (2, 2)),
                (10, (2, 1, 1)),
                (-1, (1, 1, 1, 1)),
            ],
        ),
    ]
    for name, vec, combo in singulars:
        img = reconstruct({virasoro.DescendantWord(0, ms): c for c, ms in combo}, [vec])
        checks.append(
            ("singular-vector image vanishes at %s" % name, img.is_zero(), "")
        )
    rel = zhu.star_left(zhu._h3h1(), mminus().top_vector())
    coords = virasoro.express_in_descendants(rel, [mminus().top_vector()])
    back = reconstruct(coords, [mminus().top_vector()])
    checks.append(
        (
            "descendant coordinates round-trip the quartic star product",
            (back - rel).is_zero(),
            "%d descendant words" % len(coords),
        )
    )
    return checks


def _cmn_taylor_oracle(max_total: int) -> bool:
    """Check cmn_table against F = -log((sqrt(1+x) + sqrt(1+y))/2).

    F has no constant term, and 2 r (sqrt(1+x) + sqrt(1+y)) dF/dv = -1 for
    (r, v) = (sqrt(1+x), x) and (sqrt(1+y), y).  Modulo total degree
    max_total these fix every coefficient, and they force r^2 = 1 + v.
    """

    def mono(m: int, n: int) -> Tuple[int, ...]:
        return (m, n) + (0,) * (NVARS - 2)

    def mul(p: MultiPoly, q: MultiPoly) -> MultiPoly:
        # p * q without the terms of total degree >= max_total, which are
        # never compared; degrees only add, so the kept terms are exact
        out: Dict[Tuple[int, ...], int] = {}
        for e1, c1 in p.num.items():
            d1 = sum(e1)
            for e2, c2 in q.num.items():
                if d1 + sum(e2) < max_total:
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0) + c1 * c2
        return MultiPoly({e: Fraction(c, p.den * q.den) for e, c in out.items()})

    table = cmn_table(max_total)
    if any(m + n == 0 or m + n > max_total for (m, n), c in table.items() if c):
        return False
    F = MultiPoly({mono(m, n): c for (m, n), c in table.items()})
    half = [gen_binom(Fraction(1, 2), k) for k in range(max_total)]
    rx = MultiPoly({mono(k, 0): c for k, c in enumerate(half)})
    ry = MultiPoly({mono(0, k): c for k, c in enumerate(half)})
    for i, r in ((0, rx), (1, ry)):
        dF = MultiPoly({
            mono(e[0] - (i == 0), e[1] - (i == 1)): Fraction(n * e[i] * 2, F.den)
            for e, n in F.num.items()
            if e[i]
        })
        if mul(mul(r, rx + ry), dF) != -1:
            return False
    return True


def suite_twisted() -> List[Check]:
    checks: List[Check] = []
    tsec = Sector.twisted_sector()
    ok_theta = True
    d = Fraction(0)
    while d <= 3:
        for part in basis_at_degree(tsec, d):
            w = FockVector.basis(tsec, part)
            if not (w.theta().theta() - w).is_zero():
                ok_theta = False
            want = w.scale(Fraction((-1) ** len(part)))
            if not (w.theta() - want).is_zero():
                ok_theta = False
        d += Fraction(1, 2)
    checks.append(("involution squares to the identity (twisted, degree <= 3)", ok_theta, ""))
    ok_gram = True
    d = Fraction(0)
    while d <= 4:
        parts = basis_at_degree(tsec, d)
        vecs = [FockVector.basis(tsec, p) for p in parts]
        for i, vi in enumerate(vecs):
            for j, vj in enumerate(vecs):
                val = contravariant_form(vi, vj)
                if i == j:
                    if val.is_zero() or val.as_rat() <= 0:
                        ok_gram = False
                elif not val.is_zero():
                    ok_gram = False
        d += Fraction(1, 2)
    checks.append(
        ("contravariant Gram matrix positive diagonal (degree <= 4)", ok_gram, "")
    )
    checks.append(
        (
            "degree-correction coefficients match the logarithmic Taylor series",
            _cmn_taylor_oracle(8),
            "total degree <= 8",
        )
    )
    sec = Sector.untwisted(Fraction(2))
    a = FockVector.basis(sec)
    tv = FockVector.basis(tsec)
    lam = Scalar.lam(Fraction(2))

    def is_single(vec: FockVector, part, scalar: Scalar) -> bool:
        return vec == FockVector.basis(vec.sector, part, scalar)

    lead0 = vertex_op_coeff(a, tv, Fraction(0))
    checks.append(
        (
            "twisted intertwiner leading coefficient is the twisted vacuum",
            is_single(lead0, (), Scalar.one()),
            "",
        )
    )
    # the subleading coefficient carries the 1/n of the exponential at
    # n = 1/2, hence the factor 2
    lead1 = vertex_op_coeff(a, tv, Fraction(1, 2))
    checks.append(
        (
            "twisted intertwiner subleading coefficient is 2 lam h(-1/2)",
            is_single(lead1, (Fraction(1, 2),), lam * 2),
            "",
        )
    )
    hv = FockVector.basis(tsec, (Fraction(1, 2),))
    lead2 = vertex_op_coeff(a, hv, Fraction(-1, 2))
    checks.append(
        (
            "twisted intertwiner lowering coefficient is -lam times the vacuum",
            is_single(lead2, (), -lam),
            "",
        )
    )
    return checks


_GRID = (
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2),
    Fraction(9, 2),
    Fraction(8),
    Fraction(5),
)


def suite_fusion() -> List[Check]:
    checks: List[Check] = []
    gen_labels = [
        mplus(),
        mminus(),
        mtheta_plus(),
        mtheta_minus(),
        mlam(Fraction(1, 3)),
        mlam(Fraction(1, 2)),
        mlam(Fraction(2)),
        mlam(Fraction(9, 2)),
    ]
    ok_gen = all(verify_generator_hypothesis(lab) for lab in gen_labels)
    checks.append(
        ("top vectors generate their modules (mode closure)", ok_gen, "%d labels" % len(gen_labels))
    )
    certs = list(fusion.full_table(_GRID))
    mism = [
        c
        for c in certs
        if c.verdict != expected_fusion(c.m, c.n, c.l)
    ]
    checks.append(
        (
            "full fusion table matches the closed-form table",
            not mism,
            "%d triples" % len(certs)
            if not mism
            else "first mismatch (%s,%s,%s)" % (mism[0].m, mism[0].n, mism[0].l),
        )
    )
    sample = [c for i, c in enumerate(certs) if i % 97 == 0][:20]
    ok_sym = True
    for c in sample:
        v = c.verdict
        if (
            fusion.decide(c.n, c.m, c.l).verdict != v
            or fusion.decide(c.m, c.l, c.n).verdict != v
        ):
            ok_sym = False
    checks.append(
        ("fusion symmetry under argument exchange", ok_sym, "%d sampled triples" % len(sample))
    )
    return checks


def suite_step3() -> List[Check]:
    try:
        report = fusion.verify_step3_generic()
    except fusion.VerificationError as exc:
        return [("generic-charge identity suite", False, str(exc))]
    return [
        ("generic-charge identity suite", True, "%d identities verified" % len(report))
    ]
