"""The generic-charge identity suite behind `voaf verify --suite step3`.

Exact polynomial identities, over the rationals, of the elimination that
pins down the charged fusion rules, and the infeasibility closures that end
it, checked against the stored certificates of `voaf.step3_cofactors`.
`fusion.verify_step3_generic` imports this module when it first runs, so
no other command compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import fusion
from .labels import mminus
from .multipoly import VARS, MultiPoly
from .scalars import Scalar

_S = MultiPoly.var("s")
_T = MultiPoly.var("t")
_U = MultiPoly.var("u")
# three charged slots with squared charges s, t, u: the relations of the
# first slot contract on the top weights x = t/2, y = u/2, z = t^2 - t/2
_TRI_SUB = {"x": _T * Fraction(1, 2), "y": _U * Fraction(1, 2), "z": _T * _T - _T * Fraction(1, 2)}
# vanishes exactly at matched charges, u = (sqrt(s) +- sqrt(t))^2
_SYM3 = _S * _S + _T * _T + _U * _U - _S * _T * 2 - _S * _U * 2 - _T * _U * 2
_SLOT_PERMS = ("stu", "sut", "tsu", "tus", "ust", "uts")

Closure = Tuple[str, str, Tuple[str, str], List[MultiPoly], MultiPoly]


def charged_triple_relations() -> Tuple[Optional[MultiPoly], Optional[MultiPoly]]:
    """(pt, q2) for three charged slots: the star relation divided by the
    symmetric factor, and the first circle relation divided by the symmetric
    factor times (t-u).  Either is None when its division is not exact."""
    f_num, _, g_num, _ = fusion.generic_relation_polys()
    return (
        f_num.subs(_TRI_SUB).try_divide(_SYM3),
        g_num.subs(_TRI_SUB).try_divide(_SYM3 * (_T - _U)),
    )


def step3_closures(pt: MultiPoly, q2: MultiPoly) -> List[Closure]:
    """The six infeasibility closures that end the three-charged-slot
    elimination, as (check name, detail, variables, generators, D).

    The generators are pt and q2 under the six permutations of the slots
    (s, t, u), restricted to one subcase: the charge sum u = -5-s-t that the
    chains force, the equal pair u = t, or a special charge t in 1/2, 2,
    9/2, 8.  A special t drops each relation whose first slot holds t when
    the relation's denominator vanishes at t (f_den for pt, g_den for q2):
    that slot's system has no such row from the generated relations.  D
    multiplies the factors that are nonzero in the subcase: distinct
    charges, and for special t also a nonvanishing symmetric factor and
    nonzero charges.  A closure holds when D vanishes on
    every common zero of the generators, i.e. D^k lies in their ideal for
    some k; by Rabinowitsch that is 1 in (generators, wD - 1).
    """
    S, T, U = _S, _T, _U
    _, f_den, _, g_den = fusion.generic_relation_polys()

    def gens(images, t: Optional[Fraction] = None) -> List[MultiPoly]:
        return [
            p.subs({v: images[c] for v, c in zip("stu", perm)})
            for p, den in ((pt, f_den), (q2, g_den))
            for perm in _SLOT_PERMS
            if not (perm[0] == "t" and t is not None and den.evaluate({"s": t}) == 0)
        ]

    u_sum = -5 - S - T
    out: List[Closure] = [
        (
            "groebner-main",
            "relations + distinctness + charge-sum constraint are infeasible",
            ("s", "t"),
            gens({"s": S, "t": T, "u": u_sum}),
            (S - T) * (S - u_sum) * (T - u_sum),
        ),
        (
            "groebner-equal-pair",
            "equal-charge subcase (t=u) with nonvanishing symmetric factor is infeasible",
            ("s", "t"),
            gens({"s": S, "t": T, "u": T}),
            S * (S - T * 4) * (S - T),
        ),
    ]
    for tv in (Fraction(1, 2), Fraction(2), Fraction(9, 2), Fraction(8)):
        tc = MultiPoly.const(tv)
        out.append(
            (
                "groebner-special-t-%s" % tv,
                "special charge t=%s subcase infeasible" % tv,
                ("s", "u"),
                gens({"s": S, "t": tc, "u": U}, tv),
                (S - tv) * (U - tv) * (S - U) * _SYM3.subs({"t": tc}) * S * U,
            )
        )
    return out


def _certifies(cert, variables: Tuple[str, str], gens: List[MultiPoly], dist: MultiPoly) -> bool:
    """Whether a stored certificate proves its closure: it is made for
    exactly these generators, k >= 0, and sum(c_i g_i) == D^k exactly."""
    if cert is None or cert["generators"] != len(gens) or cert["k"] < 0:
        return False
    slots = [VARS.index(v) for v in variables]
    total = MultiPoly()
    for i, terms in cert["cofactors"].items():
        if not 0 <= i < len(gens):
            return False
        cofactor = {}
        for expo, coeff in terms.items():
            e = [0] * len(VARS)
            for slot, k in zip(slots, expo):
                e[slot] = k
            cofactor[tuple(e)] = coeff
        total = total + MultiPoly(cofactor) * gens[i]
    return total == dist ** cert["k"]


def _step3_check(report: Dict[str, str], name: str, ok: bool, detail: str):
    if not ok:
        raise fusion.VerificationError("%s failed: %s" % (name, detail))
    report[name] = detail


def verify_step3_generic() -> Dict[str, str]:
    """Machine-check the generic-charge elimination that pins down the
    charged fusion rules.

    Every identity is exact polynomial algebra over the rationals; the first
    failure aborts with a counterexample.  Returns a report mapping check
    names to human-readable confirmations.
    """
    report: Dict[str, str] = {}
    S, T, U = _S, _T, _U
    one = MultiPoly.const(1)

    # --- vacuum-parity slot: symmetrized relation identity -----------------
    f2 = fusion.constraint_system(mminus()).rows[0].polys[0]
    sub_st = {"x": S * Fraction(1, 2), "y": T * Fraction(1, 2), "z": S * S - S * Fraction(1, 2)}
    sub_ts = {"x": T * Fraction(1, 2), "y": S * Fraction(1, 2), "z": T * T - T * Fraction(1, 2)}
    lhs = f2.subs(sub_st) + f2.subs(sub_ts)
    target = (S - T) * (S - T) * (S * 3 + T * 3 - 2) * Fraction(9, 16)
    _step3_check(
        report,
        "symmetrized-vacuum-slot-identity",
        lhs == target,
        "f(s/2,t/2,s^2-s/2) + f(t/2,s/2,t^2-t/2) = (9/16)(s-t)^2(3s+3t-2)",
    )

    # --- generic star relation --------------------------------------------
    f_num, f_den, g_num, g_den = fusion.generic_relation_polys()
    den_target = S * (S - 2) * (S * 2 - 9) * (S * 2 - 1)
    c = f_den.proportionality(den_target)
    _step3_check(
        report,
        "star-denominator",
        c is not None and c != 0,
        "denominator proportional to s(s-2)(2s-9)(2s-1), scalar %s" % c,
    )
    for pt_name, (ax, bz) in (
        ("even", (Fraction(1, 16), Fraction(3, 128))),
        ("odd", (Fraction(9, 16), Fraction(-45, 128))),
    ):
        van = f_num.subs({"x": MultiPoly.const(ax), "y": MultiPoly.const(ax), "z": MultiPoly.const(bz)})
        _step3_check(
            report,
            "twisted-fixed-point-%s" % pt_name,
            van.is_zero(),
            "star relation vanishes identically in s at the %s twisted point" % pt_name,
        )

    # --- one twisted slot: bivariate factorizations ------------------------
    theta_a, theta_b = Fraction(1, 16), Fraction(3, 128)
    p_biv = f_num.subs(
        {"x": MultiPoly.const(theta_a), "y": U * Fraction(1, 2), "z": MultiPoly.const(theta_b), "s": T}
    )
    lead = (U * 8 - 1) * (U * 8 - 9)
    cubic = p_biv.try_divide(lead)
    _step3_check(
        report,
        "twisted-slot-factor",
        cubic is not None,
        "mirror relation contains the factor (8u-1)(8u-9)",
    )
    q_biv = f_num.subs(
        {"x": U * Fraction(1, 2), "y": MultiPoly.const(theta_a), "z": U * U - U * Fraction(1, 2), "s": T}
    )
    q_lead = (T * 8 + U * 8 - 1) * (T * 8 + U * 8 - 1) - T * U * 256
    q_rest = q_biv.try_divide(q_lead)
    _step3_check(
        report,
        "twisted-slot-direct-factor",
        q_rest is not None,
        "direct relation contains the factor (8t+8u-1)^2-256tu",
    )

    # --- bivariate elimination to the quadratic point ----------------------
    def swap_tu(p: MultiPoly) -> MultiPoly:
        return p.subs({"t": U, "u": T})

    alpha_poly = MultiPoly.var("t") + U  # t + u
    beta_poly = MultiPoly.var("t") * U  # t u
    diff_r = (cubic - swap_tu(cubic)).try_divide(T - U)
    rel1 = (
        (alpha_poly * alpha_poly) * 32 - alpha_poly * 14 + MultiPoly.const(45) - beta_poly * 128
    )
    c1 = diff_r.proportionality(rel1) if diff_r is not None else None
    _step3_check(
        report,
        "bivariate-antisymmetric-relation",
        c1 is not None and c1 != 0,
        "(r(t,u)-r(u,t))/(t-u) proportional to 32a^2-14a+45-128b, scalar %s" % c1,
    )
    rel2 = (
        (alpha_poly * alpha_poly) * 64 - alpha_poly * 16 + one - beta_poly * 256
    )
    diff_q = (q_biv - swap_tu(q_biv)).try_divide(T - U)
    c2 = (
        diff_q.proportionality((beta_poly * 128 + 3) * rel2) if diff_q is not None else None
    )
    _step3_check(
        report,
        "bivariate-q-difference",
        c2 is not None and c2 != 0,
        "(q(t,u)-q(u,t))/(t-u) proportional to (128b+3)(64a^2-16a+1-256b), scalar %s" % c2,
    )
    rel3 = (
        (alpha_poly * alpha_poly) * 64 - alpha_poly * 280 + MultiPoly.const(225) + beta_poly * 1024
    )
    sum_q = q_biv + swap_tu(q_biv)
    c3 = sum_q.proportionality(rel2 * rel3)
    _step3_check(
        report,
        "bivariate-q-sum",
        c3 is not None and c3 != 0,
        "q(t,u)+q(u,t) proportional to (64a^2-16a+1-256b)(64a^2-280a+225+1024b), scalar %s" % c3,
    )
    # rel1 = rel2 = 0 forces the unique quadratic point
    alpha = Fraction(89, 12)
    beta = Fraction(30625, 2304)
    check1 = 32 * alpha * alpha - 14 * alpha + 45 - 128 * beta
    check2 = 64 * alpha * alpha - 16 * alpha + 1 - 256 * beta
    _step3_check(
        report,
        "quadratic-point",
        check1 == 0 and check2 == 0,
        "a=89/12, b=30625/2304 solves both symmetric relations",
    )
    # t and u are the roots alpha/2 +- lam/2 of w^2 - alpha w + beta
    lam = Scalar.lam(alpha * alpha - 4 * beta)
    w, cow = lam / 2 + alpha / 2, -lam / 2 + alpha / 2
    for t_val, u_val, tag in ((w, cow, "root"), (cow, w, "conjugate")):
        val = p_biv.evaluate({"t": t_val, "u": u_val})
        _step3_check(
            report,
            "quadratic-point-nonvanishing-%s" % tag,
            val != 0,
            "mirror relation nonzero at the quadratic point (%s)" % tag,
        )

    # --- three charged slots: symmetric factor and circle degeneracy -------
    sym = _SYM3
    _step3_check(
        report,
        "symmetric-factor-samples",
        sym.evaluate({"s": Fraction(1, 2), "t": Fraction(2), "u": Fraction(1, 2)}) == 0
        and sym.evaluate({"s": Fraction(9), "t": Fraction(16), "u": Fraction(1)}) == 0
        and sym.evaluate({"s": Fraction(1), "t": Fraction(1), "u": Fraction(1)}) != 0,
        "charge-closure factor vanishes exactly at matched charges",
    )
    pt, q2 = charged_triple_relations()
    _step3_check(
        report,
        "trivariate-star-factor",
        pt is not None,
        "star relation in three charges is divisible by the symmetric factor",
    )
    _step3_check(
        report,
        "trivariate-circle-factor",
        q2 is not None,
        "first circle relation divisible by the symmetric factor times (t-u)",
    )
    h_num, h_den = fusion.second_circle_relation_polys()
    h_tri = h_num.subs(_TRI_SUB)
    r1 = h_tri.try_divide(sym)
    ratio = None
    if r1 is not None:
        ratio = r1.proportionality(q2 * (T - U))
    # adjust for the relative denominators of the two circle relations
    _step3_check(
        report,
        "circle-degeneracy",
        r1 is not None and ratio is not None and ratio != 0,
        "second circle relation proportional to the first (scalar %s after"
        " clearing denominators): only one independent circle constraint" % ratio,
    )
    deg8 = g_den.evaluate({"s": Fraction(8)})
    _step3_check(
        report,
        "circle-degenerates-at-eight",
        deg8 == 0 and f_den.evaluate({"s": Fraction(8)}) != 0,
        "circle relations degenerate at squared charge 8 (star survives);"
        " the engine adds the singular-vector row there",
    )

    # --- elimination chains -------------------------------------------------
    def perm(p: MultiPoly, a: str, b: str, c_: str) -> MultiPoly:
        return p.subs({"s": MultiPoly.var(a), "t": MultiPoly.var(b), "u": MultiPoly.var(c_)})

    chain_q = (T - U) * (q2 - perm(q2, "t", "s", "u")) - (T - S) * (
        perm(q2, "u", "t", "s") - perm(q2, "t", "u", "s")
    )
    target_q = (S - T) * (S - U) * (T - U) * (S + T + U + 5)
    cq = chain_q.proportionality(target_q)
    _step3_check(
        report,
        "charge-sum-constraint",
        cq is not None and cq != 0,
        "circle-relation chain forces s+t+u+5=0 (scalar %s)" % cq,
    )
    R = pt * Fraction(3200, 9) + (T - U) * q2 * 192
    alpha_c = (R - perm(R, "t", "s", "u")).try_divide(S - T)
    _step3_check(report, "beta-chain-step1", alpha_c is not None, "first chain division exact")
    beta_c = (alpha_c - perm(alpha_c, "u", "t", "s")).try_divide(S - U)
    _step3_check(report, "beta-chain-step2", beta_c is not None, "second chain division exact")
    beta_diff = beta_c - perm(beta_c, "s", "u", "t")
    target_b = (T - U) * (S * 3 + T * 3 + U * 3 - 10) * Fraction(-16)
    _step3_check(
        report,
        "beta-difference-identity",
        beta_diff == target_b,
        "beta(s,t,u)-beta(s,u,t) = -16(t-u)(3s+3t+3u-10) exactly",
    )
    _step3_check(
        report,
        "contradiction",
        3 * Fraction(-5) - 10 != 0,
        "s+t+u=-5 makes 3s+3t+3u-10 = -25, so both chains cannot vanish",
    )

    # --- infeasibility closures: stored ideal-membership certificates ------
    # generated data, read on first use like the relation polynomials
    from . import step3_cofactors

    for name, detail, variables, gens, dist in step3_closures(pt, q2):
        _step3_check(
            report,
            name,
            _certifies(step3_cofactors.CLOSURES.get(name), variables, gens, dist),
            detail,
        )
    return report
