"""Step-3 infeasibility closures: stored ideal-membership certificates.

sympy is the reference here.  The old Groebner route rebuilt each closure by
sympy substitution and proved 1 in (g_i, wD - 1); the engine now builds the
generators g_i and the factor D on `MultiPoly` and checks stored cofactors
with sum(c_i g_i) == D^k, which by Rabinowitsch proves the same statement.
"""

import ast
import copy
import inspect
import re
import textwrap

import pytest
import sympy

from voaf import fusion, step3
from voaf.multipoly import VARS

NAMES = list(step3._certificates())


def _to_sympy(poly):
    syms = [sympy.Symbol(v) for v in VARS]
    return sympy.Add(
        *[
            sympy.Rational(n, poly.den) * sympy.Mul(*[x**k for x, k in zip(syms, e)])
            for e, n in poly.num.items()
        ]
    )


def _sympy_closures(pt, q2):
    """name -> (generators, w*D - 1, variables), built by the sympy
    substitution chain that fed the Groebner closures."""
    s_, t_, u_, w_ = sympy.symbols("s t u w")
    sp_pt, sp_q2 = _to_sympy(pt), _to_sympy(q2)

    def sp_perm(p, a, b, c_):
        return p.subs({s_: a, t_: b, u_: c_}, simultaneous=True)

    perms = [(s_, t_, u_), (s_, u_, t_), (t_, s_, u_), (t_, u_, s_), (u_, s_, t_), (u_, t_, s_)]
    polys = [sp_perm(p, *pr) for p in (sp_pt, sp_q2) for pr in perms]
    sat = w_ * (s_ - t_) * (s_ - u_) * (t_ - u_) - 1
    out = {
        "groebner-main": (
            [p.subs(u_, -5 - s_ - t_) for p in polys],
            sat.subs(u_, -5 - s_ - t_),
            (s_, t_, w_),
        ),
        "groebner-equal-pair": (
            [p.subs(u_, t_) for p in polys],
            w_ * s_ * (s_ - 4 * t_) * (s_ - t_) - 1,
            (s_, t_, w_),
        ),
    }
    sp_sym = s_**2 + t_**2 + u_**2 - 2 * s_ * t_ - 2 * s_ * u_ - 2 * t_ * u_
    bespoke = (sympy.Rational(1, 2), sympy.Integer(2), sympy.Rational(9, 2))
    for tv in bespoke + (sympy.Integer(8),):
        special = []
        for p, pr in [(p0, pr0) for p0 in (sp_pt, sp_q2) for pr0 in perms]:
            banned = bespoke if p is sp_pt else bespoke + (sympy.Integer(8),)
            if pr[0] == t_ and tv in banned:
                continue
            special.append(sp_perm(p, *pr).subs(t_, tv))
        sat_sp = w_ * (s_ - tv) * (u_ - tv) * (s_ - u_) * sp_sym.subs(t_, tv) * s_ * u_ - 1
        out["groebner-special-t-%s" % tv] = (special, sat_sp, (s_, u_, w_))
    return out


@pytest.fixture(scope="module")
def closures():
    pt, q2 = step3.charged_triple_relations()
    return pt, q2, {c[0]: c for c in step3.step3_closures(pt, q2)}


@pytest.fixture(scope="module")
def sympy_closures(closures):
    return _sympy_closures(*closures[:2])


def test_closure_names_match_certificates(closures):
    assert list(closures[2]) == NAMES
    assert len(NAMES) == 6


@pytest.mark.parametrize("name", NAMES)
def test_engine_generators_match_sympy_chain(closures, sympy_closures, name):
    _, _, _, gens, dist = closures[2][name]
    ref_gens, ref_sat, variables = sympy_closures[name]
    assert len(gens) == len(ref_gens)
    for g, ref in zip(gens, ref_gens):
        assert sympy.expand(_to_sympy(g) - ref) == 0
    w = variables[-1]
    assert sympy.expand(w * _to_sympy(dist) - 1 - ref_sat) == 0


@pytest.mark.parametrize("name", NAMES)
def test_engine_closure_has_groebner_basis_one(closures, name):
    _, _, by_name = closures
    _, _, variables, gens, dist = by_name[name]
    w = sympy.Symbol("w")
    G = sympy.groebner(
        [_to_sympy(g) for g in gens] + [w * _to_sympy(dist) - 1],
        *[sympy.Symbol(v) for v in variables],
        w,
        order="grevlex",
    )
    assert list(G.exprs) == [sympy.Integer(1)]


@pytest.mark.parametrize("name", NAMES)
def test_stored_certificate_holds(closures, name):
    _, _, by_name = closures
    _, _, _, gens, dist = by_name[name]
    assert step3._certifies(step3._certificates()[name], gens, dist)


def _first_cofactor(cert):
    i = min(cert["cofactors"], key=int)
    return i, min(m for m, _ in cert["cofactors"][i][1])


def _perturb(cert, gens):
    # adds 1/7 to the coefficient of the first monomial of the first cofactor
    i, m = _first_cofactor(cert)
    den, terms = cert["cofactors"][i]
    cert["cofactors"][i] = [7 * den, [[e, 7 * n + den * (e == m)] for e, n in terms]]
    return cert, gens


def _drop_cofactor(cert, gens):
    del cert["cofactors"][_first_cofactor(cert)[0]]
    return cert, gens


def _short_exponents(cert, gens):
    # drops the last variable from every exponent of the first cofactor
    i, _ = _first_cofactor(cert)
    den, terms = cert["cofactors"][i]
    cert["cofactors"][i] = [den, [[e[:-1], n] for e, n in terms]]
    return cert, gens


def _lower_k(cert, gens):
    cert["k"] -= 1
    return cert, gens


def _drop_generator(cert, gens):
    return cert, gens[1:]


MUTATIONS = {
    "perturb-coefficient": _perturb,
    "drop-cofactor": _drop_cofactor,
    "short-exponents": _short_exponents,
    "lower-k": _lower_k,
    "drop-generator": _drop_generator,
}


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("name", NAMES)
def test_mutated_certificate_is_rejected(closures, name, mutation):
    _, _, by_name = closures
    _, _, _, gens, dist = by_name[name]
    cert, gens = MUTATIONS[mutation](copy.deepcopy(step3._certificates()[name]), list(gens))
    assert not step3._certifies(cert, gens, dist)


@pytest.mark.parametrize(
    "mutation, name",
    [
        ("perturb-coefficient", "groebner-main"),
        ("drop-cofactor", "groebner-special-t-1/2"),
        ("lower-k", "groebner-equal-pair"),
        ("drop-generator", "groebner-special-t-8"),
    ],
)
def test_verify_names_the_mutated_closure(monkeypatch, mutation, name):
    data = copy.deepcopy(step3._certificates())
    real_closures = step3.step3_closures

    def mutated_closures(pt, q2):
        out = []
        for c in real_closures(pt, q2):
            if c[0] == name:
                data[name], gens = MUTATIONS[mutation](data[name], list(c[3]))
                c = c[:3] + (gens, c[4])
            out.append(c)
        return out

    monkeypatch.setattr(step3, "_certificates", lambda: data)
    monkeypatch.setattr(step3, "step3_closures", mutated_closures)
    with pytest.raises(fusion.VerificationError, match="^%s failed" % re.escape(name)):
        fusion.verify_step3_generic()


def test_missing_certificate_is_rejected(monkeypatch):
    data = dict(step3._certificates())
    del data["groebner-special-t-9/2"]
    monkeypatch.setattr(step3, "_certificates", lambda: data)
    with pytest.raises(fusion.VerificationError, match="^groebner-special-t-9/2 failed"):
        fusion.verify_step3_generic()


def test_closures_solve_nothing_at_run_time():
    names = set()
    for fn in (step3.verify_step3_generic, step3.step3_closures, step3._certifies):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert not names & {"solve", "nullspace", "groebner", "linalg", "sympy"}
