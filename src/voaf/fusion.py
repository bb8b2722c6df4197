"""Fusion-rule decision engine for the orbifold modules.

Every irreducible module M carries a small set of generators whose images in
the associated bimodule control all fusion rules with M in the first slot.
The quartic relation of the vacuum algebra, its mirror image under the
anti-involution, the degenerate (circle) relations and the Virasoro
singular-vector relations each contract to a polynomial condition on the top
weights (a_L, a_N, b_L) of the other two modules.  A fusion rule can be
nonzero only when all conditions vanish; explicit intertwining operators
supply the matching lower bounds.  This module assembles the polynomial
systems from first principles, decides every triple of concrete labels and
emits machine-checkable certificates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg, virasoro, zhu
from .fock import FORMAL, FockVector, Sector, basis_at_degree
from .labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus
from .multipoly import MultiPoly
from .scalars import Scalar, rational_sqrt
from .vertexops import J_state, mode, vacuum


class UnsupportedParameter(ValueError):
    """Raised when decide() receives a formal charge parameter."""


class Inconclusive(RuntimeError):
    """No arrangement of the triple yields a decisive constraint system."""


_X = MultiPoly.var("x")
_Z = MultiPoly.var("z")
_S = MultiPoly.var("s")

# charge values whose constraint systems are built from bespoke generator
# sets rather than the generic formal-charge substitution
_SPECIAL_S = (Fraction(1, 2), Fraction(2), Fraction(9, 2))


def _h3h1() -> FockVector:
    """The quartic generator h(-3)h(-1)|0> of the relation element."""
    return FockVector.basis(Sector.untwisted(None), (Fraction(3), Fraction(1)))


def _relation_head() -> MultiPoly:
    """Contraction of J - 4*omega*omega - 17*omega on the generator column.

    J and omega act on the generator class through the top-weight
    coordinates z = b and x = a, giving z - 4x^2 - 17x.
    """
    return _Z - _X * _X * 4 - _X * 17


# ---------------------------------------------------------------------------
# generators


def _primary_vectors(sector: Sector, degree: Fraction, parity: Optional[int]) -> List[FockVector]:
    """Basis of vectors of the given degree killed by L(1) and L(2)."""
    parts = basis_at_degree(sector, degree, parity)
    mod = sector.scalar_mod()
    zero, one = Scalar.zero(mod), Scalar.one(mod)
    images = []
    for p in parts:
        v = FockVector.basis(sector, p)
        images.append((virasoro.L(1, v), virasoro.L(2, v)))
    rows: List[List[Scalar]] = []
    for k in (0, 1):
        out_parts = sorted({q for img in images for q in img[k].terms})
        rows.extend(
            [img[k].terms.get(q, zero) for img in images] for q in out_parts
        )
    kernel = linalg.nullspace(rows, len(parts), zero, one)
    out = []
    for vec in kernel:
        fv = FockVector.zero(sector)
        for p, c in zip(parts, vec):
            fv = fv + FockVector.basis(sector, p).scale(c)
        out.append(fv)
    return out


def _aux_generator(label: ModuleLabel, degree: Fraction, parity: Optional[int]) -> FockVector:
    prim = _primary_vectors(label.sector(), degree, parity)
    if len(prim) != 1:
        raise RuntimeError(
            "expected a unique auxiliary generator for %s at degree %s" % (label, degree)
        )
    return prim[0]


def generator_set(label: ModuleLabel) -> List[FockVector]:
    """Generators of the bimodule attached to the module.

    All modules are generated by the top vector alone except the charge
    s=1/2 module and the odd twisted module, which need one extra lowest
    weight vector each.
    """
    v = label.top_vector()
    if label.kind == "Mlam" and label.s == Fraction(1, 2):
        return [v, _aux_generator(label, Fraction(2), None)]
    if label.kind == "Mtheta-":
        return [v, _aux_generator(label, Fraction(3, 2), 1)]
    return [v]


def _expansion_generators(label: ModuleLabel) -> List[FockVector]:
    """Generators used to expand relation elements as Virasoro descendants.

    The Virasoro span of the top vector misses one lowest-weight vector in a
    few modules; the relation expansion needs it even where the bimodule
    bound does not.
    """
    gens = generator_set(label)
    if label.kind == "Mlam" and label.s == Fraction(2):
        gens = gens + [_aux_generator(label, Fraction(3), None)]
    elif label.kind == "Mtheta+":
        gens = gens + [_aux_generator(label, Fraction(3), 0)]
    elif label.kind == "M+":
        gens = gens + [J_state()]
    return gens


def verify_generator_hypothesis(label: ModuleLabel, nmax: int = 3) -> bool:
    """Check that J_n g stays inside the Virasoro span of the generators."""
    gens = generator_set(label)
    J = J_state()
    for g in gens:
        for n in range(1, nmax + 1):
            img = mode(J, n, g)
            if img.is_zero():
                continue
            try:
                virasoro.express_in_descendants(img, gens)
            except virasoro.NotInSpan:
                return False
    return True


# ---------------------------------------------------------------------------
# constraint systems


@dataclass(frozen=True)
class ConstraintRow:
    """One polynomial condition on (x, y, z) = (a_L, a_N, b_L).

    Mirror rows are evaluated at (a_N, a_L, b_N) instead, with per-column
    signs given by the anti-involution phases of the generators.
    """

    name: str
    polys: Tuple[MultiPoly, ...]
    mirror: bool = False
    signs: Tuple[int, ...] = ()


@dataclass
class ConstraintSystem:
    label: ModuleLabel
    ngens: int  # bimodule generator count: fusion rule upper bound
    rows: List[ConstraintRow]

    @property
    def ncols(self) -> int:
        return len(self.rows[0].polys) if self.rows else 1


def _star_row_polys(label: ModuleLabel) -> Tuple[List[MultiPoly], Tuple[int, ...]]:
    """Contraction polynomials (one per expansion generator) of the quartic
    relation element multiplied onto the top vector, and the mirror signs."""
    gens = _expansion_generators(label)
    sector = label.sector()
    offset = sector.weight_offset_rat()
    degs = [g.max_degree() for g in gens]
    base_weights = [offset + d for d in degs]
    for scale_aux in (False, True):
        use = list(gens)
        if scale_aux:
            use = [gens[0]] + [g.scale(sector.lam_scalar()) for g in gens[1:]]
        rel = zhu.star_left(_h3h1(), use[0])
        coords = virasoro.express_in_descendants(rel, use)
        try:
            pairs = zhu.coords_to_polys(coords, base_weights, len(use))
            break
        except ValueError:
            if scale_aux:
                raise
    cols = []
    for i, (num, den) in enumerate(pairs):
        c = den.constant()
        poly = num * Fraction(9, 1) * (Fraction(1) / c)
        if i == 0:
            poly = poly + _relation_head()
        cols.append(poly)
    signs = tuple((-1) ** int(d - degs[0]) for d in degs)
    return cols, signs


def _lam_parts(c: Scalar) -> Tuple[Fraction, Fraction]:
    """The rational pair (c0, c1) with c = c0 + c1*lam.

    In a charged sector lam**2 = s is not a rational square, so the pair is
    unique; in the vacuum sector every coefficient must be rational.
    """
    if c.mod is None:
        return c.as_rat(), Fraction(0)
    c0, c1 = c.num + (Fraction(0),) * (2 - len(c.num))
    return c0, c1


def _singular_row_poly(label: ModuleLabel) -> Optional[MultiPoly]:
    """Contraction polynomial of the Virasoro singular-vector relation on
    the top vector, when the top weight is a quarter-square n^2/4.

    At c = 1 and h = n^2/4 the singular vector has rational coefficients,
    while lam = n/sqrt(2) is irrational, so a rational combination of the
    word images vanishes exactly when its lam^0 and lam^1 parts do: the
    kernel is found over Q from those two matrices stacked.
    """
    sector = label.sector()
    v = label.top_vector()
    wt = sector.weight_offset_rat() + v.max_degree()
    root = rational_sqrt(4 * wt)
    if root is None or root.denominator != 1:
        return None
    level = root.numerator + 1
    words = virasoro.words_at_level(0, level)
    images = [virasoro.L_word(w.ms, v) for w in words]
    zero = Fraction(0)
    split = [{p: _lam_parts(c) for p, c in img.terms.items()} for img in images]
    parts = sorted({p for img in images for p in img.terms})
    rows = [
        [cs.get(p, (zero, zero))[i] for cs in split] for i in (0, 1) for p in parts
    ]
    kernel = linalg.nullspace(rows, len(words), zero, Fraction(1))
    if len(kernel) != 1:
        return None
    poly = MultiPoly()
    for w, c in zip(words, kernel[0]):
        if c:
            poly = poly + zhu.descendant_to_poly(w.ms, wt) * c
    # the combination must actually annihilate the top vector
    check = FockVector.zero(sector)
    for img, c in zip(images, kernel[0]):
        check = check + img.scale(c)
    if not check.is_zero():
        return None
    return poly


def generic_relation_polys() -> Tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """Formal-charge contraction data for a generic charged module.

    Returns (f_num, f_den, g_num, g_den): the quartic star relation as
    f_num/f_den and the circle relation as g_num/g_den, polynomials in
    x, y, z and the squared charge s.
    """
    if not hasattr(generic_relation_polys, "_cache"):
        sec = Sector.untwisted(FORMAL)
        v = FockVector.basis(sec)
        base = [_S * Fraction(1, 2)]
        rel = zhu.star_left(_h3h1(), v)
        coords = virasoro.express_in_descendants(rel, [v])
        ((num, den),) = zhu.coords_to_polys(coords, base, 1, formal_s=True)
        f_num = _relation_head() * den + num * 9
        crel = zhu.circ(_h3h1(), v)
        ccoords = virasoro.express_in_descendants(crel, [v])
        ((gnum, gden),) = zhu.coords_to_polys(ccoords, base, 1, formal_s=True)
        generic_relation_polys._cache = (f_num, den, gnum, gden)
    return generic_relation_polys._cache


def second_circle_relation_polys() -> Tuple[MultiPoly, MultiPoly]:
    """Formal-charge contraction of the relation h(-2)^2|0> circ v."""
    if not hasattr(second_circle_relation_polys, "_cache"):
        sec = Sector.untwisted(FORMAL)
        v = FockVector.basis(sec)
        a = FockVector.basis(Sector.untwisted(None), (Fraction(2), Fraction(2)))
        crel = zhu.circ(a, v)
        coords = virasoro.express_in_descendants(crel, [v])
        ((num, den),) = zhu.coords_to_polys(coords, [_S * Fraction(1, 2)], 1, formal_s=True)
        second_circle_relation_polys._cache = (num, den)
    return second_circle_relation_polys._cache


_SYSTEM_CACHE: Dict[ModuleLabel, ConstraintSystem] = {}


def constraint_system(label: ModuleLabel) -> ConstraintSystem:
    """The cached polynomial constraint system for M in the first slot."""
    if label in _SYSTEM_CACHE:
        return _SYSTEM_CACHE[label]
    rows: List[ConstraintRow] = []
    if label.kind == "Mlam" and label.s not in _SPECIAL_S:
        if label.s is FORMAL:
            raise UnsupportedParameter("formal charge has no concrete system")
        sub = {"s": MultiPoly.const(label.s)}
        f_num, f_den, g_num, g_den = generic_relation_polys()
        if f_den.evaluate({"s": label.s}) == 0:
            raise RuntimeError("generic star relation degenerates at s=%s" % label.s)
        f = f_num.subs(sub)
        rows.append(ConstraintRow("star", (f,), False, (1,)))
        rows.append(ConstraintRow("star-mirror", (f,), True, (1,)))
        if g_den.evaluate({"s": label.s}) != 0:
            g = g_num.subs(sub)
            rows.append(ConstraintRow("circle", (g,), False, (1,)))
            rows.append(ConstraintRow("circle-mirror", (g,), True, (1,)))
        sing = _singular_row_poly(label)
        if sing is not None:
            rows.append(ConstraintRow("singular-vector", (sing,), False, (1,)))
            rows.append(ConstraintRow("singular-vector-mirror", (sing,), True, (1,)))
        system = ConstraintSystem(label, 1, rows)
    elif label.kind == "Mlam" and label.s == Fraction(9, 2):
        sing = _singular_row_poly(label)
        if sing is None:
            raise RuntimeError("missing singular-vector relation at s=9/2")
        rows.append(ConstraintRow("singular-vector", (sing,), False, (1,)))
        rows.append(ConstraintRow("singular-vector-mirror", (sing,), True, (1,)))
        system = ConstraintSystem(label, 1, rows)
    elif label.kind == "M+":
        cols, signs = _star_row_polys(label)
        rows.append(ConstraintRow("star", tuple(cols), False, signs))
        rows.append(ConstraintRow("star-mirror", tuple(cols), True, signs))
        system = ConstraintSystem(label, 1, rows)
    else:
        cols, signs = _star_row_polys(label)
        rows.append(ConstraintRow("star", tuple(cols), False, signs))
        rows.append(ConstraintRow("star-mirror", tuple(cols), True, signs))
        ncols = len(cols)
        sing = _singular_row_poly(label)
        if sing is not None:
            pad = (MultiPoly(),) * (ncols - 1)
            rows.append(ConstraintRow("singular-vector", (sing,) + pad, False, signs))
            rows.append(
                ConstraintRow("singular-vector-mirror", (sing,) + pad, True, signs)
            )
        ngens = len(generator_set(label))
        system = ConstraintSystem(label, ngens, rows)
    _SYSTEM_CACHE[label] = system
    return system


def _evaluate_system(
    system: ConstraintSystem, n: ModuleLabel, l: ModuleLabel
) -> Tuple[List[List[Fraction]], List[str]]:
    aN, bN = n.a_M(), n.b_M()
    aL, bL = l.a_M(), l.b_M()
    matrix: List[List[Fraction]] = []
    names: List[str] = []
    for row in system.rows:
        if row.mirror:
            point = {"x": aN, "y": aL, "z": bN}
            signs = row.signs
        else:
            point = {"x": aL, "y": aN, "z": bL}
            signs = (1,) * len(row.polys)
        vals = [
            Fraction(p.evaluate(point)) * sign if not p.is_zero() else Fraction(0)
            for p, sign in zip(row.polys, signs)
        ]
        matrix.append(vals)
        names.append(row.name)
    return matrix, names


# ---------------------------------------------------------------------------
# witnesses


def _sym3(s: Fraction, t: Fraction, u: Fraction) -> Fraction:
    return s * s + t * t + u * u - 2 * s * t - 2 * s * u - 2 * t * u


def find_witness(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> Optional[dict]:
    """A nonzero-intertwiner witness for the triple, or None.

    Tags: "Untwisted" (charged triple with matching charges),
    "VacuumAction" (module structure over the even subalgebra, including the
    theta-involution pairings), "TwistedProjection" (charged operator acting
    on a twisted module, hitting both parity components).
    """
    labs = [m, n, l]
    twisted = [x for x in labs if x.kind.startswith("Mtheta")]
    plain = [x for x in labs if not x.kind.startswith("Mtheta")]
    if len(twisted) in (1, 3):
        return None
    if not twisted:
        charged = [x for x in labs if x.kind == "Mlam"]
        if len(charged) == 3:
            s, t, u = (x.s for x in charged)
            if _sym3(s, t, u) == 0:
                return {
                    "tag": "Untwisted",
                    "detail": "charge closure: squared charges %s satisfy the"
                    " symmetric vanishing condition" % ([str(s), str(t), str(u)],),
                }
            return None
        if len(charged) == 2:
            if charged[0].s == charged[1].s:
                return {
                    "tag": "VacuumAction",
                    "detail": "equal squared charges %s paired through a"
                    " vacuum-kind module" % str(charged[0].s),
                }
            return None
        if len(charged) == 1:
            return None
        odd = sum(1 for x in labs if x.kind == "M-")
        if odd % 2 == 0:
            return {
                "tag": "VacuumAction",
                "detail": "parity-consistent vacuum-kind triple",
            }
        return None
    # exactly two twisted labels
    other = plain[0]
    if other.kind == "M+":
        if twisted[0].kind == twisted[1].kind:
            return {
                "tag": "VacuumAction",
                "detail": "identity action on a twisted module",
            }
        return None
    if other.kind == "M-":
        if twisted[0].kind != twisted[1].kind:
            return {
                "tag": "VacuumAction",
                "detail": "odd vacuum-kind action exchanging twisted parities",
            }
        return None
    return {
        "tag": "TwistedProjection",
        "detail": "charged operator (squared charge %s) on a twisted module;"
        " both parity projections are nonzero" % str(other.s),
    }


def verify_witness(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> bool:
    """Recompute a nonzero leading coefficient for the triple's witness."""
    w = find_witness(m, n, l)
    if w is None:
        return False
    labs = [m, n, l]
    if w["tag"] == "TwistedProjection":
        s = next(x.s for x in labs if x.kind == "Mlam")
        sec = Sector.untwisted(s)
        a = FockVector.basis(sec)
        tsec = Sector.twisted_sector()
        tv = FockVector.basis(tsec)
        from .vertexops import vertex_op_coeff

        even = vertex_op_coeff(a, tv, Fraction(0))
        oddc = vertex_op_coeff(a, tv, Fraction(1, 2))
        return (not even.is_zero()) and (not oddc.is_zero())
    if w["tag"] == "Untwisted":
        # representative with rational charges: e acting on e gives the
        # doubled-charge top vector with unit leading coefficient
        sec = Sector.untwisted(Fraction(1))
        a = FockVector.basis(sec)
        h = FockVector.basis(Sector.untwisted(None), (Fraction(1),))
        img = mode(h, 0, a)
        return not img.is_zero()
    # VacuumAction
    if any(x.kind.startswith("Mtheta") for x in labs):
        tv = FockVector.basis(Sector.twisted_sector())
        if any(x.kind == "M-" for x in labs):
            h = FockVector.basis(Sector.untwisted(None), (Fraction(1),))
            img = mode(h, Fraction(-1, 2), tv)
            return not img.is_zero()
        return mode(vacuum(), -1, tv) == tv
    charged = [x for x in labs if x.kind == "Mlam"]
    if charged:
        sec = charged[0].sector()
        e = FockVector.basis(sec)
        if any(x.kind == "M-" for x in labs):
            h = FockVector.basis(Sector.untwisted(None), (Fraction(1),))
            img = mode(h, 0, e)  # acts by the charge, nonzero
            return not img.is_zero()
        return mode(vacuum(), -1, e) == e
    h = FockVector.basis(Sector.untwisted(None), (Fraction(1),))
    pairing = mode(h, 1, h)
    action = mode(h, -1, vacuum())
    return (not pairing.is_zero()) and (not action.is_zero())


# ---------------------------------------------------------------------------
# decisions


@dataclass
class FusionCertificate:
    m: ModuleLabel
    n: ModuleLabel
    l: ModuleLabel
    verdict: int
    reason: dict
    permutation: List[str]

    def as_dict(self) -> dict:
        return {
            "m": str(self.m),
            "n": str(self.n),
            "l": str(self.l),
            "verdict": self.verdict,
            "reason": self.reason,
            "permutation": list(self.permutation),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


_SLOT_NAMES = ("m", "n", "l")


def _arrangements(m, n, l):
    labs = (m, n, l)
    seen = []
    for perm in itertools.permutations(range(3)):
        arr = tuple(labs[i] for i in perm)
        names = [_SLOT_NAMES[i] for i in perm]
        seen.append((arr, names))
    return seen


def _slot_priority(label: ModuleLabel) -> int:
    if label.kind == "M+":
        return 0
    if label.kind == "M-":
        return 1
    if label.kind == "Mlam":
        if label.s == Fraction(2):
            return 3
        if label.s == Fraction(9, 2):
            return 4
        if label.s == Fraction(1, 2):
            return 5
        return 2
    if label.kind == "Mtheta+":
        return 6
    return 7


def _two_generator(label: ModuleLabel) -> bool:
    return (label.kind == "Mlam" and label.s == Fraction(1, 2)) or label.kind == "Mtheta-"


def _frac_str(x) -> str:
    return str(Fraction(x))


def _prove_zero(M: ModuleLabel, N: ModuleLabel, L: ModuleLabel) -> Optional[dict]:
    """A certificate that the fusion rule for the arrangement is zero."""
    if M.kind == "M+":
        # the first slot acts through its top-weight invariants alone;
        # distinct labels are separated by (a, b)
        if N.a_M() != L.a_M() or N.b_M() != L.b_M():
            return {
                "type": "invariant-separation",
                "detail": "vacuum-slot fusion forces equal top weights",
                "point": {
                    "a_N": _frac_str(N.a_M()),
                    "b_N": _frac_str(N.b_M()),
                    "a_L": _frac_str(L.a_M()),
                    "b_L": _frac_str(L.b_M()),
                },
            }
        return None
    system = constraint_system(M)
    matrix, names = _evaluate_system(system, N, L)
    ncols = system.ncols
    one = Fraction(1)
    if system.ngens == 1:
        if ncols == 1:
            for row, name in zip(matrix, names):
                if row[0] != 0:
                    return {
                        "type": "nonzero-constraint",
                        "row": name,
                        "value": _frac_str(row[0]),
                    }
            return None
        full = linalg.rank(matrix, one)
        rest = linalg.rank([row[1:] for row in matrix], one)
        if full == rest + 1:
            return {
                "type": "generator-column-forced",
                "detail": "row space forces the generator coordinate to zero",
                "rows": names,
                "matrix": [[_frac_str(v) for v in row] for row in matrix],
            }
        return None
    if linalg.rank(matrix, one) == ncols:
        det = None
        for (i, ri), (j, rj) in itertools.combinations(enumerate(matrix), 2):
            d = ri[0] * rj[1] - ri[1] * rj[0]
            if d != 0:
                det = (names[i], names[j], d)
                break
        return {
            "type": "full-rank",
            "detail": "both generator coordinates forced to zero",
            "determinant": {
                "rows": [det[0], det[1]],
                "value": _frac_str(det[2]),
            }
            if det
            else None,
            "matrix": [[_frac_str(v) for v in row] for row in matrix],
        }
    return None


def decide(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> FusionCertificate:
    """Decide the fusion rule for the ordered triple and certify it."""
    for lab in (m, n, l):
        if lab.kind == "Mlam" and lab.s is FORMAL:
            raise UnsupportedParameter("decide() requires concrete charges")
    witness = find_witness(m, n, l)
    arrangements = sorted(
        enumerate(_arrangements(m, n, l)),
        key=lambda t: (_slot_priority(t[1][0][0]), t[0]),
    )
    if witness is not None:
        for _, (arr, names) in arrangements:
            if not _two_generator(arr[0]):
                return FusionCertificate(
                    m, n, l, 1,
                    {"witness": witness, "bound": 1},
                    names,
                )
        # every arrangement has a two-generator first slot; a rank-one
        # constraint system brings the bound from two down to one
        for _, (arr, names) in arrangements:
            system = constraint_system(arr[0])
            matrix, _ = _evaluate_system(system, arr[1], arr[2])
            rk = linalg.rank(matrix, Fraction(1))
            if rk >= 1:
                return FusionCertificate(
                    m, n, l, 1,
                    {
                        "witness": witness,
                        "bound": 2,
                        "rank_argument": "constraint system has rank %d" % rk,
                    },
                    names,
                )
        raise Inconclusive("witness found but no bound-1 argument for (%s,%s,%s)" % (m, n, l))
    for _, (arr, names) in arrangements:
        proof = _prove_zero(*arr)
        if proof is not None:
            return FusionCertificate(m, n, l, 0, proof, names)
    raise Inconclusive("no arrangement decides (%s, %s, %s)" % (m, n, l))


# ---------------------------------------------------------------------------
# tables


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


def charge_closure(lambda_squares: Sequence[Fraction]) -> List[Fraction]:
    """All squared charges reachable as (sqrt(s1) +- sqrt(s2))^2 inside the
    rationals, starting from the given list."""
    base = sorted({Fraction(s) for s in lambda_squares})
    out = set(base)
    for s1 in base:
        for s2 in base:
            r = rational_sqrt(s1 * s2)
            if r is None:
                continue
            for nu in (s1 + s2 + 2 * r, s1 + s2 - 2 * r):
                if nu > 0:
                    out.add(nu)
    return sorted(out)


def base_labels(lambda_squares: Sequence[Fraction]) -> List[ModuleLabel]:
    return (
        [mplus(), mminus()]
        + [mlam(s) for s in sorted(set(Fraction(s) for s in lambda_squares))]
        + [mtheta_plus(), mtheta_minus()]
    )


def full_table(lambda_squares: Sequence[Fraction]) -> List[FusionCertificate]:
    """Certificates for all triples over the labels and their charge closure."""
    base = base_labels(lambda_squares)
    closed = charge_closure(lambda_squares)
    targets = (
        [mplus(), mminus()]
        + [mlam(s) for s in closed]
        + [mtheta_plus(), mtheta_minus()]
    )
    out = []
    for m in base:
        for n in base:
            for l in targets:
                out.append(decide(m, n, l))
    return out


def table_to_csv(certs: Sequence[FusionCertificate]) -> str:
    lines = ["m,n,l,verdict"]
    for c in certs:
        lines.append("%s,%s,%s,%d" % (c.m, c.n, c.l, c.verdict))
    return "\n".join(lines) + "\n"


def table_to_json(certs: Sequence[FusionCertificate]) -> str:
    return json.dumps([c.as_dict() for c in certs], sort_keys=True, indent=1)


# ---------------------------------------------------------------------------
# generic-charge identity suite


class VerificationError(AssertionError):
    """An exact identity of the generic-charge elimination failed."""


def _to_sympy(poly: MultiPoly):
    import sympy

    from .multipoly import VARS

    syms = {v: sympy.Symbol(v) for v in VARS}
    acc = sympy.Integer(0)
    for e, c in poly.terms.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for i, k in enumerate(e):
            if k:
                t *= syms[VARS[i]] ** k
        acc += t
    return acc


def _step3_check(report: Dict[str, str], name: str, ok: bool, detail: str):
    if not ok:
        raise VerificationError("%s failed: %s" % (name, detail))
    report[name] = detail


def verify_step3_generic() -> Dict[str, str]:
    """Machine-check the generic-charge elimination that pins down the
    charged fusion rules.

    Every identity is exact polynomial algebra over the rationals; the first
    failure aborts with a counterexample.  Returns a report mapping check
    names to human-readable confirmations.
    """
    import sympy

    report: Dict[str, str] = {}
    S, T, U = _S, MultiPoly.var("t"), MultiPoly.var("u")
    one = MultiPoly.const(1)

    # --- vacuum-parity slot: symmetrized relation identity -----------------
    f2 = constraint_system(mminus()).rows[0].polys[0]
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
    f_num, f_den, g_num, g_den = generic_relation_polys()
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
    sym = S * S + T * T + U * U - S * T * 2 - S * U * 2 - T * U * 2
    _step3_check(
        report,
        "symmetric-factor-samples",
        sym.evaluate({"s": Fraction(1, 2), "t": Fraction(2), "u": Fraction(1, 2)}) == 0
        and sym.evaluate({"s": Fraction(9), "t": Fraction(16), "u": Fraction(1)}) == 0
        and sym.evaluate({"s": Fraction(1), "t": Fraction(1), "u": Fraction(1)}) != 0,
        "charge-closure factor vanishes exactly at matched charges",
    )
    tri_sub = {"x": T * Fraction(1, 2), "y": U * Fraction(1, 2), "z": T * T - T * Fraction(1, 2)}
    f_tri = f_num.subs(tri_sub)
    pt = f_tri.try_divide(sym)
    _step3_check(
        report,
        "trivariate-star-factor",
        pt is not None,
        "star relation in three charges is divisible by the symmetric factor",
    )
    g_tri = g_num.subs(tri_sub)
    q2 = g_tri.try_divide(sym * (T - U))
    _step3_check(
        report,
        "trivariate-circle-factor",
        q2 is not None,
        "first circle relation divisible by the symmetric factor times (t-u)",
    )
    h_num, h_den = second_circle_relation_polys()
    h_tri = h_num.subs(tri_sub)
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

    # --- Groebner-basis infeasibility closures ------------------------------
    s_, t_, u_, w_ = sympy.symbols("s t u w")
    sp_pt = _to_sympy(pt)
    sp_q2 = _to_sympy(q2)

    def sp_perm(p, a, b, c_):
        return p.subs({s_: a, t_: b, u_: c_}, simultaneous=True)

    perms = [(s_, t_, u_), (s_, u_, t_), (t_, s_, u_), (t_, u_, s_), (u_, s_, t_), (u_, t_, s_)]
    polys = [sp_perm(p, *pr) for p in (sp_pt, sp_q2) for pr in perms]
    sum_constraint = s_ + t_ + u_ + 5
    sat = w_ * (s_ - t_) * (s_ - u_) * (t_ - u_) - 1
    G = sympy.groebner(
        [p.subs(u_, -5 - s_ - t_) for p in polys] + [sat.subs(u_, -5 - s_ - t_)],
        s_, t_, w_, order="grevlex",
    )
    _step3_check(
        report,
        "groebner-main",
        list(G.exprs) == [sympy.Integer(1)],
        "relations + distinctness + charge-sum constraint are infeasible",
    )
    polys_tu = [p.subs(u_, t_) for p in polys]
    G2 = sympy.groebner(
        polys_tu + [w_ * s_ * (s_ - 4 * t_) * (s_ - t_) - 1], s_, t_, w_, order="grevlex"
    )
    _step3_check(
        report,
        "groebner-equal-pair",
        list(G2.exprs) == [sympy.Integer(1)],
        "equal-charge subcase (t=u) with nonvanishing symmetric factor is infeasible",
    )
    sp_sym = _to_sympy(sym)
    for tv in (sympy.Rational(1, 2), sympy.Integer(2), sympy.Rational(9, 2), sympy.Integer(8)):
        special = []
        for p, pr in [(p0, pr0) for p0 in (sp_pt, sp_q2) for pr0 in perms]:
            # rows are only valid when the first-slot charge avoids the
            # bespoke values (and 8 for circle rows)
            first = pr[0]
            banned = (
                (sympy.Rational(1, 2), sympy.Integer(2), sympy.Rational(9, 2))
                if p is sp_pt
                else (sympy.Rational(1, 2), sympy.Integer(2), sympy.Rational(9, 2), sympy.Integer(8))
            )
            if first == t_ and tv in banned:
                continue
            special.append(sp_perm(p, *pr).subs(t_, tv))
        sat_sp = w_ * (s_ - tv) * (u_ - tv) * (s_ - u_) * sp_sym.subs(t_, tv) * s_ * u_ - 1
        G3 = sympy.groebner(special + [sat_sp], s_, u_, w_, order="grevlex")
        _step3_check(
            report,
            "groebner-special-t-%s" % tv,
            list(G3.exprs) == [sympy.Integer(1)],
            "special charge t=%s subcase infeasible" % tv,
        )
    return report
