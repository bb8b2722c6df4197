"""Fusion-rule decision engine for the orbifold modules.

Every irreducible module M carries a small set of generators whose images in
the associated bimodule control all fusion rules with M in the first slot.
The quartic relation of the vacuum algebra, its mirror image under the
anti-involution, the degenerate (circle) relations and the Virasoro
singular-vector relations each contract to a polynomial condition on the top
weights (a_L, a_N, b_L) of the other two modules.  A fusion rule can be
nonzero only when all conditions vanish; explicit intertwining operators
supply the matching lower bounds.  This module reads the polynomial systems
from the data that tools/relation_polys.py derives on Fock vectors, adds the
closed-form singular-vector row of a charged module (a theorem: the vector
vanishes in a unitary module, so no Fock vector is built for it), decides
every triple of concrete labels and emits machine-checkable certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .labels import ModuleLabel, mlam, mminus, mplus, mtheta_minus, mtheta_plus
from .multipoly import MultiPoly, Point
from .scalars import quarter_square_index, rational, rational_sqrt


class Inconclusive(RuntimeError):
    """No arrangement of the triple yields a decisive constraint system."""


_X = MultiPoly.var("x")
_Y = MultiPoly.var("y")


# ---------------------------------------------------------------------------
# constraint systems


class ConstraintRow(NamedTuple):
    """One polynomial condition on (x, y, z) = (a_L, a_N, b_L).

    Mirror rows are evaluated at (a_N, a_L, b_N) instead, with the system's
    per-column signs, the anti-involution phases of the generators.
    """

    name: str
    polys: Tuple[MultiPoly, ...]
    mirror: bool


class ConstraintSystem:
    """The constraint rows of one module in the first slot.  The rows of
    `first` are built with the system: all of them for a module read from
    systems.json, the star pair for a generated one.  A generated system
    then has the circle pair and the singular-vector pair, each built the
    first time a walk reaches it.  So a walk that stops at the first nonzero
    row builds nothing after it, and `rows` is always the full list, in the
    same order.
    """

    def __init__(
        self,
        label: ModuleLabel,
        ngens: int,
        signs: Tuple[int, ...],
        first: List[ConstraintRow],
        generated: bool,
    ):
        self.label = label
        self.ngens = ngens  # bimodule generator count: fusion rule upper bound
        self.ncols = len(signs)  # expansion generator count: one column each
        self.signs = signs
        self.first = first
        self.generated = generated  # rows from relation_polys.json and a closed form

    @functools.cached_property
    def circle(self) -> List[ConstraintRow]:
        return _circle_rows(self.label) if self.generated else []

    @functools.cached_property
    def singular(self) -> List[ConstraintRow]:
        return _singular_rows(self.label) if self.generated else []

    def walk(self) -> Iterator[ConstraintRow]:
        """The rows in order, building each stage when the walk reaches it."""
        yield from self.first
        yield from self.circle
        yield from self.singular

    @property
    def rows(self) -> List[ConstraintRow]:
        return list(self.walk())


def _singular_row_poly(label: ModuleLabel) -> Optional[MultiPoly]:
    """Contraction polynomial of the Virasoro singular-vector relation on
    the top vector, when the top weight is a quarter-square n^2/4.

    At c = 1 and h = n^2/4 the singular vector sits at level r = n + 1 and
    has the Benoit-Saint-Aubin closed form: the sum over compositions
    k_1 + ... + k_m = r of

        (r-1)!^2 (-1)^(r-m) / prod_{i<m} S_i (r - S_i)  L(-k_1)...L(-k_m)|h>

    with S_i = k_1 + ... + k_i.  The coefficient factors over the cut
    points, and S (r - S) is symmetric in S and r - S, so the sum is a path
    over the weight T = 0..r reached by the right-hand factors.  L(-k) at
    weight w contracts to (-1)^(k-1) (x - k y - w) (zhu.descendant_to_poly),
    and these signs cancel (-1)^(r-m).  So p_T, the polynomial at weight T,
    is the cut factor times the sum over j < T of p_j (x - (T - j) y - h - j)
    = (x - T y - h) S_0 + (y - 1) S_1, S_0 and S_1 the sums of p_j and j p_j.
    The vector vanishes in every module here: each is unitary (Kac-Raina,
    s > 0 for a charged one), so a singular vector of the Virasoro submodule
    that the top generates is null for the positive definite contravariant
    form, hence zero.
    """
    wt = label.a_M()
    n = quarter_square_index(wt)
    if n is None:
        return None
    r = n + 1
    s0, s1 = MultiPoly.const(1), MultiPoly()
    for t in range(1, r + 1):
        cut = Fraction(1, t * (r - t)) if t < r else Fraction(math.factorial(r - 1) ** 2)
        poly = (s0 * (_X - _Y * t - wt) + s1 * (_Y - 1)) * cut
        s0, s1 = s0 + poly, s1 + poly * t
    return poly


@functools.cache
def _read_json(name: str):
    """The data file `name` beside this module, which a script in tools/
    writes, parsed on first use; callers must not mutate it."""
    import json

    with open(os.path.join(os.path.dirname(__file__), name), encoding="utf-8") as f:
        return json.load(f)


@functools.cache
def _relation(name: str) -> Tuple[MultiPoly, MultiPoly]:
    """The (numerator, denominator) pair of a relation of a generic charged
    module, from the generated relation_polys.json."""
    relation_polys = _read_json("relation_polys.json")
    return tuple(map(MultiPoly.from_data, relation_polys[name]))


def generic_relation_polys() -> Tuple[MultiPoly, MultiPoly, MultiPoly, MultiPoly]:
    """The relations of a generic charged module as (f_num, f_den, g_num,
    g_den): the quartic star relation f_num/f_den and the circle relation
    g_num/g_den, polynomials in x, y, z and the squared charge s.
    """
    return _relation("star") + _relation("circle")


def _row_pair(name: str, polys: Sequence[MultiPoly]) -> List[ConstraintRow]:
    polys = tuple(polys)
    return [ConstraintRow(name, polys, False), ConstraintRow(name + "-mirror", polys, True)]


@functools.cache
def _fixed(label: ModuleLabel) -> Optional[Tuple[int, Tuple[int, ...], List[ConstraintRow]]]:
    """(ngens, signs, rows) of a module with an entry in the generated
    systems.json, or None; each stored row gives a row and its mirror."""
    entry = _read_json("systems.json").get(str(label))
    if entry is None:
        return None
    rows = []
    for name, polys in entry["rows"].items():
        rows += _row_pair(name, map(MultiPoly.from_data, polys))
    return entry["ngens"], tuple(entry["signs"]), rows


def _ngens(label: ModuleLabel) -> int:
    """The bimodule generator count of the module: from systems.json, and 1
    for every module with no entry there."""
    fixed = _fixed(label)
    return 1 if fixed is None else fixed[0]


_SYSTEM_CACHE: Dict[ModuleLabel, ConstraintSystem] = {}


def _circle_rows(label: ModuleLabel) -> List[ConstraintRow]:
    """The circle pair of a charged module from the generated circle
    relation, or none where its denominator g_den vanishes."""
    g_num, g_den = _relation("circle")
    if g_den.evaluate({"s": label.s}) == 0:
        return []
    return _row_pair("circle", [g_num.subs({"s": MultiPoly.const(label.s)})])


def _singular_rows(label: ModuleLabel) -> List[ConstraintRow]:
    """The singular-vector pair, or none where the module has no such row."""
    sing = _singular_row_poly(label)
    return [] if sing is None else _row_pair("singular-vector", [sing])


def constraint_system(label: ModuleLabel) -> ConstraintSystem:
    """The cached polynomial constraint system for M in the first slot.

    A module with an entry in systems.json, written with relation_polys.json
    by tools/relation_polys.py, takes its generator count, column signs and
    rows from there.  Every other module is a charged M(s) with one
    generator and one column: it takes its star row, and its circle row
    where g_den(s) != 0, from the generated relations at its charge, and the
    singular-vector row wherever it has one.  The star row checks
    f_den(s) != 0.
    """
    system = _SYSTEM_CACHE.get(label)
    if system is not None:
        return system
    fixed = _fixed(label)
    if fixed is not None:
        system = ConstraintSystem(label, *fixed, False)
    else:
        f_num, f_den = _relation("star")
        if f_den.evaluate({"s": label.s}) == 0:
            raise RuntimeError("generic star relation degenerates at s=%s" % label.s)
        star = _row_pair("star", [f_num.subs({"s": MultiPoly.const(label.s)})])
        system = ConstraintSystem(label, 1, (1,), star, True)
    _SYSTEM_CACHE[label] = system
    return system


@functools.cache
def _points(n: ModuleLabel, l: ModuleLabel) -> Tuple[Point, Point]:
    """The evaluation points of the ordinary and the mirror rows, computed
    once per label pair, so the monomial values that evaluate builds at a
    point serve every first slot; callers must not mutate them."""
    aN, aL = n.a_M(), l.a_M()
    return Point({"x": aL, "y": aN, "z": l.b_M()}), Point({"x": aN, "y": aL, "z": n.b_M()})


def _evaluate_system(
    system: ConstraintSystem, n: ModuleLabel, l: ModuleLabel
) -> Tuple[List[List[Fraction]], List[str]]:
    """Every row of the system at the triple's points, a mirror row with the
    system's signs, and the row names."""
    at_l, at_n = _points(n, l)
    signs, rows = system.signs, system.rows
    matrix = [
        [p.evaluate(at_n) * sign for p, sign in zip(row.polys, signs)] if row.mirror
        else [p.evaluate(at_l) for p in row.polys]
        for row in rows
    ]
    return matrix, [row.name for row in rows]


# ---------------------------------------------------------------------------
# witnesses


@functools.cache
def _matched_charges(s: Fraction, t: Fraction) -> Tuple[Fraction, ...]:
    """The positive squared charges (sqrt(s) +- sqrt(t))^2, none when
    sqrt(st) is irrational: for positive s, t and u, u is among them exactly
    when s^2 + t^2 + u^2 - 2st - 2su - 2tu = 0."""
    r = rational_sqrt(s * t)
    if r is None:
        return ()
    return tuple(u for u in (s + t + 2 * r, s + t - 2 * r) if u > 0)


@functools.cache
def _pair_matched_charges(m: ModuleLabel, n: ModuleLabel) -> Tuple[Fraction, ...]:
    """_matched_charges of two charged labels, cached per label pair: a
    label hashes by identity, a Fraction computes its hash at every lookup."""
    return _matched_charges(m.s, n.s)


def find_witness(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> Optional[dict]:
    """A nonzero-intertwiner witness for the triple, or None.

    Tags: "Untwisted" (charged triple with matching charges),
    "VacuumAction" (module structure over the even subalgebra, including the
    theta-involution pairings), "TwistedProjection" (charged operator acting
    on a twisted module, hitting both parity components).  The triple is
    classified by counting its kinds.
    """
    kinds = (m.kind, n.kind, l.kind)
    theta_plus = kinds.count("Mtheta+")
    twisted = theta_plus + kinds.count("Mtheta-")
    charged = kinds.count("Mlam")
    if twisted == 0:
        if charged == 3:
            matched = _pair_matched_charges(m, n)
            if matched and l.s in matched:
                s, t, u = m.s, n.s, l.s
                return {
                    "tag": "Untwisted",
                    "detail": "charge closure: squared charges %s satisfy the"
                    " symmetric vanishing condition" % ([str(s), str(t), str(u)],),
                }
            return None
        if charged == 2:
            s, t = (x.s for x in (m, n, l) if x.kind == "Mlam")
            if s == t:
                return {
                    "tag": "VacuumAction",
                    "detail": "equal squared charges %s paired through a"
                    " vacuum-kind module" % str(s),
                }
            return None
        if charged == 0 and kinds.count("M-") % 2 == 0:
            return {"tag": "VacuumAction", "detail": "parity-consistent vacuum-kind triple"}
        return None
    if twisted != 2:
        return None
    if charged:
        (s,) = (x.s for x in (m, n, l) if x.kind == "Mlam")
        return {
            "tag": "TwistedProjection",
            "detail": "charged operator (squared charge %s) on a twisted module;"
            " both parity projections are nonzero" % str(s),
        }
    same = theta_plus != 1  # both Mtheta+ or both Mtheta-
    if "M+" in kinds:
        if same:
            return {"tag": "VacuumAction", "detail": "identity action on a twisted module"}
        return None
    if same:
        return None
    return {"tag": "VacuumAction", "detail": "odd vacuum-kind action exchanging twisted parities"}


# ---------------------------------------------------------------------------
# decisions


class FusionCertificate:
    """The verdict on the ordered triple (m, n, l), its reason, and the
    permutation of the slots that the reason argues about."""

    __slots__ = ("m", "n", "l", "verdict", "reason", "permutation", "__weakref__")

    def __init__(self, m: ModuleLabel, n: ModuleLabel, l: ModuleLabel, verdict: int,
                 reason: dict, permutation: List[str]):
        self.m, self.n, self.l = m, n, l
        self.verdict = verdict
        self.reason = reason
        self.permutation = permutation

    def _fields(self) -> tuple:
        return (self.m, self.n, self.l, self.verdict, self.reason, self.permutation)

    def __eq__(self, other):
        if type(other) is not FusionCertificate:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return ("FusionCertificate(m=%r, n=%r, l=%r, verdict=%r, reason=%r, permutation=%r)"
                % self._fields())

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
        import json

        return json.dumps(self.as_dict(), sort_keys=True)


# the six arrangements of a triple, in a fixed order: the slot that comes
# first, the reordering of the triple, and the slot names in their new order
_ARRANGEMENTS = tuple(
    (perm[0], operator.itemgetter(*perm), ["mnl"[i] for i in perm])
    for perm in itertools.permutations(range(3))
)
_KIND_PRIORITY = {"M+": 0, "M-": 1, "Mtheta+": 6, "Mtheta-": 7}
_CHARGE_PRIORITY = {Fraction(2): 3, Fraction(9, 2): 4, Fraction(1, 2): 5}


@functools.cache
def _slot_priority(label: ModuleLabel) -> int:
    if label.kind == "Mlam":
        return _CHARGE_PRIORITY.get(label.s, 2)
    return _KIND_PRIORITY[label.kind]


@functools.cache
def _arrangement_order(priority: Tuple[int, int, int]) -> tuple:
    """The arrangements, by the priority of the slot that each puts first;
    the sort is stable, so ties keep the fixed order."""
    return tuple(sorted(_ARRANGEMENTS, key=lambda a: priority[a[0]]))


def _prove_zero(M: ModuleLabel, N: ModuleLabel, L: ModuleLabel) -> Optional[dict]:
    """A certificate that the fusion rule for the arrangement is zero."""
    if M.kind == "M+":
        # the first slot acts through its top-weight invariants alone;
        # distinct labels are separated by (a, b)
        at_l, at_n = _points(N, L)  # (a_L, a_N, b_L) and (a_N, a_L, b_N)
        if at_l["x"] != at_l["y"] or at_l["z"] != at_n["z"]:
            return {
                "type": "invariant-separation",
                "detail": "vacuum-slot fusion forces equal top weights",
                "point": {
                    "a_N": str(at_l["y"]),
                    "b_N": str(at_n["z"]),
                    "a_L": str(at_l["x"]),
                    "b_L": str(at_l["z"]),
                },
            }
        return None
    system = constraint_system(M)
    ncols = system.ncols
    if system.ngens == 1 and ncols == 1:
        # the certificate quotes the first row that does not vanish, so the
        # walk stops there and later rows are neither built nor evaluated;
        # a lone column is the first generator's, whose sign is +1
        at_l, at_n = _points(N, L)
        for row in system.walk():
            value = row.polys[0].evaluate(at_n if row.mirror else at_l)
            if value:
                return {"type": "nonzero-constraint", "row": row.name, "value": str(value)}
        return None
    matrix, names = _evaluate_system(system, N, L)
    if system.ngens == 1:
        full = linalg.rank(matrix)
        rest = linalg.rank([row[1:] for row in matrix])
        if full == rest + 1:
            return {
                "type": "generator-column-forced",
                "detail": "row space forces the generator coordinate to zero",
                "rows": names,
                "matrix": [[str(v) for v in row] for row in matrix],
            }
        return None
    if linalg.rank(matrix) == ncols:
        # full column rank >= 2 leaves a nonzero minor on the first two columns
        for (i, ri), (j, rj) in itertools.combinations(enumerate(matrix), 2):
            d = ri[0] * rj[1] - ri[1] * rj[0]
            if d != 0:
                break
        return {
            "type": "full-rank",
            "detail": "both generator coordinates forced to zero",
            "determinant": {"rows": [names[i], names[j]], "value": str(d)},
            "matrix": [[str(v) for v in row] for row in matrix],
        }
    return None


def _bound_one(witness: dict, M: ModuleLabel, N: ModuleLabel, L: ModuleLabel) -> Optional[dict]:
    """A bound-1 reason for the witnessed arrangement: one bimodule generator
    in the first slot, or two and a constraint system of rank >= 1."""
    if _ngens(M) == 1:
        return {"witness": witness, "bound": 1}
    matrix, _ = _evaluate_system(constraint_system(M), N, L)
    rk = linalg.rank(matrix)
    if rk >= 1:
        argument = "constraint system has rank %d" % rk
        return {"witness": witness, "bound": 2, "rank_argument": argument}
    return None


def decide(m: ModuleLabel, n: ModuleLabel, l: ModuleLabel) -> FusionCertificate:
    """Decide the fusion rule for the ordered triple and certify it: one
    attempt per arrangement, until one gives a reason."""
    labs = (m, n, l)
    witness = find_witness(m, n, l)
    order = _arrangement_order((_slot_priority(m), _slot_priority(n), _slot_priority(l)))
    if witness is None:
        verdict, attempt = 0, _prove_zero
    else:
        verdict, attempt = 1, functools.partial(_bound_one, witness)
        # a stable sort would put one-generator first slots first; the first
        # decides at bound 1 alone, and the slots after it build no generators
        first = next((a for a in order if _ngens(labs[a[0]]) == 1), None)
        order = order if first is None else (first,)
    for _, arrange, names in order:
        reason = attempt(*arrange(labs))
        if reason is not None:
            return FusionCertificate(m, n, l, verdict, reason, list(names))
    if witness is None:
        raise Inconclusive("no arrangement decides (%s, %s, %s)" % (m, n, l))
    raise Inconclusive("witness found but no bound-1 argument for (%s,%s,%s)" % (m, n, l))


# ---------------------------------------------------------------------------
# tables


def charge_closure(lambda_squares: Sequence[Fraction]) -> List[Fraction]:
    """All squared charges reachable as (sqrt(s1) +- sqrt(s2))^2 inside the
    rationals, starting from the given list."""
    base = sorted({rational(s) for s in lambda_squares})
    out = set(base)
    for s1 in base:
        for s2 in base:
            out.update(_matched_charges(s1, s2))
    return sorted(out)


def base_labels(lambda_squares: Sequence[Fraction]) -> List[ModuleLabel]:
    return (
        [mplus(), mminus()]
        + [mlam(s) for s in sorted(set(map(rational, lambda_squares)))]
        + [mtheta_plus(), mtheta_minus()]
    )


def full_table(lambda_squares: Sequence[Fraction]) -> Iterator[FusionCertificate]:
    """Certificates for all triples over the labels and their charge
    closure, in the order (m, n, l); each triple is decided when the
    iterator reaches it, and the table keeps none of them."""
    base = base_labels(lambda_squares)
    targets = base[:2] + [mlam(s) for s in charge_closure(lambda_squares)] + base[-2:]
    for m in base:
        for n in base:
            for l in targets:
                yield decide(m, n, l)


def table_to_csv(certs: Iterable[FusionCertificate]) -> str:
    lines = ["m,n,l,verdict"]
    for c in certs:
        lines.append("%s,%s,%s,%d" % (c.m, c.n, c.l, c.verdict))
    return "\n".join(lines) + "\n"


# The standard library's layout of a certificate one container deep and of
# the reasons that tables quote most, two deep, with the JSON texts of their
# strings left as %s.
_CERTIFICATE = (
    '{\n  "l": %s,\n  "m": %s,\n  "n": %s,\n  "permutation": %s,\n  "reason": %s,\n'
    '  "verdict": %d\n }'
)
_NONZERO_CONSTRAINT = '{\n   "row": %s,\n   "type": "nonzero-constraint",\n   "value": %s\n  }'
_INVARIANT_SEPARATION = (
    '{\n   "detail": %s,\n   "point": {\n    "a_L": %s,\n    "a_N": %s,\n    "b_L": %s,\n'
    '    "b_N": %s\n   },\n   "type": "invariant-separation"\n  }'
)
_WITNESS = '{\n   "bound": 1,\n   "witness": {\n    "detail": %s,\n    "tag": %s\n   }\n  }'


_NONZERO_KEYS = {"type", "row", "value"}
_SEPARATION_KEYS = {"type", "detail", "point"}
_POINT_KEYS = {"a_L", "a_N", "b_L", "b_N"}
_WITNESS_KEYS = {"bound", "witness"}
_WITNESS_FIELDS = {"detail", "tag"}


def _reason_text(reason: dict, esc) -> str:
    """The JSON text of a reason two containers deep.

    A nonzero constraint, an invariant separation and a bound-1 witness
    fill their templates when they have exactly the keys that decide()
    gives them; their other values must be str, as decide() makes them
    (the escaper raises TypeError on any other type).  Every other reason
    is the standard library's text, indented to its depth.  `esc` is the
    string escaper."""
    kind = reason.get("type")
    if kind == "nonzero-constraint" and reason.keys() == _NONZERO_KEYS:
        return _NONZERO_CONSTRAINT % (esc(reason["row"]), esc(reason["value"]))
    if kind == "invariant-separation" and reason.keys() == _SEPARATION_KEYS:
        p = reason["point"]
        if type(p) is dict and p.keys() == _POINT_KEYS:
            return _INVARIANT_SEPARATION % (
                esc(reason["detail"]),
                esc(p["a_L"]), esc(p["a_N"]), esc(p["b_L"]), esc(p["b_N"]),
            )
    if reason.keys() == _WITNESS_KEYS and type(reason["bound"]) is int and reason["bound"] == 1:
        w = reason["witness"]
        if type(w) is dict and w.keys() == _WITNESS_FIELDS:
            return _WITNESS % (esc(w["detail"]), esc(w["tag"]))
    import json

    # moved two containers deep: JSON text holds no raw newline
    return json.dumps(reason, sort_keys=True, indent=1).replace("\n", "\n  ")


def table_to_json(certs: Iterable[FusionCertificate]) -> str:
    """The certificates as one indented JSON list, the standard library's
    json.dumps(..., sort_keys=True, indent=1) of their as_dict().

    Each certificate is rendered as soon as the iterator yields it and then
    dropped (map holds no reference to it), so only the texts are kept until
    the end.  The texts of the labels and permutations are escaped once per
    table.
    """
    # the standard library's C string escaper, bound once per table:
    # json.dumps with an indent runs the pure-Python encoder, which is
    # slower than deciding the table
    import json
    from json.encoder import encode_basestring_ascii as esc

    label_text = functools.cache(lambda label: esc(str(label)))
    perm_text = functools.cache(lambda perm: json.dumps(list(perm), indent=1).replace("\n", "\n  "))

    def render(cert: FusionCertificate) -> str:
        return _CERTIFICATE % (
            label_text(cert.l), label_text(cert.m), label_text(cert.n),
            perm_text(tuple(cert.permutation)), _reason_text(cert.reason, esc), cert.verdict,
        )

    texts = list(map(render, certs))
    return "[\n " + ",\n ".join(texts) + "\n]" if texts else "[]"


# ---------------------------------------------------------------------------
# generic-charge identity suite


class VerificationError(AssertionError):
    """An exact identity of the generic-charge elimination failed."""


def verify_step3_generic() -> Dict[str, str]:
    # a bench/tracer.py TARGETS entry until ROADMAP item 7
    from . import step3
    return step3.verify_step3_generic()
